"""The lockstep group code against its one-member calls, bit for bit: the
Lyapunov stack, policy iteration, the augmented runs and their costs, and
the verbs that use them."""

import dataclasses
import json

import numpy as np
import pytest

from helpers import BUNDLED_SCENARIO, lyapunov, policy_evaluation, rk4, run_pi, simulate_augmented
from syncopt import cli, simulator
from syncopt.errors import NumericalError, ToolkitError
from syncopt.numkernel import solve_lyapunov
from syncopt.policy_iteration import run_pi_group
from syncopt.protocol import AugmentedPlant


def outcome(fn, *args):
    """What a one-member call returns, or the error it raises."""
    try:
        return fn(*args)
    except (ToolkitError, ValueError) as exc:
        return exc


def assert_same_error(got, want):
    assert isinstance(want, Exception), want
    assert type(got) is type(want) and str(got) == str(want)


def stable(n, seed, shift=0.5):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a - (np.linalg.eigvals(a).real.max() + shift) * np.eye(n)


def test_lockstep_runs_each_member_alone_when_the_stack_fails():
    # members (shape, value) run a shape at a time; a stacked call fails as
    # a whole for a negative member, as that member alone fails
    calls = []

    def run(group):
        calls.append([v for _, v in group])
        if any(v < 0 for _, v in group):
            raise NumericalError(f"negative member among {len(group)}")
        return [2 * v for _, v in group]

    def lock(members):
        return cli.in_lockstep(members, lambda m: m[0], run, lambda m: f"member {m[1]}")

    assert lock([("a", 1), ("b", 2), ("a", 3)]) == [2, 4, 6]
    assert calls == [[1, 3], [2]]
    # the group of "a" fails first, and the members then run alone in order
    # up to the first that fails, which is in the group of "b"
    del calls[:]
    with pytest.raises(NumericalError, match=r"^member -2: negative member among 1$"):
        lock([("a", 1), ("b", -2), ("a", -3), ("b", 4)])
    assert calls == [[1, -3], [1], [-2]]

    def stack_only(group):  # fails as a stack though no member fails alone
        if len(group) > 1:
            raise ValueError("stack failed")
        return group

    with pytest.raises(ValueError, match="^stack failed$"):
        cli.in_lockstep([1, 2], lambda m: 0, stack_only, str)


def test_lyapunov_stack_gives_each_member_its_own_outcome():
    # the stacked solve gives each member the bits of its solve as a stack
    # of one, and a stack that holds a failing member raises that member's
    # own error
    n = 4
    g = np.random.default_rng(1).standard_normal((n, n))
    good = [(stable(n, s), g @ g.T + s * np.eye(n)) for s in range(3)]
    nan_a = good[0][0].copy()
    nan_a[1, 2] = np.nan
    bad = [(nan_a, good[0][1]), (good[1][0], good[1][1] + np.triu(g, 1)),
           (-good[2][0], good[2][1]), (-np.eye(n), np.diag([1.0, -1.0, 1.0, 1.0]))]
    P, residuals, abscissae = solve_lyapunov(*map(np.array, zip(*good)))
    for j, (a, q) in enumerate(good):
        want = lyapunov(a, q)
        assert P[j].tobytes() == want[0].tobytes() and (residuals[j], abscissae[j]) == want[1:]
    for member in bad:
        want = outcome(lyapunov, *member)
        got = outcome(solve_lyapunov, *map(np.array, zip(good[0], member, good[1])))
        assert_same_error(got, want)


def assert_same_traces(got, want):
    assert len(got.iterates) == len(want.iterates)
    for a, b in zip(got.iterates, want.iterates):
        assert a.k == b.k
        assert a.P.tobytes() == b.P.tobytes() and a.K.tobytes() == b.K.tobytes()
        assert (a.gain_delta, a.lyap_residual, a.abscissa) == (b.gain_delta, b.lyap_residual,
                                                               b.abscissa)
    assert (got.converged, got.are_residual_final) == (want.converged, want.are_residual_final)


def test_pi_group_matches_one_member_runs(paper_bundle):
    # the paper agents converge in 6, 7 and 8 iterations
    plants = [ad.plant for ad in paper_bundle.per_agent]
    k0 = [ad.initial.Kic for ad in paper_bundle.per_agent]
    got = run_pi_group(plants, k0)
    assert len({len(tr.iterates) for tr in got}) == 3
    for trace, plant, k in zip(got, plants, k0):
        assert_same_traces(trace, run_pi(plant, k))


def test_pi_group_failures_are_each_members_own(paper_bundle):
    # a group without a failing member gives each member the bits of its run
    # alone; a group that holds one raises the error that member alone raises
    ads = paper_bundle.per_agent
    singular = dataclasses.replace(ads[1].plant, D=np.zeros_like(ads[1].plant.D))
    bad = [(singular, ads[1].initial.Kic),  # D^T D singular
           (ads[2].plant, -10 * ads[2].initial.Kic)]  # not stabilizing
    for max_iter in (7, 100):  # at 7, the members that need 8 run out of iterations
        members = [(ad.plant, ad.initial.Kic) for ad in ads] + bad
        wants = [outcome(run_pi, plant, k, 1e-6, max_iter) for plant, k in members]
        passing = [(m, want) for m, want in zip(members, wants) if not isinstance(want, Exception)]
        assert len(passing) == (2 if max_iter == 7 else 5)
        traces = run_pi_group(*zip(*(m for m, _ in passing)), max_iter=max_iter)
        assert len(traces) == len(passing)
        for trace, (_, want) in zip(traces, passing):
            assert_same_traces(trace, want)
        for member, want in zip(members, wants):
            if isinstance(want, Exception):
                group = zip(passing[0][0], member, passing[-1][0])
                assert_same_error(outcome(run_pi_group, *group, 1e-6, max_iter), want)


def blowup_group():
    """Three order-5 loops: a stable one; one with a mode at -3000, where dt =
    1e-3 puts the RK4 step outside its stability region, started at zero in
    that mode (its power stack stops early, at a shorter chunk, and it stays
    finite); and the same loop excited in that mode, which blows up."""
    fast = np.diag([-3000.0, -1.0, -2.0, -0.5, -1.5])
    C = np.random.default_rng(8).standard_normal((2, 5))
    D = np.array([[0.5], [1.0]])
    plants = [AugmentedPlant(A=a, B=np.ones((5, 1)), C=C, D=D, Phi=np.zeros((1, 1)),
                             Psi=np.zeros((2, 1))) for a in (stable(5, 0), fast, fast)]
    K = [np.array([[0.1, 0.0, -0.2, 0.3, 0.05]]), np.zeros((1, 5)), np.zeros((1, 5))]
    X0 = [np.linspace(1.0, -0.6, 5), np.array([0.0, 1.0, 1.0, -1.0, 0.5]), np.ones(5)]
    return plants, K, X0


@pytest.mark.parametrize("min_rows", [None, 128])
def test_augmented_group_matches_one_member_runs(monkeypatch, min_rows):
    # min_rows 128: blocks of one chunk of the stable loop, whose lone last
    # row at 385 steps joins the block before it
    if min_rows:
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(simulator, "_MIN_BLOCK_ROWS", min_rows)
    plants, K, X0 = blowup_group()
    Acl = np.array([p.A - p.B @ k for p, k in zip(plants, K)])
    chunks = simulator._power_stack(Acl, 1e-3, 385)[1]
    assert chunks[0] == 128 and chunks[1] == chunks[2] < 128
    if min_rows:
        blocks = [(first, block.shape[1]) for members, first, block in
                  simulator._rk4_lockstep(Acl[:2], np.array(X0[:2]), 0.385, 1e-3) if members.tolist() == [0]]
        assert blocks == [(0, 129), (129, 128), (257, 129)]
    # the first two loops as a group have the bits of each run alone
    got = simulator.simulate_augmented(plants[:2], K[:2], X0[:2], 0.385, 1e-3)
    assert len(got) == 2
    for out, p, k, x0 in zip(got, plants, K, X0):
        want = simulator.simulate_augmented([p], [k], [x0], 0.385, 1e-3)[0]
        assert dataclasses.astuple(out) == dataclasses.astuple(want)
        whole = simulate_augmented(p, k, x0, 0.385, 1e-3)
        tail = simulator._tail_start(len(whole.times) - 1)
        assert out.tail_error == float(np.linalg.norm(whole.e[tail:], axis=1).max())
        e2 = np.sum(whole.e**2, axis=1)
        assert out.j_quadrature == pytest.approx(float(np.trapezoid(e2, whole.times)), rel=1e-12)
        assert out.j_closed_form == float(x0 @ policy_evaluation(p, k)[0] @ x0)
        assert out.horizon_warning == (
            f"horizon 0.385s is shorter than 5 time constants of the slowest mode "
            f"({-1.0 / whole.abscissa:.3g}s); quadrature may be truncated")
    # the third blows up, alone, whole and in the group, with the same text
    want = outcome(simulator.simulate_augmented, plants[2:], K[2:], X0[2:], 0.385, 1e-3)
    assert isinstance(want, NumericalError) and "state blow-up" in str(want)
    assert_same_error(outcome(simulator.simulate_augmented, plants, K, X0, 0.385, 1e-3), want)
    with pytest.raises(NumericalError, match=str(want)):
        simulate_augmented(plants[2], K[2], X0[2], 0.385, 1e-3)


def test_integrator_batches_give_each_member_its_run_alone(monkeypatch):
    # the power stacks of three order-5 loops fill the budget, so seven loops
    # run in batches of three, three and one, and the six that pass in two:
    # stable loops (chunks of 128) mixed with loops started at zero in a mode
    # outside the RK4 stability region (shorter chunks), and in the second
    # batch of seven one that blows up
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", 3 * 8 * 5 * 5 * simulator._MAX_CHUNK)
    assert simulator._chunk_length(5) == simulator._MAX_CHUNK
    stacks, power_stack = [], simulator._power_stack
    monkeypatch.setattr(simulator, "_power_stack", lambda M, *args: stacks.append(len(M)) or power_stack(M, *args))
    plants, K, X0 = blowup_group()
    which = [0, 1, 0, 0, 2, 0, 1]  # the fifth blows up
    members = [(plants[i], K[i], (1 + j / 10) * X0[i]) for j, i in enumerate(which)]
    Acl = np.array([p.A - p.B @ k for p, k, _ in members])
    Y0 = np.array([x0 for *_, x0 in members])
    passing = [j for j in range(7) if j != 4]

    seen, groups = {j: [] for j in passing}, []
    for group, first, block in simulator._rk4_lockstep(Acl[passing], Y0[passing], 0.385, 1e-3):
        groups.append(group.tolist())
        for g, samples in zip(group, block):
            seen[passing[g]].append(samples)
    assert stacks == [3, 3]
    assert groups == [[0, 2], [1], [3, 4], [5]]  # a batch at a time, a chunk length at a time
    for j in passing:
        want = rk4(Acl[j], Y0[j], 0.385, 1e-3)[1]
        assert np.concatenate(seen[j]).tobytes() == want.tobytes()

    costs = simulator.simulate_augmented(*zip(*(members[j] for j in passing)), 0.385, 1e-3)
    for cost, j in zip(costs, passing):
        alone = simulator.simulate_augmented(*zip(members[j]), 0.385, 1e-3)[0]
        assert dataclasses.astuple(cost) == dataclasses.astuple(alone)
    want = outcome(simulator.simulate_augmented, *zip(members[4]), 0.385, 1e-3)
    assert isinstance(want, NumericalError) and "state blow-up" in str(want)
    assert_same_error(outcome(simulator.simulate_augmented, *zip(*members), 0.385, 1e-3), want)


def test_augmented_cost_does_not_depend_on_the_blocks(monkeypatch):
    # the sum of |e|^2 runs left to right over the samples and carries from
    # block to block, so every cut of the run gives the same floats
    plants, K, X0 = blowup_group()

    def summaries():
        return [dataclasses.astuple(cost) for cost in
                simulator.simulate_augmented(plants[:2], K[:2], X0[:2], 0.385, 1e-3)]

    want = summaries()
    monkeypatch.setattr(simulator, "_BLOCK_BYTES", 0)
    for min_rows in (128, 256):
        monkeypatch.setattr(simulator, "_MIN_BLOCK_ROWS", min_rows)
        assert summaries() == want


def test_rk4_group_samples_are_one_system_runs():
    M = np.array([stable(6, s) for s in range(4)])
    Y0 = np.linspace(-1.0, 1.0, 24).reshape(4, 6)
    parts = {g: [] for g in range(4)}
    for members, first, block in simulator._rk4_lockstep(M, Y0, 3.0, 0.01):
        for j, g in enumerate(members):
            assert first == sum(map(len, parts[g]))
            parts[g].append(block[j])
    for g in range(4):
        assert np.concatenate(parts[g]).tobytes() == rk4(M[g], Y0[g], 3.0, 0.01)[1].tobytes()


def permuted_scenario(tmp_path, max_iter, widen=None):
    """The bundled scenario with its agents listed agent4, agent1, agent5,
    agent2, agent3: they need 6, 8, 7, 8 and 8 iterations. The agent named
    `widen` gets a fourth state, stable, driven by nothing and read by its
    first output: a shape of its own, and the same iteration count."""
    raw = json.loads(BUNDLED_SCENARIO.read_text())
    raw["agents"] = [raw["agents"][i] for i in (3, 0, 4, 1, 2)]
    raw["design"]["max_iter"] = max_iter
    for spec in raw["agents"]:
        if spec["name"] == widen:
            spec["A"] = [row + [0] for row in spec["A"]] + [[0, 0, 0, -2]]
            spec["B"] = spec["B"] + [[0, 0]]
            spec["C"] = [row + [v] for row, v in zip(spec["C"], (0.5, 0))]
            spec["E"] = spec["E"] + [[0, 0]]
            raw["init"]["x0"][widen] += [0]
            raw["k1_override"][widen] = [row + [0] for row in raw["k1_override"][widen]]
    path = tmp_path / "permuted.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("verb", ["learn", "compare"])
def test_learn_reports_the_lowest_numbered_failing_follower(tmp_path, capsys, verb):
    path = permuted_scenario(tmp_path, max_iter=7)
    scenario = cli.load_scenario(path)
    serial = []  # the failures of a loop over the agents, one run_pi each
    for ad in cli.run_design(scenario).per_agent:
        try:
            run_pi(ad.plant, ad.initial.Kic, epsilon=scenario.epsilon, max_iter=7)
        except NumericalError as exc:
            serial.append(f"agent {ad.name} (learn): {exc}")
    assert len(serial) == 3 and serial[0].startswith("agent agent1 ")
    capsys.readouterr()
    assert cli.main([verb, str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {serial[0]}\n"


@pytest.mark.parametrize("verb", ["learn", "compare"])
def test_the_first_failing_follower_may_run_in_a_later_group(tmp_path, capsys, verb):
    # agent1, of a shape of its own, runs after the group of the others,
    # which fails; agent1 is still the first follower to fail, and the one named
    path = permuted_scenario(tmp_path, max_iter=7, widen="agent1")
    bundle = cli.run_design(cli.load_scenario(path))
    shapes = [(ad.plant.order, *ad.plant.D.shape) for ad in bundle.per_agent]
    assert shapes[1] != shapes[0] == shapes[2] == shapes[3] == shapes[4]
    capsys.readouterr()
    assert cli.main([verb, str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: agent agent1 (learn): policy iteration did not converge within 7 iterations\n")


def test_compare_names_the_first_failing_loop_across_groups(tmp_path, capsys):
    # agent1 (a shape of its own, the second group) and agent2 (in the first
    # group) get an optimal gain that is not stabilizing; agent1 comes first
    path, out = permuted_scenario(tmp_path, max_iter=100, widen="agent1"), tmp_path / "out"
    assert cli.main(["learn", str(path), "--out", str(out)]) == 0
    gains_file = out / "optimal_gains.json"
    payload = json.loads(gains_file.read_text())
    for name in ("agent1", "agent2"):
        optimal = payload["agents"][name]["optimal"]
        optimal["Kic"] = (-np.array(optimal["Kic"])).tolist()
    gains_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["compare", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: agent agent1 (compare, optimal): "
                                       "gain is not stabilizing; refusing the augmented run\n")


def test_compare_reuses_a_stamped_gains_file(tmp_path, capsys, monkeypatch):
    # no file, a file learned for this run, and one learned for another seed:
    # the same bytes and stdout, and a learn only where the file is not this run's
    path = str(BUNDLED_SCENARIO)
    learns, run_learn = [], cli.run_learn

    def counting(*args):
        learns.append(args)
        return run_learn(*args)

    monkeypatch.setattr(cli, "run_learn", counting)
    outputs = {}
    for case, learned_seed in (("none", None), ("fresh", []), ("stale", ["--seed", "4"])):
        out = tmp_path / case
        if learned_seed is not None:
            assert cli.main(["learn", path, "--out", str(out), *learned_seed]) == 0
        capsys.readouterr()
        del learns[:]
        assert cli.main(["compare", path, "--out", str(out)]) == 0
        outputs[case] = (capsys.readouterr().out, (out / "comparison.json").read_bytes(),
                         len(learns))
    assert outputs["none"][:2] == outputs["fresh"][:2] == outputs["stale"][:2]
    assert [outputs[case][2] for case in ("none", "fresh", "stale")] == [1, 0, 1]


@pytest.mark.parametrize("scale, text", [
    (None, "A has non-finite entries"),  # every entry 1.7e308: A - B K overflows
    (-1.0, "gain is not stabilizing; refusing the augmented run"),
])
def test_compare_names_the_follower_whose_loop_fails(tmp_path, capsys, scale, text):
    # a stamped gains file whose agent1 Kic compare reads and refuses, naming
    # the follower and the gain set, with exit 3 and no traceback
    path, out = str(BUNDLED_SCENARIO), tmp_path / "out"
    assert cli.main(["learn", path, "--out", str(out)]) == 0
    gains_file = out / "optimal_gains.json"
    payload = json.loads(gains_file.read_text())
    optimal = payload["agents"]["agent1"]["optimal"]
    kic = np.array(optimal["Kic"])
    optimal["Kic"] = (np.full_like(kic, 1.7e308) if scale is None else scale * kic).tolist()
    gains_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["compare", path, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numerical failure: agent agent1 (compare, optimal): {text}\n"


def k1_times_1e10(kic):  # Hurwitz and finite, but its Lyapunov solution is not PSD
    return np.hstack([kic[:, :2], 1e10 * kic[:, 2:]])


def k1_negated_k3_1e160(kic):  # not stabilizing, and its weight overflows
    return np.hstack([np.full_like(kic[:, :2], 1e160), -kic[:, 2:]])


@pytest.mark.parametrize("edit, text", [
    (k1_times_1e10, "Lyapunov solution is not PSD within tolerance"),  # was a blow-up
    (k1_negated_k3_1e160, "Q has non-finite entries"),  # was "gain is not stabilizing"
])
def test_compare_checks_each_loop_as_a_policy_evaluation_step(tmp_path, capsys, edit, text):
    # compare refuses agent1's optimal loop with the error a policy
    # evaluation of that gain raises, checked before the loop is integrated
    path, out = str(BUNDLED_SCENARIO), tmp_path / "out"
    assert cli.main(["learn", path, "--out", str(out)]) == 0
    gains_file = out / "optimal_gains.json"
    payload = json.loads(gains_file.read_text())
    optimal = payload["agents"]["agent1"]["optimal"]
    kic = edit(np.array(optimal["Kic"]))
    optimal["Kic"] = kic.tolist()
    gains_file.write_text(json.dumps(payload))
    plant = cli.run_design(cli.load_scenario(path)).per_agent[0].plant
    with pytest.raises((ValueError, NumericalError), match=f"^{text}$"):
        policy_evaluation(plant, kic)
    capsys.readouterr()
    assert cli.main(["compare", path, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numerical failure: agent agent1 (compare, optimal): {text}\n"


def test_compare_refuses_a_loop_before_integrating_it(tmp_path, capsys, monkeypatch):
    # agent1's optimal K3 (the first q = 2 columns of Kic) at 1e160 leaves
    # its loop Hurwitz and finite, but its weight (C - D K)^T (C - D K)
    # overflows: the group of 10 loops and agent1's optimal loop alone are
    # refused by the Lyapunov checks before they are integrated, so the one
    # integration is that of agent1's initial loop, run alone before it
    path, out = str(BUNDLED_SCENARIO), tmp_path / "out"
    assert cli.main(["learn", path, "--out", str(out)]) == 0
    gains_file = out / "optimal_gains.json"
    payload = json.loads(gains_file.read_text())
    optimal = payload["agents"]["agent1"]["optimal"]
    kic = np.array(optimal["Kic"])
    kic[:, :2] = 1e160
    optimal["Kic"] = kic.tolist()
    gains_file.write_text(json.dumps(payload))
    runs, rk4_lockstep = [], simulator._rk4_lockstep

    def counting(M, *args):
        runs.append(len(M))
        return rk4_lockstep(M, *args)

    monkeypatch.setattr(simulator, "_rk4_lockstep", counting)
    capsys.readouterr()
    assert cli.main(["compare", path, "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: agent agent1 (compare, optimal): "
                                       "Q has non-finite entries\n")
    assert runs == [1]


def test_compare_takes_one_spectrum_of_its_augmented_loops(tmp_path, monkeypatch):
    # after learn, compare runs and solves the 10 loops of the bundled
    # scenario (5 followers of one shape, 2 gain sets) with one stacked
    # Lyapunov solve and its one stacked eigenvalue decomposition, for both
    # the refusal and the horizon warning; the only other one is the
    # design's check of the 5 initial loops
    path, out = str(BUNDLED_SCENARIO), str(tmp_path)
    assert cli.main(["learn", path, "--out", out]) == 0
    stacked, eigvals = [], np.linalg.eigvals
    solves, solve = [], simulator.solve_lyapunov

    def counting(a):
        if np.ndim(a) == 3:
            stacked.append(np.shape(a))
        return eigvals(a)

    def counting_solves(abar, q):
        solves.append(np.shape(abar))
        return solve(abar, q)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    monkeypatch.setattr(simulator, "solve_lyapunov", counting_solves)
    assert cli.main(["compare", path, "--out", out]) == 0
    assert stacked == [(5, 5, 5), (10, 5, 5)]
    assert solves == stacked[1:]

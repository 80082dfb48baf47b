"""The lockstep group code against its one-member calls, bit for bit: the
Lyapunov stack, policy iteration, the augmented runs, and the verbs that
use them."""

import dataclasses
import json

import numpy as np
import pytest

from helpers import rk4, simulate_augmented
from syncopt import cli, simulator
from syncopt.errors import NumericalError, ToolkitError
from syncopt.numkernel import lockstep, solve_lyapunov, solve_lyapunov_stack
from syncopt.policy_iteration import run_pi, run_pi_group
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
    def run(xs):  # a stacked call that fails as a whole for one bad member
        if any(x < 0 for x in xs):
            raise NumericalError(f"negative member among {len(xs)}")
        return [2 * x for x in xs]

    got = lockstep(run, ([1, -2, 3, -4],))
    assert got[0] == 2 and got[2] == 6
    assert [str(got[1]), str(got[3])] == ["negative member among 1"] * 2


def test_lyapunov_stack_gives_each_member_its_own_outcome():
    n = 4
    g = np.random.default_rng(1).standard_normal((n, n))
    good = [(stable(n, s), g @ g.T + s * np.eye(n)) for s in range(3)]
    nan_a = good[0][0].copy()
    nan_a[1, 2] = np.nan
    members = [good[0], (nan_a, good[0][1]), good[1], (good[1][0], good[1][1] + np.triu(g, 1)),
               (-good[2][0], good[2][1]), (-np.eye(n), np.diag([1.0, -1.0, 1.0, 1.0])), good[2]]
    got = solve_lyapunov_stack(np.array([a for a, _ in members]), np.array([q for _, q in members]))
    for (a, q), out in zip(members, got):
        want = outcome(solve_lyapunov, a, q)
        if isinstance(want, Exception):
            assert_same_error(out, want)
        else:
            assert out[0].tobytes() == want[0].tobytes() and out[1:] == want[1:]
    assert sum(isinstance(out, Exception) for out in got) == 4


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
    ads = paper_bundle.per_agent
    singular = dataclasses.replace(ads[1].plant, D=np.zeros_like(ads[1].plant.D))
    members = [
        (ads[0].plant, ads[0].initial.Kic),
        (singular, ads[1].initial.Kic),  # D^T D singular
        (ads[2].plant, -10 * ads[2].initial.Kic),  # not stabilizing
        (ads[3].plant, ads[3].initial.Kic),
        (ads[4].plant, ads[4].initial.Kic),
    ]
    for max_iter in (7, 100):  # at 7, the members that need 8 run out of iterations
        got = run_pi_group(*zip(*members), max_iter=max_iter)
        for out, (plant, k) in zip(got, members):
            want = outcome(run_pi, plant, k, 1e-6, max_iter)
            if isinstance(want, Exception):
                assert_same_error(out, want)
            else:
                assert_same_traces(out, want)


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
    # min_rows 128: blocks of one chunk of the stable loop, with a last block
    # of a single row at 385 steps
    if min_rows:
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(simulator, "_MIN_BLOCK_ROWS", min_rows)
    plants, K, X0 = blowup_group()
    Acl = np.array([p.A - p.B @ k for p, k in zip(plants, K)])
    chunks = simulator._power_stack(Acl, 1e-3, 385)[1]
    assert chunks[0] == 128 and chunks[1] == chunks[2] < 128
    got = simulator.simulate_augmented(plants, K, X0, 0.385, 1e-3)
    assert isinstance(got[2], NumericalError) and "state blow-up" in str(got[2])
    for out, p, k, x0 in zip(got, plants, K, X0):
        want = outcome(lambda: simulator.simulate_augmented([p], [k], [x0], 0.385, 1e-3)[0])
        if isinstance(want, Exception):
            assert_same_error(out, want)
            continue
        for a, b in zip(dataclasses.astuple(out), dataclasses.astuple(want)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        whole = simulate_augmented(p, k, x0, 0.385, 1e-3)
        assert out.X0.tobytes() == whole.X[0].tobytes() and out.abscissa == whole.abscissa
        tail = simulator._tail_start(len(whole.times) - 1)
        cost = simulator.evaluate_cost(out, np.eye(5))
        assert cost == simulator.evaluate_cost(want, np.eye(5))
        assert cost.tail_error == float(np.linalg.norm(whole.e[tail:], axis=1).max())
        e2 = np.sum(whole.e**2, axis=1)
        assert cost.j_quadrature == pytest.approx(float(np.trapezoid(e2, whole.times)), rel=1e-12)
    with pytest.raises(NumericalError, match=str(got[2])):
        simulate_augmented(plants[2], K[2], X0[2], 0.385, 1e-3)


def test_augmented_cost_does_not_depend_on_the_blocks(monkeypatch):
    # the sum of |e|^2 runs left to right over the samples and carries from
    # block to block, so every cut of the run gives the same floats
    plants, K, X0 = blowup_group()

    def summaries():
        runs = simulator.simulate_augmented(plants[:2], K[:2], X0[:2], 0.385, 1e-3)
        return [(run.j_quadrature, run.tail_e2) for run in runs]

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


def permuted_scenario(tmp_path, max_iter):
    """The bundled scenario with its agents listed agent4, agent1, agent5,
    agent2, agent3: they need 6, 8, 7, 8 and 8 iterations."""
    raw = json.loads(cli.bundled_scenario_path().read_text())
    raw["agents"] = [raw["agents"][i] for i in (3, 0, 4, 1, 2)]
    raw["design"]["max_iter"] = max_iter
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


def test_compare_reuses_a_stamped_gains_file(tmp_path, capsys, monkeypatch):
    # no file, a file learned for this run, and one learned for another seed:
    # the same bytes and stdout, and a learn only where the file is not this run's
    path = str(cli.bundled_scenario_path())
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

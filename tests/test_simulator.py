import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (augmented_cost, error_norms, followers, network_run, policy_evaluation, rk4,
                     rk4_blocks, simulate_augmented, simulate_network, tracking_metrics)
from networks import chain_payload, dag_payload, dense, graph_matrices, with_extra_state
from oracles import rk4_loop
from syncopt import cli, simulator
from syncopt.errors import NumericalError
from syncopt.plant import LeaderModel
from syncopt.protocol import AugmentedPlant


def scalar_plant(a=-1.0, b=1.0, c=1.0, d=1.0):
    return AugmentedPlant(
        A=np.array([[a]]), B=np.array([[b]]), C=np.array([[c]]), D=np.array([[d]]),
        Phi=np.zeros((1, 1)), Psi=np.zeros((1, 1)),
    )


def initial_gain_sets(bundle):
    return {ad.name: ad.initial for ad in bundle.per_agent}


def destabilized_gain_sets(bundle):
    # flip the sign of K1 for one agent
    gains = dict(initial_gain_sets(bundle))
    g = gains["agent1"]
    gains["agent1"] = dataclasses.replace(g, K1=-5 * g.K1)
    return gains


def zero_start(scenario):
    return dataclasses.replace(
        scenario,
        leader=LeaderModel(S=scenario.leader.S, w0=np.zeros(2)),
        x0={k: np.zeros_like(v) for k, v in scenario.x0.items()},
        xi0={k: np.zeros_like(v) for k, v in scenario.xi0.items()},
        zeta0=np.zeros(2),
    )


def captured_rk4_inputs(monkeypatch):
    """Record (M, y0) of every one-system _rk4_lockstep call made while the
    patch is active, M dense: a network run passes its matrix's nonzeros."""
    calls = []
    original = simulator._rk4_lockstep

    def recording(M, Y0, *args):
        (m,), (y0,) = M, Y0
        m = m.copy() if isinstance(m, np.ndarray) else dense(m, len(y0))
        calls.append((m, np.array(y0, dtype=float)))
        return original(M, Y0, *args)

    monkeypatch.setattr(simulator, "_rk4_lockstep", recording)
    return calls


def assert_rows_close(got, want, rtol):
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * scale)


def stable_matrix(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a - (np.linalg.eigvals(a).real.max() + 0.3) * np.eye(n)


class TestSimulateNetwork:
    def test_zero_initial_conditions_equilibrium(self, paper_scenario, paper_bundle):
        scenario = zero_start(paper_scenario)
        traj = simulate_network(
            scenario, initial_gain_sets(paper_bundle), t_end=1.0, dt=1e-3
        )
        for stream in traj.followers.values():
            assert np.abs(stream.e).max() == pytest.approx(0.0, abs=1e-14)

    def test_paper_scenario_errors_decay(self, paper_scenario, paper_bundle):
        traj = simulate_network(
            paper_scenario, initial_gain_sets(paper_bundle), t_end=20.0, dt=1e-3
        )
        metrics = tracking_metrics(traj)
        for met in metrics.values():
            assert met.tail_error < 1e-2

    def test_step_halving_convergence(self, paper_scenario, paper_bundle):
        gains = initial_gain_sets(paper_bundle)
        coarse = simulate_network(paper_scenario, gains, t_end=5.0, dt=1e-3)
        fine = simulate_network(paper_scenario, gains, t_end=5.0, dt=5e-4)
        a, b = coarse.leader_states[-1], fine.leader_states[-1]
        assert np.linalg.norm(a - b) < 1e-6 * np.linalg.norm(b)
        for name in gains:
            a = coarse.followers[name].x[-1]
            b = fine.followers[name].x[-1]
            assert np.linalg.norm(a - b) < 1e-6 * (1 + np.linalg.norm(b))

    def test_error_recomputation_identity(self, paper_scenario, paper_bundle):
        gains = initial_gain_sets(paper_bundle)
        traj = simulate_network(paper_scenario, gains, t_end=2.0, dt=1e-3)
        for name, ag in paper_scenario.agents:
            s = traj.followers[name]
            recomputed = s.x @ ag.C.T + s.u @ ag.D.T - traj.leader_states @ ag.F.T
            assert np.array_equal(s.e, recomputed)

    def test_compensators_converge_to_leader(self, paper_scenario, paper_bundle):
        traj = simulate_network(
            paper_scenario, initial_gain_sets(paper_bundle), t_end=20.0, dt=1e-3
        )
        for stream in traj.followers.values():
            gap = np.linalg.norm(stream.xi[-1] - traj.leader_states[-1])
            assert gap < 1e-3

    def test_bad_dt_rejected(self, paper_scenario, paper_bundle):
        with pytest.raises(ValueError):
            simulate_network(
                paper_scenario, initial_gain_sets(paper_bundle), t_end=1.0, dt=0.0
            )

    @pytest.mark.parametrize("defect, text", [
        ("four agents", "4 agents for 5 followers"),
        ("no gains for agent3", "no gain set for agent agent3"),
    ])
    def test_run_refuses_agents_it_cannot_wire(self, paper_scenario, paper_bundle, defect, text):
        scenario, gains = paper_scenario, initial_gain_sets(paper_bundle)
        if defect == "four agents":
            scenario = dataclasses.replace(scenario, agents=scenario.agents[:4])
        else:
            del gains["agent3"]
        with pytest.raises(ValueError, match=f"^{text}$"):
            network_run(scenario, gains, t_end=1.0, dt=1e-3)

    def test_blowup_detected(self, paper_scenario, paper_bundle, monkeypatch):
        calls = captured_rk4_inputs(monkeypatch)
        gains = destabilized_gain_sets(paper_bundle)
        with pytest.raises(NumericalError, match="blow-up") as info:
            simulate_network(paper_scenario, gains, t_end=40.0, dt=1e-3)
        # the textbook loop trips the guard at the same step
        (M, y0), = calls
        ref = rk4_loop(M, y0, 40000, 1e-3, limit=simulator.BLOWUP_LIMIT)
        assert len(ref) <= 40000
        assert str(info.value) == f"state blow-up at t = {(len(ref) - 1) * 1e-3:.6g}"

    def test_zero_start_stays_zero_under_destabilizing_gains(self, paper_scenario, paper_bundle):
        traj = simulate_network(
            zero_start(paper_scenario), destabilized_gain_sets(paper_bundle), t_end=40.0, dt=1e-3
        )
        for stream in traj.followers.values():
            assert np.abs(stream.x).max() == 0.0
            assert np.abs(stream.e).max() == 0.0

    def test_matches_textbook_rk4_on_paper_network(self, paper_scenario, paper_bundle, monkeypatch):
        calls = captured_rk4_inputs(monkeypatch)
        simulate_network(
            paper_scenario, initial_gain_sets(paper_bundle), t_end=20.0, dt=1e-3
        )
        (M, y0), = calls
        times, samples = rk4(M, y0, 20.0, 1e-3)
        assert len(times) == 20001
        assert_rows_close(samples, rk4_loop(M, y0, 20000, 1e-3), rtol=1e-10)


def dense_network_matrix(scenario, gains, design, xi_off, z_off, x_off):
    """The network matrix as the simulator once assembled it: dense, with the
    compensator couplings found by scanning every node's adjacency row."""
    leader = scenario.leader
    topo = scenario.topology
    q = leader.q
    dim = x_off[-1] + scenario.agents[-1][1].n
    M = np.zeros((dim, dim))
    M[:q, :q] = leader.S
    adj = graph_matrices(topo)[0]
    for i, (name, ag) in enumerate(scenario.agents):
        node = i + 1
        a = design.alphas[i]
        sl = slice(xi_off[i], xi_off[i] + q)
        M[sl, sl] += leader.S + a * topo.in_degrees[node] * np.eye(q)
        for j in range(topo.n_followers + 1):
            if adj[node, j]:
                src = slice(0, q) if j == 0 else slice(xi_off[j - 1], xi_off[j - 1] + q)
                M[sl, src] += -a * np.eye(q)
        zl = slice(z_off[i], z_off[i] + q)
        M[zl, zl] = design.s_shifted
        g = gains[name]
        xl = slice(x_off[i], x_off[i] + ag.n)
        M[xl, xl] = ag.A - ag.B @ g.K1
        M[xl, sl] = -ag.B @ g.K2
        M[xl, zl] = -ag.B @ g.K3
        M[xl, :q] = ag.E
    return M


def test_follower_streams_are_state_columns_and_per_follower_products(tmp_path, monkeypatch):
    # orders 3 3 4 4 3 4 3 3 on a chain: the outputs are computed over five
    # groups of followers of one shape, and must be the columns of the
    # integrated state and, bit for bit, the products of one follower
    payload = with_extra_state(chain_payload(8), {"a2", "a3", "a5"})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(payload))
    scenario = cli.load_scenario(path)
    gains = initial_gain_sets(cli.run_design(scenario))
    calls = captured_rk4_inputs(monkeypatch)
    traj = simulate_network(scenario, gains, t_end=0.6, dt=1e-3)
    (M, y0), = calls
    _, samples = rk4(M, y0, 0.6, 1e-3)
    q, N = 2, 8
    x_col = q + 2 * q * N
    for i, (name, ag) in enumerate(scenario.agents):
        s, g = traj.followers[name], gains[name]
        assert np.array_equal(s.xi, samples[:, q + q * i : q + q * (i + 1)])
        assert np.array_equal(s.zeta, samples[:, q + q * (N + i) : q + q * (N + i + 1)])
        assert np.array_equal(s.x, samples[:, x_col : x_col + ag.n])
        x_col += ag.n
        u = -(s.x @ g.K1.T + s.xi @ g.K2.T + s.zeta @ g.K3.T)
        assert np.array_equal(s.u, u)
        assert np.array_equal(s.e, s.x @ ag.C.T + u @ ag.D.T - traj.leader_states @ ag.F.T)
    assert x_col == len(y0)
    # the norms the tracking metrics take, from the stacked products, are
    # those of each follower's own errors, bit for bit
    added, add = [], simulator.TrackingSummary.add
    monkeypatch.setattr(simulator.TrackingSummary, "add",
                        lambda summary, values: added.append(values.copy()) or add(summary, values))
    run = network_run(scenario, gains, t_end=0.6, dt=1e-3)
    for _ in run:
        pass
    assert np.concatenate(added).tobytes() == error_norms(traj).tobytes()
    assert run.tracking.metrics() == tracking_metrics(traj)


def test_tracking_norms_of_eight_outputs_are_numpys(tmp_path):
    # p = m = 8: numpy adds 8 terms or more pairwise, not left to right, and
    # the norms each block passes to the tracking metrics and the `--svg`
    # envelope are still those np.linalg.norm takes of each follower's e
    rng = np.random.default_rng(8)
    eye = np.eye(8).tolist()
    plant = {"A": (-np.eye(8)).tolist(), "B": eye, "C": eye, "D": eye,
             "E": rng.standard_normal((8, 2)).tolist(), "F": rng.standard_normal((8, 2)).tolist()}
    path = tmp_path / "eight.json"
    path.write_text(json.dumps({
        "leader": {"S": [[1.0, 0.0], [0.0, 1.0]], "w0": [1.0, -1.0]},
        "topology": {"n_followers": 2, "edges": [[0, 1], [1, 2]]},
        "design": {"r": 1.0}, "sim": {"t_end": 0.5, "dt": 1e-3},
        "agents": [dict(plant, name="p"), dict(plant, name="q")],
        "init": {"x0": {name: rng.standard_normal(8).tolist() for name in "pq"},
                 "xi0": {name: [0.5, -0.5] for name in "pq"}},
    }))
    scenario = cli.load_scenario(path)
    run = network_run(scenario, initial_gain_sets(cli.run_design(scenario)), t_end=0.5, dt=1e-3)
    for block in run:
        want = np.stack([np.linalg.norm(s.e, axis=1) for s in followers(block).values()], axis=1)
        assert block.norms.tobytes() == want.tobytes()
        assert (want > 0).all()


@pytest.mark.parametrize("network", ["paper", "chain"])
def test_network_triplets_are_the_dense_assembly(network, request, paper_scenario, paper_bundle,
                                                 monkeypatch):
    if network == "paper":
        scenario, gains = paper_scenario, initial_gain_sets(paper_bundle)
    else:
        scenario, gains, _, _ = request.getfixturevalue("chain_network")
    calls, original = [], simulator._network_matrix

    def recording(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(simulator, "_network_matrix", recording)
    simulate_network(scenario, gains, t_end=0.0, dt=0.01)
    (args, (rows, cols, vals)), = calls
    want = dense_network_matrix(*args)
    dense = np.zeros_like(want)
    dense[rows, cols] = vals
    assert np.array_equal(dense, want)
    # the nonzeros in np.nonzero's row-major order, each the same float
    want_rows, want_cols = np.nonzero(want)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert vals.tobytes() == want[want_rows, want_cols].tobytes()


CHUNK = simulator._chunk_length(6)  # powers per chunk for a 6-state system


class TestRk4StepMap:
    @pytest.mark.parametrize("steps", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_step_counts_around_chunk_length(self, steps):
        M, y0 = stable_matrix(6, seed=4), np.linspace(-1.0, 1.0, 6)
        times, samples = rk4(M, y0, steps * 0.01, 0.01)
        assert len(times) == steps + 1
        assert np.array_equal(samples[0], y0)
        assert_rows_close(samples, rk4_loop(M, y0, steps, 0.01), rtol=1e-10)

    @pytest.mark.parametrize("min_rows", [1, 130, 300])
    def test_blocks_hold_the_samples_of_one_block(self, monkeypatch, min_rows):
        # blocks of whole chunks: every sample is the same float however
        # the run is cut
        M, y0 = stable_matrix(6, seed=4), np.linspace(-1.0, 1.0, 6)
        _, whole = rk4(M, y0, 10.0, 0.01)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(simulator, "_MIN_BLOCK_ROWS", min_rows)
        blocks = list(rk4_blocks(M, y0, 10.0, 0.01))
        assert len(blocks) > 1
        assert (len(blocks[0]) - 1) % CHUNK == 0
        assert all(len(block) % CHUNK == 0 for block in blocks[1:-1])
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [3, 7])
    def test_step_map_is_rk4_polynomial(self, n):
        M, h = stable_matrix(n, seed=6), 0.05
        hM = h * M
        want = np.eye(n) + hM + hM @ hM / 2 + hM @ hM @ hM / 6 + hM @ hM @ hM @ hM / 24
        got = np.empty((n, n))
        simulator._step_map(M, h, out=got)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_nan_start_rejected(self):
        with pytest.raises(NumericalError, match="non-finite"):
            rk4(-np.eye(2), np.array([np.nan, 0.0]), 1.0, 1e-3)

    def test_zero_start_stays_zero_when_powers_overflow(self):
        # one step multiplies by about 644; R^128 would overflow to inf and
        # inf * 0 is NaN, so the power stack must stop short of it
        times, samples = rk4(1e4 * np.eye(3), np.zeros(3), 1.0, 1e-3)
        assert len(times) == 1001
        assert np.all(samples == 0.0)

    def test_blowup_time_of_fast_growth(self):
        M, y0 = 1e4 * np.eye(3), np.array([0.0, 1e-3, 0.0])
        ref = rk4_loop(M, y0, 1000, 1e-3, limit=simulator.BLOWUP_LIMIT)
        with pytest.raises(NumericalError, match=f"t = {(len(ref) - 1) * 1e-3:.6g}$"):
            rk4(M, y0, 1.0, 1e-3)


def lockstep_samples(M, Y0, t_end, dt, start=0):
    """Each system's blocks of an `_rk4_lockstep` run from sample `start`
    on, as (first sample, length) pairs and the samples joined."""
    parts = {g: [] for g in range(len(Y0))}
    for members, first, block in simulator._rk4_lockstep(M, Y0, t_end, dt, start):
        for j, g in enumerate(members):
            parts[g].append((first, block[j]))
    return {g: ([(first, len(b)) for first, b in p], np.concatenate([b for _, b in p]))
            for g, p in parts.items()}


class TestPassedChunks:
    """A run read from sample `start` on passes the whole chunks before the
    one that holds sample start - 1 by the top step-map power alone."""

    @pytest.mark.parametrize("min_rows", [None, 130])
    @pytest.mark.parametrize("start", [2, 129, 130, 900, 1000])
    def test_samples_are_those_of_the_whole_run(self, monkeypatch, start, min_rows):
        # two systems of one chunk length and a zero start under a fast
        # unstable M, whose chunks are shorter
        if min_rows is not None:  # blocks of 256 rows
            monkeypatch.setattr(simulator, "_BLOCK_BYTES", 0)
            monkeypatch.setattr(simulator, "_MIN_BLOCK_ROWS", min_rows)
        M = np.stack([stable_matrix(6, seed=1), stable_matrix(6, seed=2), 1e3 * np.eye(6)])
        Y0 = np.vstack([np.linspace(-1.0, 1.0, 12).reshape(2, 6), np.zeros(6)])
        whole = lockstep_samples(M, Y0, 10.0, 0.01)
        tail = lockstep_samples(M, Y0, 10.0, 0.01, start)
        chunks = simulator._power_stack(M, 0.01, 1000)[1]
        assert chunks.tolist()[:2] == [CHUNK, CHUNK] and chunks[2] < CHUNK
        for g in range(3):
            (first, _), *rest = tail[g][0]
            passed = max(0, start - 2) // chunks[g] * chunks[g]  # steps passed over
            assert first == (passed + 1 if passed else 0)
            assert rest == [b for b in whole[g][0] if b[0] > first]  # the blocks of the whole run
            assert tail[g][1].tobytes() == whole[g][1][first:].tobytes()

    def test_rotation_past_the_limit_between_chunk_ends(self):
        # a quarter turn a chunk, from 45 degrees: every chunk's last sample
        # lies at |y|_inf = |y| / sqrt(2) below BLOWUP_LIMIT, while the
        # samples in between reach |y|, just above it
        dt = 0.01
        assert simulator._chunk_length(2) == CHUNK
        M = np.pi / (2 * CHUNK * dt) * np.array([[0.0, 1.0], [-1.0, 0.0]])
        y0 = np.full(2, 1.001e12 / np.sqrt(2))
        ref = rk4_loop(M, y0, 4 * CHUNK, dt)
        top = np.abs(ref).max(axis=1)
        assert top[::CHUNK].max() < simulator.BLOWUP_LIMIT < top[: CHUNK + 1].max()
        with pytest.raises(NumericalError) as whole:
            lockstep_samples(M[None], y0[None], 10.0, dt)
        assert str(whole.value) == f"state blow-up at t = {np.argmax(top > simulator.BLOWUP_LIMIT) * dt:.6g}"
        for start in (CHUNK + 2, 900):
            with pytest.raises(NumericalError) as tail:
                lockstep_samples(M[None], y0[None], 10.0, dt, start)
            assert str(tail.value) == str(whole.value)

    @pytest.mark.parametrize("start", [5000, 5800])
    def test_spiral_past_the_limit_raises_as_the_whole_run(self, start):
        # |y| grows as e^(t/2) from 1 and passes BLOWUP_LIMIT at about
        # t = 55 s, 5500 steps: after the sample the run is read from, or
        # before it, in the chunks it would pass over
        M = np.array([[0.5, 1.0], [-1.0, 0.5]])
        y0 = np.array([1.0, 0.0])
        with pytest.raises(NumericalError) as whole:
            lockstep_samples(M[None], y0[None], 60.0, 0.01)
        assert 5000 < float(str(whole.value).split("= ")[1]) / 0.01 < 5800
        with pytest.raises(NumericalError) as tail:
            lockstep_samples(M[None], y0[None], 60.0, 0.01, start)
        assert str(tail.value) == str(whole.value)


class TestRk4Stages:
    """The chain network, from 363 states on: the sparse path, which runs on
    the nonzeros of the step map and falls back to the four stages."""

    @pytest.mark.parametrize("steps", [0, 1, 129])
    def test_matches_textbook_rk4(self, chain_network, steps):
        _, _, M, y0 = chain_network
        times, samples = rk4(M, y0, steps * 0.01, 0.01)
        assert len(times) == steps + 1
        assert np.array_equal(samples[0], y0)
        assert_rows_close(samples, rk4_loop(M, y0, steps, 0.01), rtol=1e-12)

    def test_blocks_hold_the_samples_of_one_block(self, chain_network, monkeypatch):
        _, _, M, y0 = chain_network
        _, whole = rk4(M, y0, 1.0, 0.01)
        monkeypatch.setattr(simulator, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(simulator, "_MIN_BLOCK_ROWS", 7)
        blocks = list(rk4_blocks(M, y0, 1.0, 0.01))
        assert [len(block) for block in blocks] == [8] + [7] * 13 + [2]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_blowup_time_matches_textbook_rk4(self, chain_network):
        _, _, M, y0 = chain_network
        M = M + 20.0 * np.eye(len(y0))
        ref = rk4_loop(M, y0, 500, 0.01, limit=simulator.BLOWUP_LIMIT)
        assert len(ref) <= 500
        with pytest.raises(NumericalError, match=f"t = {(len(ref) - 1) * 0.01:.6g}$"):
            rk4(M, y0, 5.0, 0.01)

    def test_nan_start_rejected(self, chain_network):
        _, _, M, y0 = chain_network
        y0 = y0.copy()
        y0[-1] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            rk4(M, y0, 1.0, 0.01)

    def test_zero_start_stays_zero_under_unstable_matrix(self, chain_network):
        _, _, M, y0 = chain_network
        times, samples = rk4(M + 20.0 * np.eye(len(y0)), np.zeros(len(y0)), 5.0, 0.01)
        assert len(times) == 501
        assert np.all(samples == 0.0)

    def test_dense_step_map_only_below_limit(self, chain_network, paper_scenario, paper_bundle,
                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("dense step map built")

        monkeypatch.setattr(simulator, "_step_map", refuse)
        scenario, gains, _, _ = chain_network
        simulate_network(scenario, gains, t_end=0.1, dt=0.01)
        with pytest.raises(RuntimeError, match="dense step map built"):
            simulate_network(
                paper_scenario, initial_gain_sets(paper_bundle), t_end=0.1, dt=0.01
            )


def nonzeros(M):
    rows, cols = np.nonzero(M)
    return rows, cols, M[rows, cols]


def rows_to_dense(R, n):
    """The n x n matrix of the rows (starts, cols, vals) of a sparse step map."""
    starts, cols, vals = R
    return dense((np.repeat(np.arange(n), np.diff(np.append(starts, len(cols)))), cols, vals), n)


def layered_dag(in_degree, layers=20, width=25, seed=0):
    """A stable 500-state DAG of `layers` layers of `width` nodes, each node
    fed by `in_degree` nodes of the layer before: the more senders, the
    more the RK4 step map fills in, up to four layers back."""
    rng = np.random.default_rng(seed)
    n = layers * width
    M = np.diag(-1.0 - rng.random(n))
    for node in range(width, n):
        before = (node // width - 1) * width
        M[node, before + rng.choice(width, size=in_degree, replace=False)] = (
            0.5 * rng.standard_normal(in_degree))
    return M


def refuse(*args, **kwargs):
    raise RuntimeError("refused")


@pytest.mark.parametrize("path", ["step map", "nonzeros of R", "four stages"])
def test_no_block_has_one_row(chain_network, monkeypatch, path):
    # three blocks and a lone last row: at a step count one past a multiple
    # of the block rows, that row joins the block before it, with its bits
    if path == "step map":
        M, rows = stable_matrix(6, seed=4), CHUNK  # blocks of whole chunks
    elif path == "nonzeros of R":
        M, rows = chain_network[2], 7
    else:
        M, rows = layered_dag(in_degree=5), 7
        monkeypatch.setattr(simulator, "_sparse_steps", refuse)
    y0, steps = np.linspace(-1.0, 1.0, len(M)), 3 * rows + 1
    _, whole = rk4(M, y0, steps * 0.01, 0.01)
    monkeypatch.setattr(simulator, "_BLOCK_BYTES", 0)
    monkeypatch.setattr(simulator, "_MIN_BLOCK_ROWS", rows)
    blocks = list(rk4_blocks(M, y0, steps * 0.01, 0.01))
    assert [len(block) for block in blocks] == [rows + 1, rows, rows + 1]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


class TestSparseStepMap:
    def test_matches_dense_step_map(self, chain_network):
        _, _, M, y0 = chain_network
        n = len(y0)
        R = simulator._sparse_step_map(*nonzeros(M), n, 0.01)
        starts, cols, vals = R
        assert len(vals) <= 4 * np.count_nonzero(M) + 4 * n
        assert starts[0] == 0 and np.all(np.diff(starts) > 0)  # no row is empty
        want = np.empty((n, n))
        simulator._step_map(M, 0.01, out=want)
        got = rows_to_dense(R, n)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max())
        assert np.all(got[want != 0] != 0)

    def test_strips_do_not_change_the_bits(self, chain_network, monkeypatch):
        _, _, M, y0 = chain_network
        whole = simulator._sparse_step_map(*nonzeros(M), len(y0), 0.01)
        monkeypatch.setattr(simulator, "_STRIP_ROWS", 7)
        cut = simulator._sparse_step_map(*nonzeros(M), len(y0), 0.01)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, cut))

    def test_network_runs_on_the_step_map(self, chain_network, monkeypatch):
        # the stages are the fallback only: a network does not fill in
        monkeypatch.setattr(simulator, "_rk4_stages", refuse)
        _, _, M, y0 = chain_network
        _, samples = rk4(M, y0, 1.29, 0.01)
        assert_rows_close(samples, rk4_loop(M, y0, 129, 0.01), rtol=1e-12)

    def test_high_fill_takes_the_stages(self, monkeypatch):
        M = layered_dag(in_degree=5)
        n, y0 = len(M), np.linspace(-1.0, 1.0, len(M))
        R = np.empty((n, n))
        simulator._step_map(M, 0.01, out=R)
        assert np.count_nonzero(R) > 4 * np.count_nonzero(M) + 4 * n
        assert simulator._sparse_step_map(*nonzeros(M), n, 0.01) is None
        want = rk4_loop(M, y0, 129, 0.01)
        with monkeypatch.context() as mp:
            mp.setattr(simulator, "_sparse_steps", refuse)
            _, samples = rk4(M, y0, 1.29, 0.01)
        assert_rows_close(samples, want, rtol=1e-12)
        # the same steps by the filled-in step map, had it been used
        rows, cols, vals = nonzeros(R)
        out = np.empty((129, n))
        simulator._sparse_steps(np.searchsorted(rows, np.arange(n)), cols, vals, y0, out)
        assert_rows_close(np.vstack([y0, out]), want, rtol=1e-12)

    def test_non_finite_step_map_takes_the_stages(self, monkeypatch):
        # a chain 0 -> 1 -> 2 -> 3 of couplings 1e120 whose nodes start and
        # stay at 0: R = I + hM + ... would hold (h 1e120)^3 / 6, past the
        # float range, where the stages only multiply the couplings by 0
        M, huge = layered_dag(in_degree=1), layered_dag(in_degree=1)
        M[[1, 2, 3], [0, 1, 2]] = 1.0
        huge[[1, 2, 3], [0, 1, 2]] = 1e120
        n, y0 = len(M), np.linspace(-1.0, 1.0, len(M))
        y0[:4] = 0.0
        assert simulator._sparse_step_map(*nonzeros(M), n, 0.01) is not None  # within the fill budget
        assert simulator._sparse_step_map(*nonzeros(huge), n, 0.01) is None
        want = rk4_loop(huge, y0, 129, 0.01)
        assert np.isfinite(want).all() and not want[:, :4].any()
        monkeypatch.setattr(simulator, "_sparse_steps", refuse)
        _, samples = rk4(huge, y0, 1.29, 0.01)
        assert_rows_close(samples, want, rtol=1e-12)

    def test_stage_fallback_blowup_time_matches_textbook_rk4(self):
        M = layered_dag(in_degree=5) + 20.0 * np.eye(500)
        y0 = np.linspace(-1.0, 1.0, 500)
        ref = rk4_loop(M, y0, 500, 0.01, limit=simulator.BLOWUP_LIMIT)
        assert len(ref) <= 500
        with pytest.raises(NumericalError, match=f"t = {(len(ref) - 1) * 0.01:.6g}$"):
            rk4(M, y0, 5.0, 0.01)

    def test_lockstep_of_both_forms_gives_each_system_alone(self):
        # a dense stack from 363 states on: one system on its step map, one
        # on the stages, each with the bits of its own run
        M = np.stack([layered_dag(in_degree=1), layered_dag(in_degree=5)])
        Y0 = np.linspace(-1.0, 1.0, 1000).reshape(2, 500)
        parts = {0: [], 1: []}
        for members, first, block in simulator._rk4_lockstep(M, Y0, 3.0, 0.01):
            for j, g in enumerate(members):
                parts[g].append(block[j])
        for g in range(2):
            whole = np.concatenate(parts[g])
            assert whole.tobytes() == rk4(M[g], Y0[g], 3.0, 0.01)[1].tobytes()
            assert_rows_close(whole, rk4_loop(M[g], Y0[g], 300, 0.01), rtol=1e-12)

    def test_build_memory_is_a_small_multiple_of_the_step_map(self, tmp_path):
        # 1000 followers on a random DAG, 7002 states
        path = tmp_path / "dag.json"
        path.write_text(json.dumps(dag_payload(1000, seed=7)))
        scenario = cli.load_scenario(path)
        gains = initial_gain_sets(cli.run_design(scenario))
        (matrix,), (y0,), _, dt = network_run(scenario, gains, 0.0, 1e-3)._integration
        tracemalloc.start()
        try:
            R = simulator._sparse_step_map(*matrix, len(y0), dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(R[1]) > 2 * len(matrix[2])
        assert peak < 3 * sum(a.nbytes for a in R), peak


class TestSimulateAugmented:
    def test_zero_start_stays_zero(self):
        run = simulate_augmented(
            scalar_plant(), np.array([[1.0]]), np.zeros(1), t_end=1.0, dt=1e-3
        )
        assert np.abs(run.X).max() == 0.0
        assert np.abs(run.e).max() == 0.0

    def test_scalar_exponential(self):
        # closed loop a - b k = -2
        run = simulate_augmented(
            scalar_plant(), np.array([[1.0]]), np.array([3.0]), t_end=1.0, dt=1e-3
        )
        assert run.X[-1, 0] == pytest.approx(3.0 * np.exp(-2.0), abs=1e-8)

    def test_decay_under_stabilizing_gain(self, paper_bundle):
        ad = paper_bundle.per_agent[1]
        x0 = np.ones(ad.plant.order)
        run = simulate_augmented(ad.plant, ad.initial.Kic, x0, t_end=15.0, dt=1e-3)
        assert np.linalg.norm(run.X[-1]) < np.linalg.norm(x0)

    def test_rejects_destabilizing_gain(self):
        with pytest.raises(NumericalError):
            augmented_cost(
                scalar_plant(a=1.0), np.zeros((1, 1)), np.ones(1), t_end=1.0, dt=1e-3
            )

    def test_richardson_order(self):
        # 4th-order method: halving dt divides the terminal error by ~16
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(3)
        plant = AugmentedPlant(
            A=a, B=np.zeros((3, 1)), C=np.eye(3), D=np.ones((3, 1)),
            Phi=np.zeros((3, 1)), Psi=np.zeros((3, 1)),
        )
        x0 = np.array([1.0, -1.0, 0.5])
        vals, vecs = np.linalg.eig(a)
        exact = (vecs @ np.diag(np.exp(vals * 2.0)) @ np.linalg.inv(vecs) @ x0).real
        errs = []
        for dt in (0.08, 0.04):
            run = simulate_augmented(plant, np.zeros((1, 3)), x0, t_end=2.0, dt=dt)
            errs.append(np.linalg.norm(run.X[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 4.0 < ratio < 64.0

    def test_lyapunov_energy_decay(self, paper_bundle):
        ad = paper_bundle.per_agent[0]
        p, _, _ = policy_evaluation(ad.plant, ad.initial.Kic)
        x0 = np.ones(ad.plant.order)
        run = simulate_augmented(ad.plant, ad.initial.Kic, x0, t_end=5.0, dt=1e-3)
        energy = np.einsum("ti,ij,tj->t", run.X, p, run.X)
        assert np.all(np.diff(energy) <= 1e-9 * (1 + energy[:-1]))


class TestEvaluateCost:
    def test_augmented_run_memory_does_not_grow_with_samples(self):
        # 10^6 steps of an order-5 loop: |e|^2 at every sample and the times
        # would be 8 MB each; the run keeps its sum and tail maximum, and its
        # blocks of about 1 MB trace 3.4 MB, at 2 * 10^5 steps as at 10^6
        rng = np.random.default_rng(3)
        plant = AugmentedPlant(A=-np.eye(5) + 0.3 * rng.standard_normal((5, 5)), B=np.ones((5, 1)),
                               C=rng.standard_normal((2, 5)), D=np.array([[0.5], [1.0]]),
                               Phi=np.zeros((1, 1)), Psi=np.zeros((2, 1)))
        tracemalloc.start()
        try:
            report = augmented_cost(plant, np.zeros((1, 5)), np.ones(5), t_end=1000.0, dt=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.j_quadrature == pytest.approx(report.j_closed_form, rel=1e-3)
        assert peak < 6 << 20, peak

    def test_zero_start(self):
        plant = scalar_plant()
        report = augmented_cost(plant, np.zeros((1, 1)), np.zeros(1), 1.0, 1e-3)
        assert report.j_quadrature == 0.0
        assert report.j_closed_form == 0.0

    def test_scalar_closed_form(self):
        # K=0: closed loop -1, e = x, J = int exp(-2t) = 0.5 = P
        plant = scalar_plant()
        k = np.zeros((1, 1))
        report = augmented_cost(plant, k, np.ones(1), t_end=20.0, dt=1e-3)
        assert report.j_closed_form == pytest.approx(0.5)
        assert report.j_quadrature == pytest.approx(0.5, abs=1e-4)
        assert report.horizon_warning is None

    def test_short_horizon_warns(self):
        plant = scalar_plant()
        k = np.zeros((1, 1))
        report = augmented_cost(plant, k, np.ones(1), t_end=1.0, dt=1e-3)
        # the closed loop is -1: five time constants are 5 s
        assert report.horizon_warning == ("horizon 1s is shorter than 5 time constants of the "
                                          "slowest mode (1s); quadrature may be truncated")


def reference_tracking_metrics(times, names, values):
    """Tail error and settle time of each follower from the whole T x N
    record of its norms, follower by follower."""
    out = {}
    for name, mag in zip(names, values.T):
        above = np.nonzero(mag >= simulator.SETTLE_THRESHOLD)[0]
        if above.size == 0:
            settle = 0.0
        elif above[-1] == len(mag) - 1:
            settle = None
        else:
            settle = float(times[above[-1] + 1])
        tail = float(mag[int(np.ceil(0.9 * (len(mag) - 1))) :].max())
        out[name] = simulator.TrackingMetrics(tail_error=tail, settle_time=settle)
    return out


class TestTrackingMetrics:
    def test_zero_error_settles_immediately(self, paper_scenario, paper_bundle):
        scenario = zero_start(paper_scenario)
        traj = simulate_network(
            scenario, initial_gain_sets(paper_bundle), t_end=1.0, dt=1e-3
        )
        for met in tracking_metrics(traj).values():
            assert met.settle_time == 0.0

    def test_paper_run_settles(self, paper_scenario, paper_bundle):
        traj = simulate_network(
            paper_scenario, initial_gain_sets(paper_bundle), t_end=20.0, dt=1e-3
        )
        for met in tracking_metrics(traj).values():
            assert met.settle_time is not None

    def test_not_settled_reported(self, paper_scenario, paper_bundle):
        # short horizon: the transient has not died down yet
        traj = simulate_network(
            paper_scenario, initial_gain_sets(paper_bundle), t_end=0.5, dt=1e-3
        )
        metrics = tracking_metrics(traj)
        assert any(met.settle_time is None for met in metrics.values())

    @pytest.mark.parametrize("samples", [1, 2, 11, 1000])
    def test_summary_of_blocks_is_the_whole_record(self, samples):
        rng = np.random.default_rng(samples)
        times = np.arange(samples) * 1e-3
        values = 10.0 ** rng.uniform(-4.0, 0.0, (samples, 6))
        values[:, 0] = 1e-3  # never above: settled at once
        values[-1, 1] = simulator.SETTLE_THRESHOLD  # above at the last sample: not settled
        values[1:, 2] = 1e-3  # above at the first sample only
        values[: samples // 2, 3] = 1.0  # settles half way
        names = [f"f{i}" for i in range(6)]
        want = reference_tracking_metrics(times, names, values)
        cuts = sorted(rng.choice(np.arange(1, samples), size=min(samples - 1, 4), replace=False))
        summary = simulator.TrackingSummary(samples - 1, 1e-3, names)
        for block in np.split(values, cuts):
            summary.add(block)
        assert summary.metrics() == want
        whole = simulator.TrackingSummary(samples - 1, 1e-3, names)
        whole.add(values)
        assert whole.metrics() == want

    def test_network_run_memory_does_not_grow_with_samples_times_followers(self, chain_network):
        # 10^7 steps of 60 followers: T x N norms would be 4.8 GB, and a grid
        # of the sample times 80 MB; building the run and taking its first
        # block traces 2.4 MB, the network's matrices and a block of 311 x 422
        # samples, at 10^6 steps as at 10^7
        scenario, gains, _, _ = chain_network
        tracemalloc.start()
        try:
            run = network_run(scenario, gains, t_end=10_000.0, dt=1e-3)
            block = next(iter(run))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block.times) < 1000
        assert peak < 8 << 20, peak

    @pytest.mark.parametrize("svg", [False, True])
    def test_trajectory_csv_holds_one_block_at_a_time(self, tmp_path, monkeypatch, svg):
        # 200 paper agents on a chain, 1402 states: row blocks of 256 x 1402
        # samples, 2.9 MB each. The CSV writer, the `--svg` envelope, the run
        # and its integrator each let a block go before the next is
        # allocated, so no block is alive when the next is, and from the
        # second block on the traced memory grows by the block, its
        # followers' outputs and its table, never by a second block
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_payload(200)))
        scenario = cli.load_scenario(path)
        run = network_run(scenario, initial_gain_sets(cli.run_design(scenario)), t_end=1.0, dt=1e-3)
        blocks, alive, start = [], [], []
        empty = np.empty

        def tracked_empty(shape, *args, **kwargs):  # the blocks: 1 system x rows x 1402 states
            out = empty(shape, *args, **kwargs)
            if np.shape(shape) == (3,) and shape[2] == 1402:
                alive.append(sum(block() is not None for block in blocks))
                blocks.append(weakref.ref(out))
            return out

        def after_the_first(trajectories):
            trajectories = iter(trajectories)
            yield next(trajectories)
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
            yield from trajectories

        monkeypatch.setattr(np, "empty", tracked_empty)
        tracemalloc.start()
        try:
            passed = cli.error_envelope(run, *np.full((2, 1000, 200), np.nan)) if svg else run
            cli.write_trajectory_csv(tmp_path / "trajectory.csv", scenario, after_the_first(passed))
            peak = tracemalloc.get_traced_memory()[1] - start[0]
        finally:
            tracemalloc.stop()
        assert alive == [0, 0, 0, 0]  # 1001 samples: 257, 256, 256 and 232 rows
        assert peak < 1.5 * 256 * 1402 * 8, peak

    def test_error_envelope_memory_does_not_grow_with_samples_times_followers(self, chain_network):
        # the same run through the `simulate --svg` envelope: its first three
        # blocks fill column 0 of 1000, and the envelope is 2 x 1000 x 60
        # floats, 0.96 MB, at 10^7 steps as at any other horizon
        scenario, gains, _, _ = chain_network
        tracemalloc.start()
        try:
            run = network_run(scenario, gains, t_end=10_000.0, dt=1e-3)
            low, high = np.full((2, cli.SVG_COLUMNS, len(gains)), np.nan)
            blocks = cli.error_envelope(run, low, high)
            rows = sum(len(next(blocks).times) for _ in range(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows < 10_000 and (0 < low[0]).all() and (low[0] <= high[0]).all()
        assert np.isnan(low[1:]).all() and np.isnan(high[1:]).all()
        assert peak < 8 << 20, peak

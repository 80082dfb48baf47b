import re
import tracemalloc

import numpy as np
import pytest

import paper_tables
from networks import dense, graph_matrices, h_matrix, random_dag
from syncopt import cli, protocol
from syncopt.errors import NumericalError, ValidationError
from syncopt.numkernel import is_hurwitz
from syncopt.plant import AgentDynamics, LeaderModel
from syncopt.protocol import (
    build_augmented_plant,
    build_transform,
    design_compensator,
    initial_gains,
)
from syncopt.regulator import solve_regulator
from syncopt.topology import build_topology

SINGLE = build_topology(1, [(0, 1)])


def kron_residual(tf, design, topo, leader):
    """Frobenius residual of the defining identity in Kronecker form."""
    N, q = topo.n_followers, leader.q
    lam_h = design.alphas[:, None] * h_matrix(topo)
    return np.linalg.norm(
        np.kron(dense(tf.U, N), design.s_shifted) - np.kron(np.eye(N), leader.S)
        - np.kron(lam_h, np.eye(q)),
        "fro",
    )


def dense_transform(design, topo):
    """U = I - (Lambda H + (lambda_M + r) I) / r, dense, with H = A0 + Ls
    from the dense graph matrices, and c = U^{-1} 1 and h = H c by an LU
    solve."""
    N = topo.n_followers
    _, _, a0, ls = graph_matrices(topo)
    H = a0 + ls
    U = np.eye(N) - (design.alphas[:, None] * H + (design.lambda_M + design.r) * np.eye(N)) / design.r
    c = np.linalg.solve(U, np.ones(N))
    return U, c, H @ c


class TestDesignCompensator:
    def test_paper_alphas(self, paper_scenario):
        design = design_compensator(paper_scenario.leader, paper_scenario.topology, 1.0)
        assert np.array_equal(design.alphas, paper_tables.ALPHAS)
        assert design.lambda_M == pytest.approx(1.0)

    def test_single_follower(self):
        design = design_compensator(LeaderModel(S=[[0]], w0=[1]), SINGLE, 1.0)
        assert design.alphas[0] == pytest.approx(-1.0)

    def test_arithmetic(self):
        topo = build_topology(3, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)])
        design = design_compensator(LeaderModel(S=np.eye(2), w0=[1, 0]), topo, 2.0)
        assert np.allclose(design.alphas, [-3.0, -1.5, -1.0])

    def test_alpha_identity_exact(self, paper_scenario):
        design = design_compensator(paper_scenario.leader, paper_scenario.topology, 1.0)
        d = paper_scenario.topology.in_degrees[1:]
        assert np.abs(design.alphas * d + design.lambda_M + design.r).max() == 0.0

    def test_rejects_nonpositive_r(self, paper_scenario):
        with pytest.raises(ValidationError):
            design_compensator(paper_scenario.leader, paper_scenario.topology, 0.0)

    @pytest.mark.parametrize("edges, text", [
        ([(0, 1), (1, 2), (2, 1)], "('directed cycle among followers',)"),
        ([(0, 1)], "('followers unreachable from the leader: [2]',)"),
        ([(0, 1), (0, 2), (2, 0)], "('leader has incoming edges',)"),
    ])
    def test_rejects_a_graph_with_diagnostics(self, edges, text):
        with pytest.raises(ValidationError, match=f"^{re.escape('topology invalid: ' + text)}$"):
            design_compensator(LeaderModel(S=np.eye(2), w0=[1, 0]), build_topology(2, edges), 1.0)


class TestBuildTransform:
    def test_single_follower_trivial(self):
        leader = LeaderModel(S=[[0]], w0=[1])
        design = design_compensator(leader, SINGLE, 1.0)
        tf = build_transform(design, SINGLE, leader)
        assert np.array_equal(dense(tf.U, 1), np.eye(1))
        assert tf.c[0] == pytest.approx(1.0)
        assert tf.h[0] == pytest.approx(1.0)

    def test_paper_unit_lower_triangular(self, paper_scenario):
        leader, topo = paper_scenario.leader, paper_scenario.topology
        design = design_compensator(leader, topo, 1.0)
        tf = build_transform(design, topo, leader)
        U = dense(tf.U, 5)
        assert np.allclose(np.diag(U), 1.0)
        assert np.array_equal(U, np.tril(U))
        # defining identity holds by substitution
        lam_h = np.diag(design.alphas) @ h_matrix(topo)
        lhs = np.kron(U, design.s_shifted)
        rhs = np.kron(np.eye(5), leader.S) + np.kron(lam_h, np.eye(2))
        assert np.linalg.norm(lhs - rhs, "fro") < 1e-12

    def test_paper_coupling_scalars(self, paper_scenario):
        leader, topo = paper_scenario.leader, paper_scenario.topology
        design = design_compensator(leader, topo, 1.0)
        tf = build_transform(design, topo, leader)
        assert np.array_equal(tf.c, [1, 3, 3, 7, 15])
        assert np.array_equal(tf.h, [1, 2, 2, 8, 8])

    @pytest.mark.parametrize("S", [[[0, 1], [-1, 0]], [[0, 1], [0, 0]], [[1, 2], [0, -1]]])
    def test_nonscalar_leader_star_is_identity(self, S):
        # no follower->follower edge: H is diagonal and U = I exactly
        topo = build_topology(3, [(0, 1), (0, 2), (0, 3)])
        leader = LeaderModel(S=S, w0=[1, 0])
        tf = build_transform(design_compensator(leader, topo, 1.0), topo, leader)
        assert np.array_equal(dense(tf.U, 3), np.eye(3))
        assert tf.residual < 1e-12

    def test_near_scalar_leader_on_chain(self):
        # S scalar up to 1e-10: the off-diagonal blocks leave a residual far
        # below the tolerance, so the chain is still representable
        topo = build_topology(2, [(0, 1), (1, 2)])
        leader = LeaderModel(S=np.diag([1.0, 1.0 + 1e-10]), w0=[1, 0])
        design = design_compensator(leader, topo, 1.0)
        tf = build_transform(design, topo, leader)
        U = dense(tf.U, 2)
        assert np.array_equal(np.diag(U), [1.0, 1.0])
        assert U[1, 0] != 0.0
        assert tf.residual < 1e-9

    @pytest.mark.parametrize("case", ["paper", "random DAG, scalar S", "near-scalar chain"])
    def test_residual_is_the_kron_residual_without_kron(self, case, paper_scenario, monkeypatch):
        leader, topo, r = {
            "paper": (paper_scenario.leader, paper_scenario.topology, 1.0),
            "random DAG, scalar S": (LeaderModel(S=0.7 * np.eye(3), w0=[1, 0, 0]),
                                     random_dag(3, 12), 0.3),
            "near-scalar chain": (LeaderModel(S=np.diag([1.0, 1.0 + 1e-10]), w0=[1, 0]),
                                  build_topology(2, [(0, 1), (1, 2)]), 1.0),
        }[case]
        design = design_compensator(leader, topo, r)

        def refuse(*args, **kwargs):
            raise AssertionError("np.kron called")

        with monkeypatch.context() as mp:
            mp.setattr(protocol.np, "kron", refuse)
            tf = build_transform(design, topo, leader)
        want = kron_residual(tf, design, topo, leader)
        assert abs(tf.residual - want) <= 4 * np.spacing(want)
        assert (want > 0) == (case != "paper")

    @pytest.mark.parametrize("seed", range(6))
    def test_coupling_scalars_match_a_dense_lu_solve(self, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        topo = random_dag(seed, 30)
        q = int(rng.integers(1, 4))
        leader = LeaderModel(S=rng.uniform(0.0, 1.0) * np.eye(q), w0=np.ones(q))
        design = design_compensator(leader, topo, rng.uniform(0.2, 2.0))

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        with monkeypatch.context() as mp:
            mp.setattr(protocol.np.linalg, "solve", refuse)
            tf = build_transform(design, topo, leader)
        _, c, h = dense_transform(design, topo)
        assert np.abs(tf.c - c).max() <= 1e-12 * np.abs(c).max()
        assert np.abs(tf.h - h).max() <= 1e-12 * np.abs(h).max()

    @pytest.mark.parametrize("case", ["paper", "random DAG 0", "random DAG 1", "near-scalar chain"])
    def test_u_nonzeros_are_the_dense_closed_form(self, case, paper_scenario):
        # every listed nonzero holds the bits of the dense closed form, and
        # every entry it does not list is 0 there
        leader, topo, r = {
            "paper": (paper_scenario.leader, paper_scenario.topology, 1.0),
            "random DAG 0": (LeaderModel(S=0.7 * np.eye(2), w0=[1, 0]), random_dag(0, 25), 0.3),
            "random DAG 1": (LeaderModel(S=np.eye(1), w0=[1]), random_dag(1, 25), 1.7),
            "near-scalar chain": (LeaderModel(S=np.diag([1.0, 1.0 + 1e-10]), w0=[1, 0]),
                                  build_topology(2, [(0, 1), (1, 2)]), 1.0),
        }[case]
        design = design_compensator(leader, topo, r)
        tf = build_transform(design, topo, leader)
        rows, cols, vals = tf.U
        U, _, _ = dense_transform(design, topo)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(vals)
        assert vals.tobytes() == U[rows, cols].tobytes()
        assert dense(tf.U, topo.n_followers).tobytes() == U.tobytes()

    def test_topology_and_transform_memory_is_linear(self):
        # 2000 followers: a dense N x N float64 matrix is 32 MB; building the
        # graph and the transform must stay under a quarter of that
        n = 2000
        edges = random_dag(7, n).edges
        leader = LeaderModel(S=np.eye(2), w0=[1, 0])
        tracemalloc.start()
        try:
            topo = build_topology(n, edges)
            build_transform(design_compensator(leader, topo, 1.0), topo, leader)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, peak

    def test_nonscalar_leader_rejected(self):
        # with a nontrivial coupling the defining identity has no solution
        # for a non-scalar leader matrix
        topo = build_topology(2, [(0, 1), (1, 2)])
        leader = LeaderModel(S=[[0, 1], [0, 0]], w0=[1, 0])
        design = design_compensator(leader, topo, 1.0)
        with pytest.raises(NumericalError, match="not representable"):
            build_transform(design, topo, leader)


class TestBuildAugmentedPlant:
    def test_zero_coupling(self, paper_scenario, paper_bundle):
        _, ag = paper_scenario.agents[0]
        zeroed = AgentDynamics(
            A=ag.A, B=ag.B, C=ag.C, D=ag.D, E=np.zeros_like(ag.E), F=np.zeros_like(ag.F)
        )
        reg = solve_regulator(zeroed, paper_scenario.leader)
        design = paper_bundle.design
        tf = paper_bundle.transform
        plant = build_augmented_plant(zeroed, reg, design, tf, 1)
        assert np.allclose(plant.Phi, design.alphas[0] * tf.h[0] * reg.Pi)
        assert np.allclose(plant.Psi, 0)
        assert np.array_equal(plant.C, np.hstack([np.zeros((2, 2)), ag.C]))

    @pytest.mark.parametrize("index", [0, 6, [1, 6]])
    def test_rejects_a_follower_index_out_of_range(self, paper_scenario, paper_bundle, index):
        (_, ag), ad = paper_scenario.agents[0], paper_bundle.per_agent[0]
        with pytest.raises(ValueError, match=f"^{re.escape(f'follower index {index} out of range')}$"):
            build_augmented_plant(ag, ad.reg, paper_bundle.design, paper_bundle.transform, index)

    def test_paper_agent1_leader_block(self, paper_bundle):
        plant = paper_bundle.per_agent[0].plant
        assert np.array_equal(plant.A[:2, :2], -np.eye(2))
        assert np.array_equal(plant.A[:2, 2:], np.zeros((2, 3)))
        assert np.array_equal(plant.B[:2], np.zeros((2, 2)))

    def test_scalar_agent_by_hand(self):
        # S=1, r=1: shift = 2; Pi = 2/3, Gamma = 1/3; c = h = 1, alpha = -2
        ag = AgentDynamics(A=[[-1]], B=[[1]], C=[[1]], D=[[1]], E=[[1]], F=[[1]])
        leader = LeaderModel(S=[[1]], w0=[1])
        design = design_compensator(leader, SINGLE, 1.0)
        tf = build_transform(design, SINGLE, leader)
        reg = solve_regulator(ag, leader)
        plant = build_augmented_plant(ag, reg, design, tf, 1)
        # Phi = 1*1 + (-2)*1*(2/3) = -1/3; Psi = -1
        assert np.allclose(plant.A, [[-1, 0], [1 / 3, -1]])
        assert np.allclose(plant.C, [[1, 1]])
        assert np.array_equal(plant.D, ag.D)

    def test_block_structure(self, paper_scenario, paper_bundle):
        for (_, ag), ad in zip(paper_scenario.agents, paper_bundle.per_agent):
            plant = ad.plant
            assert np.array_equal(plant.A[2:, :2], -plant.Phi)
            assert np.array_equal(plant.A[2:, 2:], ag.A)
            assert np.array_equal(plant.C[:, :2], -plant.Psi)
            assert np.array_equal(plant.D, ag.D)


class TestInitialGains:
    def test_paper_agent1_k2(self, paper_bundle):
        gains = paper_bundle.per_agent[0].initial
        assert np.abs(gains.K2 - paper_tables.K2["agent1"]).max() < 1e-3
        assert gains.K2[0, 0] == pytest.approx(-3.4, abs=1e-3)

    def test_paper_agent4_k2(self, paper_bundle):
        gains = paper_bundle.per_agent[3].initial
        assert np.abs(gains.K2 - paper_tables.K2["agent4"]).max() < 1e-3

    def test_stable_agent_zero_k1(self):
        ag = AgentDynamics(A=[[-1]], B=[[1]], C=[[1]], D=[[1]], E=[[1]], F=[[1]])
        leader = LeaderModel(S=[[1]], w0=[1])
        reg = solve_regulator(ag, leader)
        gains = initial_gains(ag, reg, K1=np.zeros((1, 1)))
        assert np.allclose(gains.K2, -reg.Gamma)
        assert np.array_equal(gains.K3, np.zeros((1, 1)))

    def test_gain_identity(self, paper_bundle, paper_traces):
        optimal = cli.optimal_gain_sets(paper_bundle, paper_traces)
        for ad in paper_bundle.per_agent:
            for g in (ad.initial, optimal[ad.name]):
                res = np.linalg.norm(g.K1 @ ad.reg.Pi + g.K2 + ad.reg.Gamma, "fro")
                assert res < 1e-9 * (1 + np.linalg.norm(ad.reg.Gamma, "fro"))
                assert np.array_equal(g.Kic, np.hstack([g.K3, g.K1]))

    def test_augmented_loop_hurwitz(self, paper_bundle):
        for ad in paper_bundle.per_agent:
            assert is_hurwitz(ad.plant.A - ad.plant.B @ ad.initial.Kic)

    def test_rejects_destabilizing_k1(self, paper_scenario):
        _, ag = paper_scenario.agents[0]
        reg = solve_regulator(ag, paper_scenario.leader)
        with pytest.raises(ValidationError):
            initial_gains(ag, reg, K1=-10 * np.ones((2, 3)))

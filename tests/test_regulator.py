import numpy as np
import pytest

import paper_tables
from syncopt import regulator
from syncopt.plant import AgentDynamics, LeaderModel
from syncopt.regulator import _regulator_system, regulator_residual, solve_regulator


def test_paper_agent4(paper_scenario):
    _, ag = paper_scenario.agents[3]
    sol = solve_regulator(ag, paper_scenario.leader)
    assert np.abs(sol.Pi - paper_tables.PI["agent4"]).max() < 1e-3
    assert np.abs(sol.Gamma - paper_tables.GAMMA["agent4"]).max() < 1e-3


@pytest.mark.parametrize("idx", range(5))
def test_all_paper_agents_match_tables(paper_scenario, idx):
    name, ag = paper_scenario.agents[idx]
    sol = solve_regulator(ag, paper_scenario.leader)
    assert np.abs(sol.Pi - paper_tables.PI[name]).max() < 1e-3
    assert np.abs(sol.Gamma - paper_tables.GAMMA[name]).max() < 1e-3


def test_zero_maps_give_zero_solution(paper_scenario):
    _, ag = paper_scenario.agents[0]
    zeroed = AgentDynamics(
        A=ag.A, B=ag.B, C=ag.C, D=ag.D, E=np.zeros_like(ag.E), F=np.zeros_like(ag.F)
    )
    sol = solve_regulator(zeroed, paper_scenario.leader)
    assert np.allclose(sol.Pi, 0)
    assert np.allclose(sol.Gamma, 0)


def test_scalar_system_by_hand():
    # Pi*1 = -Pi + Gamma + 1 and 0 = Pi + Gamma - 1  =>  Pi = 2/3, Gamma = 1/3
    ag = AgentDynamics(A=[[-1]], B=[[1]], C=[[1]], D=[[1]], E=[[1]], F=[[1]])
    leader = LeaderModel(S=[[1]], w0=[1])
    sol = solve_regulator(ag, leader)
    assert sol.Pi[0, 0] == pytest.approx(2 / 3)
    assert sol.Gamma[0, 0] == pytest.approx(1 / 3)
    assert regulator_residual(ag, leader, sol.Pi, sol.Gamma) < 1e-12


def test_substitution_residual_bound(paper_scenario):
    for _, ag in paper_scenario.agents:
        sol = solve_regulator(ag, paper_scenario.leader)
        scale = 1 + np.linalg.norm(ag.E, "fro") + np.linalg.norm(ag.F, "fro")
        assert regulator_residual(ag, paper_scenario.leader, sol.Pi, sol.Gamma) < 1e-9 * scale


def test_deterministic_bitwise(paper_scenario):
    _, ag = paper_scenario.agents[2]
    a = solve_regulator(ag, paper_scenario.leader)
    b = solve_regulator(ag, paper_scenario.leader)
    assert np.array_equal(a.Pi, b.Pi)
    assert np.array_equal(a.Gamma, b.Gamma)


def test_nonsquare_rejected():
    ag = AgentDynamics(
        A=[[-1, 0], [0, -1]], B=[[1], [0]], C=[[1, 0], [0, 1]], D=[[1], [1]],
        E=[[0], [0]], F=[[1], [1]],
    )
    with pytest.raises(ValueError, match="p = m"):
        solve_regulator(ag, LeaderModel(S=[[1]], w0=[1]))


def kron_system(ag, S):
    """The regulator matrix by the `kron` formula of `solve_regulator`'s docstring."""
    iq, n = np.eye(len(S)), ag.n
    return np.block([[np.kron(iq, ag.A) - np.kron(S.T, np.eye(n)), np.kron(iq, ag.B)],
                     [np.kron(iq, ag.C), np.kron(iq, ag.D)]])


class TestRegulatorSystem:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_kron_formula(self, seed):
        # random orders, signed entries, a third of them exact zeros, and a signed zero
        rng = np.random.default_rng(seed)
        n, m, q = rng.integers(1, 9), rng.integers(1, 4), rng.integers(1, 5)

        def draw(*shape):
            a = rng.standard_normal(shape)
            a[rng.random(shape) < 1 / 3] = 0.0
            a.flat[-1] = -0.0
            return a

        ag = AgentDynamics(A=draw(n, n), B=draw(n, m), C=draw(m, n), D=draw(m, m),
                           E=draw(n, q), F=draw(m, q))
        S = draw(q, q)
        # equal floats have equal bits, except that 0.0 == -0.0 (see
        # numkernel._kronecker_sum)
        assert np.array_equal(_regulator_system(ag, S), kron_system(ag, S))

    def test_solve_needs_no_kron(self, paper_scenario, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.kron called")

        leader = paper_scenario.leader
        for _, ag in paper_scenario.agents:
            rhs = np.concatenate([-ag.E.flatten(order="F"), ag.F.flatten(order="F")])
            want = np.linalg.solve(kron_system(ag, leader.S), rhs)
            with monkeypatch.context() as patch:
                patch.setattr(regulator.np, "kron", refuse)
                got = solve_regulator(ag, leader)
            assert np.array_equal(got.Pi, want[: ag.n * leader.q].reshape((ag.n, -1), order="F"))
            assert np.array_equal(got.Gamma, want[ag.n * leader.q :].reshape((ag.m, -1), order="F"))

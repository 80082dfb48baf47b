import importlib.util
from pathlib import Path

import numpy as np
import pytest

from syncopt import cli, policy_iteration
from syncopt.errors import NumericalError
from syncopt.plant import RANK_RTOL, AgentDynamics, LeaderModel, check_assumptions
from syncopt.topology import build_topology


def scalar_agent(**overrides):
    base = dict(A=[[-1]], B=[[1]], C=[[1]], D=[[1]], E=[[1]], F=[[1]])
    base.update(overrides)
    return AgentDynamics(**base)


SCALAR_LEADER = LeaderModel(S=[[1]], w0=[1])
SINGLE = build_topology(1, [(0, 1)])


def test_paper_scenario_passes(paper_scenario):
    report = check_assumptions(
        paper_scenario.agents, paper_scenario.leader, paper_scenario.topology
    )
    assert report["passed"], report["diagnostics"]


def test_zero_feedthrough_fails():
    report = check_assumptions([("a", scalar_agent(D=[[0]]))], SCALAR_LEADER, SINGLE)
    assert not report["per_agent"]["a"]["feedthrough_invertible"]


@pytest.mark.parametrize("D", [
    [[1.5e-5, 0.0], [0.0, 40.0]],  # sigma(D^T D) = 1600, 2.25e-10: fails the relative bound only
    [[1e-6, 0.0], [0.0, 1e-6]],  # sigma = 1e-12 twice: fails the absolute bound only
    [[2e-5, 0.0], [0.0, 1.0]],  # sigma = 1, 4e-10: passes both
    [[1.0, 2.0], [0.5, 1.0]],  # rank one
])
def test_plant_checks_and_policy_iteration_share_the_gram_rule(D):
    ag = AgentDynamics(A=[[-1, 0], [0, -1]], B=np.eye(2), C=np.eye(2), D=D, E=np.zeros((2, 1)),
                       F=np.zeros((2, 1)))
    report = check_assumptions([("a", ag)], SCALAR_LEADER, SINGLE)
    try:
        policy_iteration._gram(ag)  # reads only D
        learnable = True
    except NumericalError:
        learnable = False
    assert report["per_agent"]["a"]["feedthrough_invertible"] == learnable


def test_unstabilizable_agent_fails():
    for A, B, first in [
        ([[0, 1], [0, 0]], [[0], [0]], "0"),
        # unstable eigenvalues 1 and 2; B reaches the first mode only, so the
        # batched test must report the later of the two
        ([[1, 0], [0, 2]], [[1], [0]], "2"),
    ]:
        ag = AgentDynamics(A=A, B=B, C=[[1, 1]], D=[[1]], E=[[0], [0]], F=[[1]])
        report = check_assumptions([("a", ag)], SCALAR_LEADER, SINGLE)
        assert not report["per_agent"]["a"]["stabilizable"]
        assert f"a: PBH fails at eigenvalue {first}" in report["diagnostics"]


def test_unobservable_agent_fails():
    ag = AgentDynamics(
        A=[[-1, 0], [0, -2]], B=[[1], [1]], C=[[1, 0]], D=[[1]], E=[[0], [0]], F=[[1]]
    )
    report = check_assumptions([("a", ag)], SCALAR_LEADER, SINGLE)
    assert not report["per_agent"]["a"]["observable"]


def bench_scenarios():
    """The benchmark's scenario generators (numpy only, no toolkit import)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("order", [11, 12])
def test_high_order_probe_plant_validates(order, tmp_path, capsys):
    # the benchmark's observability probe: PBH-observable plants whose
    # Kalman matrix C A^k spans too many magnitudes for a rank test
    sc = bench_scenarios()
    agent, _ = sc.random_plant(np.random.default_rng([7, order]), order, 1,
                               np.linalg.eigvals(np.asarray(sc.PAPER_LEADER_S)), 2,
                               abscissa=(-0.5, 0.5))
    agent = dict(agent, name="h1", x0=[0.0] * order, xi0=[0.0, 0.0])
    scenario = sc.make_scenario(sc.PAPER_LEADER_S, sc.PAPER_W0, 1, [[0, 1]], [agent], 2.0, 1e-3)
    path = sc.write_json(tmp_path / "probe.json", scenario)
    assert cli.main(["validate", str(path), "--out", str(tmp_path / "out")]) == 0, \
        capsys.readouterr().err


@pytest.mark.parametrize("order", [3, 12])
def test_mode_hidden_from_c_is_unobservable(order):
    # block-diagonal (A0, -0.7) with C blind to the last state, then an
    # orthogonal change of coordinates so no entry of C is zero
    rng = np.random.default_rng(order)
    a0 = rng.standard_normal((order - 1, order - 1))
    A = np.zeros((order, order))
    A[:-1, :-1] = a0 - (np.linalg.eigvals(a0).real.max() + 0.5) * np.eye(order - 1)
    A[-1, -1] = -0.7
    C = np.hstack([rng.standard_normal((1, order - 1)), np.zeros((1, 1))])
    T, _ = np.linalg.qr(rng.standard_normal((order, order)))
    ag = AgentDynamics(A=T @ A @ T.T, B=T @ rng.standard_normal((order, 1)), C=C @ T.T,
                       D=[[1.0]], E=np.zeros((order, 1)), F=[[1.0]])
    report = check_assumptions([("a", ag)], SCALAR_LEADER, SINGLE)
    assert not report["per_agent"]["a"]["observable"]
    assert "a: (A, C) not observable" in report["diagnostics"]


def test_stable_leader_flagged():
    report = check_assumptions([("a", scalar_agent())], LeaderModel(S=[[-1]], w0=[1]), SINGLE)
    assert not report["leader_unstable_modes"]


def test_rank_condition_transmission_zero():
    # zero at s = 1 blocks regulation against an S with eigenvalue 1:
    # [[A-1, B], [C, D]] = [[-2, 1], [1, -0.5]] is singular
    ag = scalar_agent(D=[[-0.5]])
    report = check_assumptions([("a", ag)], SCALAR_LEADER, SINGLE)
    assert not report["per_agent"]["a"]["rank_condition"]


def test_complex_leader_eigenvalues_handled():
    leader = LeaderModel(S=[[0, 1], [-1, 0]], w0=[1, 0])  # eigenvalues +/- i
    ag = AgentDynamics(
        A=[[-1, 0], [0, -1]], B=[[1, 0], [0, 1]], C=np.eye(2), D=np.eye(2),
        E=np.zeros((2, 2)), F=np.eye(2),
    )
    report = check_assumptions([("a", ag)], leader, SINGLE)
    assert report["per_agent"]["a"]["rank_condition"]


def test_pencil_that_overflows_counts_as_a_rank_drop():
    # the eigenvalues -1e308 and 1e308 are finite, but the entry -1e308 - 1e308
    # of A - lambda I is not: no rank test can pass there, and none warns
    ag = AgentDynamics(A=[[-1e308, 0], [0, 1e308]], B=np.eye(2), C=np.eye(2), D=np.eye(2),
                       E=np.zeros((2, 1)), F=np.zeros((2, 1)))
    report = check_assumptions([("a", ag)], SCALAR_LEADER, SINGLE)
    assert not report["per_agent"]["a"]["observable"] and not report["per_agent"]["a"]["stabilizable"]
    assert report["diagnostics"][:2] == ["a: (A, C) not observable", "a: PBH fails at eigenvalue 1e+308"]


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="matrix B"):
        AgentDynamics(A=[[-1]], B=[[1], [1]], C=[[1]], D=[[1]], E=[[1]], F=[[1]])


def test_report_deterministic(paper_scenario):
    a = check_assumptions(paper_scenario.agents, paper_scenario.leader, paper_scenario.topology)
    b = check_assumptions(paper_scenario.agents, paper_scenario.leader, paper_scenario.topology)
    assert a == b


def full_rank(M) -> bool:
    sv = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0])) == min(np.shape(M))


def reference_checks(ag: AgentDynamics, S) -> tuple:
    """(observable, stabilizable, rank_condition), one pencil and one SVD
    per eigenvalue."""
    eye = np.eye(ag.n)
    eigs = np.linalg.eigvals(ag.A)
    observable = all(full_rank(np.vstack([ag.A - lam * eye, ag.C])) for lam in eigs)
    stabilizable = all(full_rank(np.hstack([ag.A - lam * eye, ag.B]))
                       for lam in eigs if lam.real >= 0)
    rank_condition = ag.p == ag.m and all(
        full_rank(np.vstack([np.hstack([ag.A - lam * eye, ag.B]), np.hstack([ag.C, ag.D])]))
        for lam in np.linalg.eigvals(S)
    )
    return observable, stabilizable, rank_condition


@pytest.mark.parametrize("S", [
    [[0, 0], [0, 1]],  # real eigenvalues 0 and 1
    [[0, 1], [-1, 0]],  # eigenvalues +/- i
    [[1, 1], [0, 1]],  # eigenvalue 1, one Jordan block of size 2
], ids=["real", "complex", "defective"])
def test_batched_rank_tests_match_per_eigenvalue_reference(S):
    rng = np.random.default_rng(11)
    leader = LeaderModel(S=S, w0=[1, 0])
    fails = np.zeros(3, dtype=int)  # per flag
    for _ in range(300):
        n, m, p = rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 3)
        ag = AgentDynamics(A=rng.integers(-2, 3, (n, n)), B=rng.integers(-1, 2, (n, m)),
                           C=rng.integers(-1, 2, (p, n)), D=rng.integers(-1, 2, (p, m)),
                           E=np.zeros((n, 2)), F=np.zeros((p, 2)))
        checks = check_assumptions([("a", ag)], leader, SINGLE)["per_agent"]["a"]
        got = (checks["observable"], checks["stabilizable"], checks["rank_condition"])
        assert got == reference_checks(ag, leader.S), (ag, got)
        fails += np.logical_not(got)
    assert fails.min() > 10  # integer plants are often rank-deficient

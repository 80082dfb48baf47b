"""Per-agent output-regulator equations.

Solves the pair
    Pi S = A Pi + B Gamma + E
    0    = C Pi + D Gamma - F
for (Pi, Gamma) by a Kronecker-vectorized dense direct solve. The system is
square only when p = m; approximate least-squares regulation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .plant import AgentDynamics, LeaderModel

REG_RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class RegulatorSolution:
    Pi: np.ndarray  # n x q
    Gamma: np.ndarray  # m x q
    residual: float  # Frobenius norm of both equation residuals stacked


def regulator_residual(agent: AgentDynamics, leader: LeaderModel, Pi, Gamma) -> float:
    """Substitution residual of a candidate (Pi, Gamma) pair."""
    r1 = Pi @ leader.S - agent.A @ Pi - agent.B @ Gamma - agent.E
    r2 = agent.C @ Pi + agent.D @ Gamma - agent.F
    return float(np.sqrt(np.linalg.norm(r1, "fro") ** 2 + np.linalg.norm(r2, "fro") ** 2))


def solve_regulator(agent: AgentDynamics, leader: LeaderModel) -> RegulatorSolution:
    """Solve the regulator equations for one agent.

    Stacked linear system over [vec(Pi); vec(Gamma)]:
        [ I_q (x) A - S^T (x) I_n   I_q (x) B ]   [vec(Pi)   ]   [-vec(E)]
        [ I_q (x) C                 I_q (x) D ] * [vec(Gamma)] = [ vec(F)]
    """
    if agent.q != leader.q:
        raise ValueError(f"agent leader-order {agent.q} != leader order {leader.q}")
    if agent.p != agent.m:
        raise ValueError(
            f"regulator system is non-square for p={agent.p}, m={agent.m}; p = m required"
        )
    n, m, q = agent.n, agent.m, leader.q
    iq = np.eye(q)
    top = np.hstack([np.kron(iq, agent.A) - np.kron(leader.S.T, np.eye(n)), np.kron(iq, agent.B)])
    bottom = np.hstack([np.kron(iq, agent.C), np.kron(iq, agent.D)])
    lhs = np.vstack([top, bottom])
    rhs = np.concatenate([-agent.E.flatten(order="F"), agent.F.flatten(order="F")])

    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"regulator system singular (rank condition violated numerically): {exc}"
        ) from exc

    Pi = sol[: n * q].reshape((n, q), order="F")
    Gamma = sol[n * q :].reshape((m, q), order="F")
    with np.errstate(over="ignore"):  # a norm past the float range is infinite
        residual = regulator_residual(agent, leader, Pi, Gamma)
        scale = 1.0 + np.linalg.norm(agent.E, "fro") + np.linalg.norm(agent.F, "fro")
    if residual >= REG_RESIDUAL_RTOL * scale:
        raise NumericalError(
            f"regulator residual {residual:.3e} exceeds tolerance (ill-conditioned system)"
        )
    return RegulatorSolution(Pi=Pi, Gamma=Gamma, residual=residual)

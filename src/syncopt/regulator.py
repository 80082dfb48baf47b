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


def _regulator_system(agent: AgentDynamics, S: np.ndarray) -> np.ndarray:
    """The matrix [I_q (x) A - S^T (x) I_n, I_q (x) B; I_q (x) C, I_q (x) D]
    of the regulator equations, written in place: block (i, j) of the top
    left is delta_ij A - S[j, i] I, and the other three parts are block
    diagonal.

    Each entry is the same one- or two-term sum as the `kron` products give,
    less their products with zero, so every nonzero entry has the same bits;
    only the sign of a zero entry can differ.
    """
    n, m, p, q = agent.n, agent.m, agent.p, S.shape[0]
    nq = n * q
    M = np.zeros((nq + p * q, nq + m * q))
    for i in range(q):
        x, y, u = (slice(i * n, i * n + n), slice(nq + i * p, nq + i * p + p),
                   slice(nq + i * m, nq + i * m + m))
        M[x, x] = agent.A
        M[x, u] = agent.B
        M[y, x] = agent.C
        M[y, u] = agent.D
    # [i, j, k] -> M[i n + k, j n + k]: the diagonal of block (i, j) of the top left
    step, width = M.itemsize, M.shape[1]
    diagonals = np.ndarray((q, q, n), buffer=M,
                           strides=(n * width * step, n * step, (width + 1) * step))
    diagonals -= S.T[:, :, None]
    return M


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
    lhs = _regulator_system(agent, leader.S)
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

"""Distributed protocol construction: compensator gains alpha_i, the
zeta/varsigma transformation U with its coupling scalars, the augmented
per-agent plant, and stabilizing initial gain sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .numkernel import is_hurwitz, spectrum, stabilize
from .plant import AgentDynamics, LeaderModel
from .regulator import RegulatorSolution
from .topology import Topology, topological_order, validate_topology

TRANSFORM_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class CompensatorDesign:
    r: float  # decay-rate design constant, > 0
    lambda_M: float  # max real part of the leader spectrum
    alphas: np.ndarray  # per-follower coupling gain, alpha_i * d_i = -(lambda_M + r)
    s_shifted: np.ndarray  # S - (lambda_M + r) I_q, the local generator matrix


@dataclass(frozen=True)
class TransformU:
    U: tuple  # nonzeros (rows, cols, vals) of the N x N U, invertible
    c: np.ndarray  # c_i = T_i U^{-1} 1_N
    h: np.ndarray  # h_i = T_i H U^{-1} 1_N
    residual: float  # Frobenius residual of the defining identity


@dataclass(frozen=True)
class AugmentedPlant:
    A: np.ndarray  # (q+n) x (q+n)
    B: np.ndarray  # (q+n) x m
    C: np.ndarray  # p x (q+n)
    D: np.ndarray  # p x m
    Phi: np.ndarray  # n x q disturbance-coupling block
    Psi: np.ndarray  # p x q reference-coupling block

    @property
    def order(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class GainSet:
    K1: np.ndarray  # m x n, state feedback
    K2: np.ndarray  # m x q, compensator feedback; K1 Pi + K2 + Gamma = 0
    K3: np.ndarray  # m x q, local-generator feedback
    Kic: np.ndarray  # m x (q+n) = [K3, K1]

    @classmethod
    def from_kic(cls, Kic: np.ndarray, reg: RegulatorSolution) -> GainSet:
        """Split Kic = [K3, K1] and rebuild K2 from K1 Pi + K2 + Gamma = 0."""
        q = reg.Pi.shape[1]
        K1 = Kic[:, q:]
        with np.errstate(over="ignore", invalid="ignore"):  # a K2 past the float range is inf
            return cls(K1=K1, K2=-K1 @ reg.Pi - reg.Gamma, K3=Kic[:, :q], Kic=Kic)


def design_compensator(leader: LeaderModel, topo: Topology, r: float) -> CompensatorDesign:
    """Pick alpha_i = -(lambda_M + r) / d_i for every follower.

    lambda_M is the maximum real part of the leader spectrum (the leader
    matrix need not be symmetric), so alpha_i d_i + lambda_M = -r < 0 and the
    compensator error decays at rate r.
    """
    if r <= 0:
        raise ValidationError("design constant r must be positive")
    report = validate_topology(topo)
    if not report.passed:
        raise ValidationError(f"topology invalid: {report.diagnostics}")
    lam_m = spectrum(leader.S).max_real
    return CompensatorDesign(
        r=float(r),
        lambda_M=lam_m,
        alphas=-(lam_m + r) / topo.in_degrees[1:],
        s_shifted=leader.S - (lam_m + r) * np.eye(leader.q),
    )


def build_transform(design: CompensatorDesign, topo: Topology, leader: LeaderModel) -> TransformU:
    """Construct U mapping the stacked compensator error to the local
    zeta generators, plus the per-follower coupling scalars c_i and h_i.

    Defining identity (M := S - (lambda_M + r) I_q), block by block:
        U_ij M = delta_ij S + (Lambda H)_ij I_q, with H = A0 + Ls.
    Its closed form U = I - (Lambda H + (lambda_M + r) I) / r is nonzero
    only on the diagonal and at the follower edges j -> i (alpha_i / r). U
    is kept as those nonzeros, each the same float as in the dense form,
    and the residual is taken over their blocks; every other block is
    exactly zero. The off-diagonal blocks hold only when S is a multiple of
    I_q or no follower feeds another (U = I); any other case fails the
    residual check.

    In topological order U is unit lower triangular, so c = U^{-1} 1 and
    h = H c follow by substitution: c_i = (1 - (alpha_i / r) s_i) / U_ii and
    h_i = d_i c_i - s_i, with s_i the sum of c_j over the follower senders.
    """
    N = topo.n_followers
    r, alphas, d = design.r, design.alphas, topo.in_degrees[1:]
    # follower edges j -> i as 0-based (row i, column j), then the diagonal
    ij = [(i - 1, j - 1) for j, i in topo.edges if j > 0] + [(i, i) for i in range(N)]
    rows, cols = np.array(ij, dtype=int).T
    diag = rows == cols
    lam_h = np.where(diag, alphas[rows] * d[rows], -alphas[rows])
    u_diag = 1.0 - (alphas * d + (design.lambda_M + r)) / r
    vals = np.where(diag, u_diag[rows], alphas[rows] / r)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the residual check
        blocks = (vals[:, None, None] * design.s_shifted - diag[:, None, None] * leader.S
                  - lam_h[:, None, None] * np.eye(leader.q))
        residual = np.linalg.norm(blocks.ravel())
    if not residual < TRANSFORM_RESIDUAL_TOL:
        raise NumericalError(
            "transform not representable: the defining identity has no exact "
            f"solution for S = {leader.S.tolist()} (residual {residual:.3e})"
        )
    c, h = np.empty(N), np.empty(N)
    with np.errstate(all="ignore"):  # an overflow is reported below
        for i in topological_order(topo):
            s = sum(c[j - 1] for j in topo.senders[i] if j > 0)
            c[i - 1] = (1.0 - alphas[i - 1] / r * s) / u_diag[i - 1]
            h[i - 1] = d[i - 1] * c[i - 1] - s
    bad = np.flatnonzero(~(np.isfinite(c) & np.isfinite(h)))
    if bad.size:
        raise NumericalError(f"coupling scalars c, h overflow at follower {bad[0] + 1}: "
                             f"c = {c[bad[0]]:.3g}, h = {h[bad[0]]:.3g}")
    return TransformU(U=(rows, cols, vals), c=c, h=h, residual=float(residual))


def build_augmented_plant(
    agent: AgentDynamics,
    reg: RegulatorSolution,
    design: CompensatorDesign,
    transform: TransformU,
    follower_index: int,
) -> AugmentedPlant:
    """Assemble the stacked (zeta_i, xtilde_i) plant for one follower.

    follower_index is 1-based, matching the graph node numbering.
    """
    i = follower_index - 1
    if not (0 <= i < len(transform.c)):
        raise ValueError(f"follower index {follower_index} out of range")
    q = agent.q
    if design.s_shifted.shape != (q, q):
        raise ValueError(
            f"leader order {design.s_shifted.shape[0]} does not match agent coupling width {q}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        Phi = transform.c[i] * agent.E + design.alphas[i] * transform.h[i] * reg.Pi
        Psi = -transform.c[i] * agent.F
    if not (np.isfinite(Phi).all() and np.isfinite(Psi).all()):
        raise NumericalError("augmented plant has non-finite entries")
    A = np.block([
        [design.s_shifted, np.zeros((q, agent.n))],
        [-Phi, agent.A],
    ])
    B = np.vstack([np.zeros((q, agent.m)), agent.B])
    C = np.hstack([-Psi, agent.C])
    return AugmentedPlant(A=A, B=B, C=C, D=agent.D.copy(), Phi=Phi, Psi=Psi)


def initial_gains(agent: AgentDynamics, reg: RegulatorSolution, K1=None) -> GainSet:
    """Build a stabilizing initial gain set for one follower.

    K1 is synthesized when absent; either way A - B K1 must be Hurwitz.
    K2 follows from the regulator identity K1 Pi + K2 + Gamma = 0 and K3
    defaults to 0 (the closed augmented loop is block triangular, so any K3
    preserves stability). The gain set depends on the plant alone; see
    `check_augmented_loop` for the follower's closed augmented loop.
    """
    if K1 is None:
        K1 = stabilize(agent.A, agent.B)
    else:
        K1 = np.asarray(K1, dtype=float)
        if K1.shape != (agent.m, agent.n):
            raise ValueError(f"K1 has shape {K1.shape}, expected ({agent.m}, {agent.n})")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is not Hurwitz
            closed = agent.A - agent.B @ K1
        if not (np.isfinite(closed).all() and is_hurwitz(closed)):
            raise ValidationError("provided K1 does not make A - B K1 Hurwitz")
    gains = GainSet.from_kic(np.hstack([np.zeros((agent.m, agent.q)), K1]), reg)
    if not np.isfinite(gains.K2).all():
        raise NumericalError("K2 = -K1 Pi - Gamma has non-finite entries")
    return gains


def check_augmented_loop(plant: AugmentedPlant, gains: GainSet) -> None:
    """Re-verify that an initial gain set stabilizes one follower's closed
    augmented loop."""
    if not is_hurwitz(plant.A - plant.B @ gains.Kic):
        raise NumericalError("initial gain does not stabilize the augmented plant")

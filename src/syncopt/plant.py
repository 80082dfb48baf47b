"""Leader and follower data model plus machine checks of the standing
assumptions: observability, invertible feedthrough Gram, stabilizability,
non-negative leader modes, and the transmission-zero rank condition, which
needs p = m. The three PBH-type rank tests share one batched rank test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkernel import _eigvals
from .topology import Topology

RANK_RTOL = 1e-9  # singular values below RANK_RTOL * sigma_max count as zero
GRAM_TOL, GRAM_RTOL = 1e-10, 1e-12  # D^T D is invertible: sigma_min > max(GRAM_TOL, GRAM_RTOL sigma_max)
LEADER_EIG_TOL = -1e-10


@dataclass(frozen=True)
class AgentDynamics:
    """One follower: dx = A x + B u + E w, y = C x + D u, y_ref = F w."""

    A: np.ndarray  # n x n
    B: np.ndarray  # n x m
    C: np.ndarray  # p x n
    D: np.ndarray  # p x m
    E: np.ndarray  # n x q
    F: np.ndarray  # p x q

    def __post_init__(self):
        mats = [np.atleast_2d(np.asarray(getattr(self, name), dtype=float)) for name in "ABCDEF"]
        for name, M in zip("ABCDEF", mats):
            object.__setattr__(self, name, M)
        A, B, C, D, E, F = mats
        n, m, p, q = A.shape[0], B.shape[1], C.shape[0], E.shape[1]
        expect = ((n, n), (n, m), (p, n), (p, m), (n, q), (p, q))
        for name, M, shape in zip("ABCDEF", mats, expect):
            if M.shape != shape:
                raise ValueError(f"matrix {name} has shape {M.shape}, expected {shape}")
            if not np.isfinite(M).all():
                raise ValueError(f"matrix {name} has non-finite entries")

    @cached_property
    def key(self) -> tuple:
        """`plant_key` of (A, B, C, D, E, F), taken once."""
        return plant_key((self.A, self.B, self.C, self.D, self.E, self.F))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        return self.E.shape[1]


def plant_key(mats) -> tuple:
    """Shapes and bytes of a plant's six matrices (A, B, C, D, E, F): agents
    with equal keys have bitwise-equal plants, so every per-plant result is
    shared."""
    return tuple((M.shape, M.tobytes()) for M in mats)


@dataclass(frozen=True)
class LeaderModel:
    """Reference generator dw = S w, w(0) = w0."""

    S: np.ndarray  # q x q
    w0: np.ndarray  # q

    def __post_init__(self):
        object.__setattr__(self, "S", np.atleast_2d(np.asarray(self.S, dtype=float)))
        object.__setattr__(self, "w0", np.atleast_1d(np.asarray(self.w0, dtype=float)))
        q = self.S.shape[0]
        if self.S.shape != (q, q) or q < 1:
            raise ValueError(f"S must be square, got {self.S.shape}")
        if self.w0.shape != (q,):
            raise ValueError(f"w0 has shape {self.w0.shape}, expected ({q},)")
        if not (np.all(np.isfinite(self.S)) and np.all(np.isfinite(self.w0))):
            raise ValueError("leader model has non-finite entries")

    @property
    def q(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True)
class AgentChecks:
    observable: bool
    feedthrough_invertible: bool
    stabilizable: bool
    rank_condition: bool

    @property
    def passed(self) -> bool:
        return all(
            (self.observable, self.feedthrough_invertible, self.stabilizable, self.rank_condition)
        )


@dataclass(frozen=True)
class AssumptionReport:
    per_agent: dict  # name -> AgentChecks
    leader_unstable_modes: bool
    topology_ok: bool
    diagnostics: tuple

    @property
    def passed(self) -> bool:
        return (
            all(c.passed for c in self.per_agent.values())
            and self.leader_unstable_modes
            and self.topology_ok
        )


def check_assumptions(agents, leader: LeaderModel, topology: Topology) -> AssumptionReport:
    """Run all assumption checks on the full scenario.

    `agents` is a list of (name, AgentDynamics) pairs. The rank
    tests (observability, stabilizability, the rank condition at the leader
    eigenvalues) are each one batched complex SVD. Each distinct plant
    (see `AgentDynamics.key`) is checked once, and its checks and
    diagnostics are reported under every agent that has it, in order.
    """
    diagnostics = []
    per_agent = {}
    s_eigs = _eigvals(leader.S)
    checked = {}  # plant key -> (AgentChecks, diagnostic texts)

    for name, ag in agents:
        if ag.q != leader.q:
            raise ValueError(f"agent {name}: E/F column count {ag.q} != leader order {leader.q}")
        key = ag.key
        if key not in checked:
            checked[key] = _check_plant(ag, s_eigs)
        per_agent[name], texts = checked[key]
        diagnostics.extend(f"{name}: {text}" for text in texts)

    leader_ok = s_eigs.real.min() >= LEADER_EIG_TOL
    if not leader_ok:
        diagnostics.append("leader S has a strictly stable eigenvalue")

    diagnostics.extend(topology.diagnostics)

    return AssumptionReport(
        per_agent=per_agent,
        leader_unstable_modes=bool(leader_ok),
        topology_ok=not topology.diagnostics,
        diagnostics=tuple(diagnostics),
    )


def _rank_drops(M: np.ndarray, n: int, lams: np.ndarray) -> np.ndarray:
    """Which of `lams` make M - lam [I_n 0; 0 0] lose full rank, for M one of
    [A; C], [A, B] and [[A, B], [C, D]]: one batched SVD of the stacked complex
    pencils, full rank meaning sigma_min > RANK_RTOL * sigma_max."""
    pencils = np.repeat(M[None].astype(complex), len(lams), axis=0)
    pencils[:, :n, :n] -= lams[:, None, None] * np.eye(n)
    sv = np.linalg.svd(pencils, compute_uv=False)
    return ~(sv[:, -1] > RANK_RTOL * sv[:, 0])


def gram_invertible(gram: np.ndarray) -> bool:
    """Whether D^T D counts as invertible, in the plant checks and in PI."""
    sv = np.linalg.svd(gram, compute_uv=False)
    return bool(sv.size and sv[-1] > max(GRAM_TOL, GRAM_RTOL * sv[0]))


def _check_plant(ag: AgentDynamics, s_eigs: np.ndarray) -> tuple:
    """The checks of one plant against the leader eigenvalues `s_eigs`, and
    the text of each failed check, naming the first eigenvalue that fails."""
    n = ag.n
    texts = []
    eigs = _eigvals(ag.A)

    # PBH: [A - lambda I; C] has rank n at every eigenvalue lambda of A
    observable = not _rank_drops(np.vstack([ag.A, ag.C]), n, eigs).any()
    if not observable:
        texts.append("(A, C) not observable")

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        gram = ag.D.T @ ag.D
    finite = bool(np.isfinite(gram).all())
    feedthrough_invertible = finite and gram_invertible(gram)
    if not feedthrough_invertible:
        texts.append("D^T D numerically singular" if finite else "D^T D overflows the float range")

    # PBH: [A - lambda I, B] has rank n at every eigenvalue of A with Re >= 0
    ab = np.hstack([ag.A, ag.B])
    unstable = eigs[eigs.real >= 0]
    drops = _rank_drops(ab, n, unstable)
    stabilizable = not drops.any()
    if not stabilizable:
        texts.append(f"PBH fails at eigenvalue {unstable[drops.argmax()]:.4g}")

    # regulator condition: [[A - lambda I, B], [C, D]] is square (p = m, as the
    # regulator solve needs) and nonsingular at every eigenvalue lambda of S
    if ag.p != ag.m:
        rank_condition = False
        texts.append(f"rank condition needs p = m, got p = {ag.p}, m = {ag.m}")
    else:
        drops = _rank_drops(np.vstack([ab, np.hstack([ag.C, ag.D])]), n, s_eigs)
        rank_condition = not drops.any()
        if not rank_condition:
            texts.append(f"rank condition fails at leader eigenvalue {s_eigs[drops.argmax()]:.4g}")

    checks = AgentChecks(
        observable=observable,
        feedthrough_invertible=feedthrough_invertible,
        stabilizable=stabilizable,
        rank_condition=rank_condition,
    )
    return checks, texts

"""Policy iteration for the cross-term Riccati equation of the augmented
per-agent plant.

Policy evaluation is a Lyapunov solve for the cost of the current gain;
policy improvement is K = (D^T D)^{-1} (D^T C + B^T P). The improvement uses
the positive sign, which is the stationary point of the Hamiltonian with
u = -K X and the only reading under which the iteration's fixed point
satisfies the Riccati equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotHurwitzError, NumericalError
from .numkernel import _lyapunov_lockstep, lockstep
from .plant import gram_invertible
from .protocol import AugmentedPlant

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_ITER = 100
MONOTONE_EIG_TOL = -1e-9
ARE_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class PiIterate:
    k: int
    P: np.ndarray
    K: np.ndarray  # improved gain produced from P
    gain_delta: float  # ||K^[k+1] - K^[k]||_F
    lyap_residual: float
    abscissa: float  # max real part of the spectrum of A - B K for the evaluated gain


@dataclass(frozen=True)
class PiTrace:
    iterates: list[PiIterate] = field(default_factory=list)
    converged: bool = False
    are_residual_final: float = float("nan")

    @property
    def P(self) -> np.ndarray:
        return self.iterates[-1].P

    @property
    def K(self) -> np.ndarray:
        return self.iterates[-1].K


def _gram(plant: AugmentedPlant) -> np.ndarray:
    g = plant.D.T @ plant.D
    if not gram_invertible(g):
        raise NumericalError("D^T D numerically singular")
    return g


def policy_evaluation(plant: AugmentedPlant, K) -> tuple[np.ndarray, float, float]:
    """Cost matrix of the fixed gain K, its Lyapunov residual and the spectral
    abscissa of A - B K: solve the closed-loop Lyapunov equation with the
    tracking-error weight (C - D K)^T (C - D K). A gain that is not
    stabilizing is rejected with `NotHurwitzError`."""
    return tuple(x[0] for x in _evaluate(*_stack([plant]), np.array([K], dtype=float)))


def _stack(plants) -> tuple:
    return tuple(np.array([getattr(p, f) for p in plants]) for f in "ABCD")


def _evaluate(A, B, C, D, K) -> tuple:
    """`policy_evaluation` of each of a stack of gains on its plant, which
    raises at the first check any member fails; returns the stack of P and
    the lists of residuals and abscissae."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as not finite
        Cbar = C - D @ K
        Abar, Q = A - B @ K, Cbar.mT @ Cbar
    return _lyapunov_lockstep(Abar, Q)


def _are_residual(plant: AugmentedPlant, gram: np.ndarray, P: np.ndarray) -> float:
    """Frobenius norm of the cross-term Riccati residual at P."""
    cross = plant.D.T @ plant.C + plant.B.T @ P
    res = (
        plant.A.T @ P
        + P @ plant.A
        + plant.C.T @ plant.C
        - cross.T @ np.linalg.solve(gram, cross)
    )
    return float(np.linalg.norm(res, "fro"))


def run_pi(
    plant: AugmentedPlant,
    K0,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PiTrace:
    """Alternate evaluation and improvement from a stabilizing K0 until the
    gain update falls below epsilon.

    Records every iterate and enforces the convergence guarantees at runtime:
    each closed loop stays Hurwitz (its spectral abscissa, from the one
    eigenvalue decomposition the evaluation makes, is recorded), the cost
    matrices decrease monotonically (min-eigenvalue tolerance -1e-9), and
    the converged pair satisfies the Riccati equation within 1e-8 relative
    to the error weight. D^T D is checked once, before the first iterate.
    This is the one-member call of `run_pi_group`'s kernel.
    """
    return _pi_lockstep([plant], [K0], epsilon, max_iter)[0]


def run_pi_group(
    plants,
    K0s,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list:
    """`run_pi` from K0s[g] on each of the augmented plants of one shape
    (order, m, p), in lockstep (see `numkernel.lockstep`).

    Followers learn from their own plants alone, so each member keeps its
    own iterates and checks, and leaves the iteration when it converges. An
    iteration evaluates the members with one stacked eigenvalue
    decomposition, Kronecker solve and eigvalsh, tests their monotonicity
    with one eigvalsh and improves their gains with one solve; the norms
    are taken per member. A member that fails a check fails the stack, and
    every member is then run alone. Returns, per member, its PiTrace or the
    error `run_pi` raises for it, with the same bits and texts.
    """
    return lockstep(_pi_lockstep, (list(plants), list(K0s)), epsilon, max_iter)


def _pi_lockstep(plants, K0s, epsilon, max_iter) -> list:
    """The stacked iteration of `run_pi_group`, which raises at the first
    check any member fails."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    grams = [_gram(plant) for plant in plants]
    A, B, C, D = _stack(plants)
    gram = np.array(grams)
    K = np.array(K0s, dtype=float)
    iterates = [[] for _ in plants]
    live = list(range(len(plants)))  # the members that have not converged
    p_prev = None
    for k in range(max_iter):
        try:
            P, residuals, abscissa = _evaluate(A, B, C, D, K)
        except NotHurwitzError as exc:
            raise NumericalError(f"gain at iteration {k} is not stabilizing") from exc
        except ValueError as exc:  # a closed loop or cost weight that is not finite
            raise NumericalError(f"policy evaluation at iteration {k} failed: {exc}") from exc
        if p_prev is not None:
            for low in np.linalg.eigvalsh(p_prev - P).min(axis=1).tolist():
                if low < MONOTONE_EIG_TOL:
                    raise NumericalError(
                        f"cost monotonicity violated at iteration {k} (min-eig {low:.3e})"
                    )
        K_next = np.linalg.solve(gram, D.mT @ C + B.mT @ P)
        going = []
        for j, g in enumerate(live):
            delta = float(np.linalg.norm(K_next[j] - K[j], "fro"))
            iterates[g].append(PiIterate(k=k, P=P[j], K=K_next[j], gain_delta=delta,
                                         lyap_residual=residuals[j], abscissa=abscissa[j]))
            if not delta < epsilon:
                going.append(j)
        if not going:
            return [_converged(*member) for member in zip(plants, grams, iterates)]
        if len(going) < len(live):
            live = [live[j] for j in going]
            A, B, C, D, gram, K_next, P = (x[going] for x in (A, B, C, D, gram, K_next, P))
        K, p_prev = K_next, P
    raise NumericalError(f"policy iteration did not converge within {max_iter} iterations")


def _converged(plant: AugmentedPlant, gram: np.ndarray, iterates: list) -> PiTrace:
    """The trace of a member whose gain update fell below epsilon, after its
    Riccati fixed-point check."""
    final_res = _are_residual(plant, gram, iterates[-1].P)
    scale = 1.0 + np.linalg.norm(plant.C.T @ plant.C, "fro")
    if final_res >= ARE_RESIDUAL_RTOL * scale:
        raise NumericalError(f"converged gain fails the Riccati fixed-point check ({final_res:.3e})")
    return PiTrace(iterates=iterates, converged=True, are_residual_final=final_res)

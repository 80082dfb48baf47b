"""Policy iteration for the cross-term Riccati equation of the augmented
per-agent plant.

Policy evaluation is a Lyapunov solve for the cost of the current gain
(Kleinman, IEEE TAC 13(1), 1968), made for the gains of a whole lockstep
group by one stacked `numkernel.solve_lyapunov`; policy improvement is
K = (D^T D)^{-1} (D^T C + B^T P). The improvement uses the positive sign,
which is the stationary point of the Hamiltonian with u = -K X and the
only reading under which the iteration's fixed point satisfies the
Riccati equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHurwitzError, NumericalError
from .numkernel import solve_lyapunov
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
    iterates: list[PiIterate]
    converged: bool
    are_residual_final: float

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


def policy_evaluation(A, B, C, D, K) -> tuple:
    """Cost matrix of each of a stack of fixed gains K on its plant (A, B,
    C, D), its Lyapunov residual and the spectral abscissa of A - B K: one
    stacked `solve_lyapunov` of the closed loops with the tracking-error
    weights (C - D K)^T (C - D K), which raises at the first check any
    member fails. A gain that is not stabilizing is rejected with
    `NotHurwitzError`, and a closed loop or weight that is not finite with
    `ValueError`. Returns the stack of P and the lists of residuals and
    abscissae."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused as not finite
        Cbar = C - D @ K
        Abar, Q = A - B @ K, Cbar.mT @ Cbar
    return solve_lyapunov(Abar, Q)


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


def run_pi_group(
    plants,
    K0s,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list:
    """Policy iteration from the stabilizing K0s[g] on each of the augmented
    plants of one shape (order, m, p), in lockstep, until each gain update
    falls below epsilon; returns each member's PiTrace, with the bits of its
    run alone.

    Each member keeps its own iterates and leaves the iteration when it
    converges. Its checks enforce the convergence guarantees: D^T D is
    invertible (checked once), each closed loop is Hurwitz (its spectral
    abscissa is recorded), the costs decrease monotonically (min-eigenvalue
    tolerance -1e-9), and the converged pair satisfies the Riccati equation
    within 1e-8 relative to the error weight. An iteration makes one stacked
    eigvals, Kronecker solve and eigvalsh, one monotonicity eigvalsh and one
    improvement solve for all members. At the first check any member fails,
    the group raises the error that member alone would raise.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    grams = [_gram(plant) for plant in plants]
    A, B, C, D = (np.array([getattr(p, f) for p in plants]) for f in "ABCD")
    gram = np.array(grams)
    K = np.array(K0s, dtype=float)
    iterates = [[] for _ in plants]
    live = list(range(len(plants)))  # the members that have not converged
    p_prev = None
    for k in range(max_iter):
        try:
            P, residuals, abscissa = policy_evaluation(A, B, C, D, K)
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

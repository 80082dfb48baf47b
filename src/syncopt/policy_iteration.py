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
from .numkernel import solve_lyapunov
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
    sv = np.linalg.svd(g, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise NumericalError("D^T D numerically singular")
    return g


def policy_evaluation(plant: AugmentedPlant, K) -> tuple[np.ndarray, float, float]:
    """Cost matrix of the fixed gain K, its Lyapunov residual and the spectral
    abscissa of A - B K: solve the closed-loop Lyapunov equation with the
    tracking-error weight (C - D K)^T (C - D K). A gain that is not
    stabilizing is rejected with `NotHurwitzError`."""
    K = np.asarray(K, dtype=float)
    Cbar = plant.C - plant.D @ K
    return solve_lyapunov(plant.A - plant.B @ K, Cbar.T @ Cbar)


def _improve(plant: AugmentedPlant, gram: np.ndarray, P: np.ndarray) -> np.ndarray:
    return np.linalg.solve(gram, plant.D.T @ plant.C + plant.B.T @ P)


def policy_improvement(plant: AugmentedPlant, P) -> np.ndarray:
    """Greedy gain for the cost matrix P: K = (D^T D)^{-1} (D^T C + B^T P)."""
    return _improve(plant, _gram(plant), np.asarray(P, dtype=float))


def _are_residual(plant: AugmentedPlant, gram: np.ndarray, P: np.ndarray) -> float:
    cross = plant.D.T @ plant.C + plant.B.T @ P
    res = (
        plant.A.T @ P
        + P @ plant.A
        + plant.C.T @ plant.C
        - cross.T @ np.linalg.solve(gram, cross)
    )
    return float(np.linalg.norm(res, "fro"))


def are_residual(plant: AugmentedPlant, P) -> float:
    """Frobenius norm of the cross-term Riccati residual at P."""
    return _are_residual(plant, _gram(plant), np.asarray(P, dtype=float))


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
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")

    gram = _gram(plant)
    K = np.asarray(K0, dtype=float)
    iterates: list[PiIterate] = []
    p_prev = None
    for k in range(max_iter):
        try:
            P, lyap_res, abscissa = policy_evaluation(plant, K)
        except NotHurwitzError as exc:
            raise NumericalError(f"gain at iteration {k} is not stabilizing") from exc
        if p_prev is not None:
            drop = np.linalg.eigvalsh(p_prev - P).min()
            if drop < MONOTONE_EIG_TOL:
                raise NumericalError(
                    f"cost monotonicity violated at iteration {k} (min-eig {drop:.3e})"
                )
        p_prev = P
        K_next = _improve(plant, gram, P)
        delta = float(np.linalg.norm(K_next - K, "fro"))
        iterates.append(
            PiIterate(k=k, P=P, K=K_next, gain_delta=delta, lyap_residual=lyap_res, abscissa=abscissa)
        )
        if delta < epsilon:
            final_res = _are_residual(plant, gram, P)
            scale = 1.0 + np.linalg.norm(plant.C.T @ plant.C, "fro")
            if final_res >= ARE_RESIDUAL_RTOL * scale:
                raise NumericalError(
                    f"converged gain fails the Riccati fixed-point check ({final_res:.3e})"
                )
            return PiTrace(iterates=iterates, converged=True, are_residual_final=final_res)
        K = K_next

    raise NumericalError(f"policy iteration did not converge within {max_iter} iterations")

"""Independent numerical oracles used only by the test suite.

The Riccati oracle goes through the Hamiltonian matrix's stable invariant
subspace and never touches the policy-iteration code path it checks. The
RK4 oracle is the textbook four-stage loop, independent of the step-map
integrator it checks.
"""

import numpy as np

from syncopt.numkernel import is_hurwitz, stabilize
from syncopt.protocol import AugmentedPlant


def hamiltonian_are_solve(A, B, C, D):
    """Stabilizing solution of the cross-term Riccati equation.

    Cost integrand (Cx + Du)^T (Cx + Du) gives Q = C^T C, R = D^T D and
    cross term N = C^T D. After the standard change of input the Hamiltonian
    is assembled and P = X2 X1^{-1} from the stable eigenvectors.
    """
    A, B, C, D = (np.asarray(M, dtype=float) for M in (A, B, C, D))
    n = A.shape[0]
    R = D.T @ D
    Ncross = C.T @ D
    Rinv = np.linalg.inv(R)
    A_hat = A - B @ Rinv @ Ncross.T
    Q_hat = C.T @ C - Ncross @ Rinv @ Ncross.T
    H = np.block([[A_hat, -B @ Rinv @ B.T], [-Q_hat, -A_hat.T]])
    eigvals, eigvecs = np.linalg.eig(H)
    stable = eigvals.real < 0
    if stable.sum() != n:
        raise RuntimeError(f"Hamiltonian has {stable.sum()} stable eigenvalues, expected {n}")
    V = eigvecs[:, stable]
    P = V[n:] @ np.linalg.inv(V[:n])
    P = P.real
    return (P + P.T) / 2


def random_stabilizable_plant(rng, min_order=2, max_order=5):
    """Random plant with invertible D^T D, a mild spectral abscissa, and a
    moderate stabilizing initial gain.

    The shift keeps the open loop at most mildly unstable so the synthesized
    gain (and hence the first cost matrix) stays well scaled.
    """
    n = int(rng.integers(min_order, max_order + 1))
    m = int(rng.integers(1, 3))
    p = m + int(rng.integers(0, 2))
    while True:
        A = rng.standard_normal((n, n))
        A -= (np.linalg.eigvals(A).real.max() - rng.uniform(-0.5, 0.3)) * np.eye(n)
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        if np.linalg.svd(D, compute_uv=False).min() < 0.3:
            continue
        K0 = stabilize(A, B)
        if is_hurwitz(A - B @ K0, margin=1e-6):
            plant = AugmentedPlant(
                A=A, B=B, C=C, D=D, Phi=np.zeros((n, 1)), Psi=np.zeros((p, 1))
            )
            return plant, K0


def rk4_loop(M, y0, steps, dt, limit=np.inf):
    """Textbook four-stage RK4 for dy = M y over `steps` steps of `dt`.

    Returns the samples, one row per step from y0 on. It stops after the
    first sample whose largest magnitude exceeds `limit`, so a returned
    array shorter than steps + 1 rows ends at that sample.
    """
    M = np.asarray(M, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    out = [y]
    for _ in range(steps):
        k1 = M @ y
        k2 = M @ (y + 0.5 * dt * k1)
        k3 = M @ (y + 0.5 * dt * k2)
        k4 = M @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
        if np.abs(y).max() > limit:
            break
    return np.array(out)

"""Dense linear-algebra kernels: spectra, Hurwitz tests, Lyapunov solves,
stabilizing-gain synthesis.

All routines are pure functions on numpy arrays and are safe to call
concurrently. Sizes here are desk-scale (orders up to ~10), so Lyapunov
equations are solved exactly by Kronecker vectorization rather than a
Schur-based method. The Kronecker sum is written in place into one zeroed
array, each input of a solve is validated once, and the solve's one
eigenvalue decomposition of Abar gives both its Hurwitz check and the
spectral abscissa it returns, so policy iteration needs no spectrum of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHurwitzError, NumericalError

LYAP_RESIDUAL_RTOL = 1e-9
PSD_EIG_TOL = -1e-9
# Bytes of the Kronecker sums that one stacked Lyapunov solve may hold.
_STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (with multiplicity) of a square real matrix."""

    values: np.ndarray  # complex, length = matrix order
    max_real: float


def _as_square(A, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def _eigvals(A: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def spectrum(A) -> Spectrum:
    """All eigenvalues of a square real matrix and their maximum real part."""
    vals = _eigvals(_as_square(A))
    return Spectrum(values=vals, max_real=float(vals.real.max()))


def abscissae(A: np.ndarray) -> np.ndarray:
    """Spectral abscissa (max real part of the spectrum) of each of a stack of
    finite square matrices, by one stacked eigenvalue decomposition."""
    return _eigvals(A).real.max(axis=-1)


def is_hurwitz(A, margin: float = 0.0) -> bool:
    """True iff every eigenvalue of A has real part < -margin."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    return spectrum(A).max_real < -margin


def lockstep(run, stacks: tuple, *args) -> list:
    """The outcome of `run(*stacks, *args)` for each member: `run` works on
    stacks of members of one shape in lockstep and returns, per member, a
    result or the error that member's own run would raise.

    numpy computes a stacked call by each member's own LAPACK or BLAS call,
    but fails the whole stack when one member fails, and the run then
    raises. Each member is then run on its own, so that a failure costs the
    members nothing, and a lone member's raised error is its outcome.
    """
    try:
        return run(*stacks, *args)
    except (np.linalg.LinAlgError, NumericalError) as exc:
        if len(stacks[0]) == 1:
            return [exc]
        return [lockstep(run, tuple(s[g : g + 1] for s in stacks), *args)[0]
                for g in range(len(stacks[0]))]


def sole(outcomes: list):
    """The result of a one-member lockstep run, or its error, raised."""
    (out,) = outcomes
    if isinstance(out, Exception):
        raise out
    return out


def undecided(outcomes: list) -> np.ndarray:
    """Indices of the members whose outcome is still open (None)."""
    return np.array([g for g, out in enumerate(outcomes) if out is None], dtype=int)


def _kronecker_sum(A: np.ndarray) -> np.ndarray:
    """The matrix kron(I, A^T) + kron(A^T, I) of vec(A^T P + P A), written in
    place, for one matrix A or each of a stack: block (i, j) is
    delta_ij A^T + A[j, i] I.

    Each entry is the same one- or two-term sum as the two `kron` products
    give, less their products with zero, so every nonzero entry has the same
    bits; only the sign of a zero entry can differ.
    """
    *lead, n, _ = A.shape
    nn = n * n
    M = np.zeros((*lead, nn, nn))
    step = M.itemsize
    one = nn * nn * step  # bytes of one member
    At = A.mT.reshape(-1, n, n)
    # [g, i, j, k] -> M[g, i n + k, j n + k]: the A[j, i] I of block (i, j)
    scalars = np.ndarray((len(At), n, n, n), buffer=M,
                         strides=(one, n * nn * step, n * step, (nn + 1) * step))
    # [g, i, k, l] -> M[g, i n + k, i n + l]: the A^T of diagonal block (i, i)
    blocks = np.ndarray((len(At), n, n, n), buffer=M,
                        strides=(one, (n * nn + n) * step, nn * step, step))
    scalars[...] = At[:, :, :, None]
    blocks += At[:, None]
    return M


def solve_lyapunov(Abar, Q) -> tuple[np.ndarray, float, float]:
    """Solve Abar^T P + P Abar + Q = 0 for symmetric PSD P.

    Abar must be Hurwitz and Q symmetric PSD; both are checked, Abar by one
    eigenvalue decomposition. The solve is a dense Kronecker vectorization,
    and the result is re-symmetrized and verified by substitution. Returns
    P, the Frobenius norm of that substitution residual, and the spectral
    abscissa of Abar that was tested. A non-Hurwitz Abar raises
    `NotHurwitzError`. This is the one-member call of
    `solve_lyapunov_stack`.
    """
    Abar = _as_square(Abar, "Abar")
    Q = _as_square(Q, "Q")
    if Abar.shape != Q.shape:
        raise ValueError(f"shape mismatch: Abar {Abar.shape} vs Q {Q.shape}")
    return sole(solve_lyapunov_stack(Abar[None], Q[None]))


def solve_lyapunov_stack(Abar: np.ndarray, Q: np.ndarray) -> list:
    """`solve_lyapunov` for a stack of G equations of one order, in lockstep
    (see `lockstep`): one eigenvalue decomposition, one Kronecker solve and
    one eigvalsh call for the stack, in batches whose Kronecker sums fit in
    _STACK_BYTES. Returns, per member, (P, residual, abscissa) or the error
    `solve_lyapunov` raises for it, with the same bits and texts."""
    per = max(1, _STACK_BYTES // (8 * Abar.shape[-1] ** 4))
    out = []
    for b in range(0, len(Abar), per):
        out += lockstep(_lyapunov_lockstep, (Abar[b : b + per], Q[b : b + per]))
    return out


def _lyapunov_lockstep(Abar: np.ndarray, Q: np.ndarray) -> list:
    out = [None] * len(Abar)
    live = range(len(Abar))

    def symmetric():
        return np.abs(Q - Q.mT).max(axis=(1, 2)) <= 1e-12

    finite = np.isfinite(Abar).all(axis=(1, 2)) & np.isfinite(Q).all(axis=(1, 2))
    if finite.all():
        valid = symmetric()
    else:
        with np.errstate(invalid="ignore"):  # inf - inf, in a member that is not finite
            valid = finite & symmetric()
    if not valid.all():
        for g in np.flatnonzero(~valid):
            out[g] = ValueError("Abar has non-finite entries" if not np.isfinite(Abar[g]).all()
                                else "Q has non-finite entries" if not np.isfinite(Q[g]).all()
                                else "Q is not symmetric within 1e-12")
        live = undecided(out)
        Abar, Q = Abar[live], Q[live]

    abscissa = abscissae(Abar).tolist()
    hurwitz = [j for j, a in enumerate(abscissa) if a < 0]
    if len(hurwitz) < len(abscissa):
        for j, a in enumerate(abscissa):
            if not a < 0:
                out[live[j]] = NotHurwitzError("Abar is not Hurwitz; Lyapunov equation rejected")
        live, abscissa = [live[j] for j in hurwitz], [abscissa[j] for j in hurwitz]
        if not live:
            return out
        Abar, Q = Abar[hurwitz], Q[hurwitz]

    G, n = Abar.shape[:2]
    vec_q = Q.mT.reshape(G, n * n, 1)  # each Q in column order
    try:
        vec_p = np.linalg.solve(_kronecker_sum(Abar), -vec_q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"vectorized Lyapunov system singular: {exc}") from exc
    P = vec_p.reshape(G, n, n).mT
    P = (P + P.mT) / 2.0

    # 2-D norms: a norm over a stack would sum in another order
    sub = Abar.mT @ P + P @ Abar + Q
    accurate = []
    for j in range(G):
        qnorm = np.linalg.norm(Q[j], "fro")
        residual = float(np.linalg.norm(sub[j], "fro"))
        if residual >= LYAP_RESIDUAL_RTOL * (1.0 + qnorm):
            out[live[j]] = NumericalError(
                f"Lyapunov residual {residual:.3e} exceeds tolerance for ||Q||={qnorm:.3e}"
            )
        else:
            accurate.append((j, residual))
    if len(accurate) < G:
        P = P[[j for j, _ in accurate]]
    least = np.linalg.eigvalsh(P).min(axis=1)
    for (j, residual), low, p in zip(accurate, least.tolist(), P):
        out[live[j]] = (
            NumericalError("Lyapunov solution is not PSD within tolerance") if low < PSD_EIG_TOL
            else (p, residual, abscissa[j])
        )
    return out


def stabilize(A, B) -> np.ndarray:
    """Return K such that A - B K is Hurwitz.

    If A is already Hurwitz, K = 0. Otherwise a Lyapunov-shift (Bass-style)
    construction is used: with beta = ||A||_F + 1, solve
    (A + beta I) W + W (A + beta I)^T = 2 B B^T and take K = B^T W^{-1}.
    The closed loop is re-verified; failure raises with a request to supply
    K explicitly.
    """
    A = _as_square(A)
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError(f"B shape {B.shape} incompatible with A {A.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("B has non-finite entries")

    n, m = B.shape
    if is_hurwitz(A):
        return np.zeros((m, n))

    beta = np.linalg.norm(A, "fro") + 1.0
    shifted = -(A + beta * np.eye(n)).T  # Hurwitz by construction of beta
    try:
        W = solve_lyapunov(shifted, 2.0 * B @ B.T)[0]
        K = B.T @ np.linalg.inv(W)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        raise NumericalError(
            "gain synthesis failed (pair may not be controllable); "
            f"supply a stabilizing K explicitly: {exc}"
        ) from exc
    if not is_hurwitz(A - B @ K):
        raise NumericalError(
            "synthesized gain does not stabilize the pair; "
            "supply a stabilizing K explicitly"
        )
    return K

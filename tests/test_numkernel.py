import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lyapunov
from syncopt import numkernel
from syncopt.errors import NotHurwitzError, NumericalError
from syncopt.numkernel import abscissae, is_hurwitz, solve_lyapunov, stabilize


class TestSpectrum:
    """Spectral abscissae, of one matrix and of a stack."""

    def test_identity(self):
        assert abscissae(np.eye(2)) == 1
        assert abscissae(np.stack([np.eye(2), -2 * np.eye(2)])).tolist() == [1, -2]

    def test_leader_matrix_max_real(self, paper_scenario):
        # S = I_2 of the bundled scenario: lambda_M = 1
        assert float(abscissae(paper_scenario.leader.S)) == pytest.approx(1.0)

    def test_companion_matrix(self):
        # characteristic polynomial l^2 + 3l + 2 = (l+1)(l+2)
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        assert sorted(np.linalg.eigvals(a).real) == pytest.approx([-2, -1])
        assert float(abscissae(a)) == pytest.approx(-1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-10, 10), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_triangular_spectrum_is_diagonal(self, rows):
        a = np.triu(np.array(rows))
        assert float(abscissae(a)) == pytest.approx(np.diag(a).max(), abs=1e-8)
        assert np.array_equal(abscissae(np.stack([a, a.T])), [abscissae(a), abscissae(a.T)])


class TestIsHurwitz:
    def test_negative_identity(self):
        assert is_hurwitz(-np.eye(3), 0.0)

    def test_nilpotent_is_not(self):
        assert not is_hurwitz([[0, 1], [0, 0]], 0.0)

    def test_margin(self):
        assert is_hurwitz(-2 * np.eye(2), margin=1.0)
        assert not is_hurwitz(-0.5 * np.eye(2), margin=1.0)

    def test_paper_initial_closed_loop(self, paper_scenario):
        name, ag = paper_scenario.agents[0]
        k1 = paper_scenario.k1_override[name]
        assert is_hurwitz(ag.A - ag.B @ k1)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
            is_hurwitz(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite entries"):
            is_hurwitz([[np.nan, 0], [0, 1]])


class TestSolveLyapunov:
    def test_negative_identity(self):
        p, _, _ = lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(p, 0.5 * np.eye(2))

    def test_decoupled_scalars(self):
        p, _, _ = lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(p, np.diag([0.5, 0.25]))

    def test_random_residual(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(4)
        g = rng.standard_normal((4, 4))
        q = g @ g.T
        p, _, _ = lyapunov(a, q)
        res = np.linalg.norm(a.T @ p + p @ a + q, "fro")
        assert res < 1e-9 * (1 + np.linalg.norm(q, "fro"))
        assert np.array_equal(p, p.T)

    # the refusals below are of stacks of one
    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitzError, match="^Abar is not Hurwitz"):
            solve_lyapunov(np.eye(2)[None], np.eye(2)[None])

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="^Q is not symmetric within 1e-12$"):
            solve_lyapunov(-np.eye(2)[None], np.array([[[1.0, 1.0], [0.0, 1.0]]]))

    def test_rejects_a_weight_whose_frobenius_norm_overflows(self):
        # every entry finite and Q symmetric, but ||Q||_F is inf: the
        # residual's tolerance 1e-9 (1 + ||Q||_F) would be inf and pass any P
        with pytest.raises(ValueError, match="^Q has a Frobenius norm past the float range$"):
            solve_lyapunov(-np.eye(2)[None], np.full((1, 2, 2), 1e160))
        # the second member of a stack: refused as that member alone is
        with pytest.raises(ValueError, match="^Q has a Frobenius norm past the float range$"):
            solve_lyapunov(-np.stack([np.eye(2)] * 2), np.stack([np.eye(2), np.full((2, 2), 1e160)]))

    def test_rejects_indefinite_solution(self):
        # Hurwitz A, symmetric indefinite Q: P = diag(1/2, -1/2)
        with pytest.raises(NumericalError, match="not PSD"):
            solve_lyapunov(-np.eye(2)[None], np.diag([1.0, -1.0])[None])

    def test_rejects_a_solution_past_the_float_range(self):
        # finite and Hurwitz, but the Kronecker solve overflows: P holds NaN
        # and inf, and the residual that measures it is NaN
        with pytest.raises(NumericalError, match="Lyapunov residual nan exceeds tolerance"):
            solve_lyapunov(np.array([[[-1.0, 1e160], [0.0, -2.0]]]), np.eye(2)[None])

    @pytest.mark.parametrize("abar, q, text", [
        (-np.eye(2), np.eye(2), "Abar must be a (G, n, n) stack, got shape (2, 2)"),
        (-np.ones((1, 2, 3)), np.ones((1, 2, 3)), "Abar must be a (G, n, n) stack, got shape (1, 2, 3)"),
        (-np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2)),
         "Abar must be a (G, n, n) stack, got shape (1, 1, 2, 2)"),
        (-np.eye(2)[None], np.eye(3)[None], "shape mismatch: Abar (1, 2, 2) vs Q (1, 3, 3)"),
        (-np.stack([np.eye(2)] * 2), np.eye(2)[None], "shape mismatch: Abar (2, 2, 2) vs Q (1, 2, 2)"),
        (-np.eye(2)[None], np.eye(2), "shape mismatch: Abar (1, 2, 2) vs Q (2, 2)"),
    ])
    def test_rejects_anything_but_one_stack_of_square_matrices(self, abar, q, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            solve_lyapunov(abar, q)

    def test_cross_oracle_with_hurwitz(self):
        # stability of A <-> the Lyapunov solve with Q = I succeeds and is PSD
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.1, 1.0)) * np.eye(3)
            assert is_hurwitz(a)
            p, _, _ = lyapunov(a, np.eye(3))
            assert np.linalg.eigvalsh(p).min() > 0


class TestKroneckerSum:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_the_kron_formula(self, n):
        # signed entries, a third of them exact zeros, and a signed zero
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a[rng.random((n, n)) < 1 / 3] = 0.0
        a[0, -1] = -0.0
        want = np.kron(np.eye(n), a.T) + np.kron(a.T, np.eye(n))
        got = numkernel._kronecker_sum(a)
        # equal floats have equal bits, except that 0.0 == -0.0: the kron
        # products give -0.0 where a zero factor meets a negative entry, and
        # the in-place sum, which forms no such product, may give +0.0
        assert np.array_equal(got, want)

    def test_solve_needs_no_kron(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.kron called")

        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(4)
        g = rng.standard_normal((4, 4))
        want = lyapunov(a, g @ g.T)
        monkeypatch.setattr(numkernel.np, "kron", refuse)
        got = lyapunov(a, g @ g.T)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


class TestStabilize:
    def test_already_stable_returns_zero(self):
        k = stabilize(-np.eye(2), np.ones((2, 1)))
        assert np.array_equal(k, np.zeros((1, 2)))

    def test_scalar_unstable(self):
        k = stabilize(np.array([[1.0]]), np.array([[1.0]]))
        assert 1.0 - k[0, 0] < 0

    def test_paper_agent4(self, paper_scenario):
        _, ag = paper_scenario.agents[3]
        k = stabilize(ag.A, ag.B)
        assert is_hurwitz(ag.A - ag.B @ k)

    def test_random_pairs_verified(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, 2))
            k = stabilize(a, b)
            assert is_hurwitz(a - b @ k)

    @pytest.mark.parametrize("b, text", [
        (np.ones((3, 1)), "B shape (3, 1) incompatible with A (2, 2)"),
        (np.ones(2), "B shape (2,) incompatible with A (2, 2)"),
        (np.array([[1.0], [np.nan]]), "B has non-finite entries"),
        (np.array([[np.inf], [1.0]]), "B has non-finite entries"),
    ])
    def test_rejects_a_misshapen_or_non_finite_b(self, b, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            stabilize(np.eye(2), b)

    def test_uncontrollable_unstabilizable_errors(self):
        # unstable mode with no input authority
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(NumericalError):
            stabilize(a, b)

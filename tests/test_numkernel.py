import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncopt import numkernel
from syncopt.errors import NumericalError
from syncopt.numkernel import is_hurwitz, solve_lyapunov, spectrum, stabilize


class TestSpectrum:
    def test_identity(self):
        s = spectrum(np.eye(2))
        assert sorted(s.values.real) == [1, 1]
        assert s.max_real == 1

    def test_leader_matrix_max_real(self):
        # S = I_2 of the bundled scenario: lambda_M = 1
        assert spectrum(np.eye(2)).max_real == pytest.approx(1.0)

    def test_companion_matrix(self):
        # characteristic polynomial l^2 + 3l + 2 = (l+1)(l+2)
        s = spectrum([[0, 1], [-2, -3]])
        assert sorted(s.values.real) == pytest.approx([-2, -1])
        assert np.abs(s.values.imag).max() == pytest.approx(0.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectrum(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectrum([[np.nan, 0], [0, 1]])

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
        vals = np.sort_complex(spectrum(a).values)
        assert np.allclose(vals, np.sort_complex(np.diag(a).astype(complex)), atol=1e-8)


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


class TestSolveLyapunov:
    def test_negative_identity(self):
        p, _, _ = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(p, 0.5 * np.eye(2))

    def test_decoupled_scalars(self):
        p, _, _ = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(p, np.diag([0.5, 0.25]))

    def test_random_residual(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(4)
        g = rng.standard_normal((4, 4))
        q = g @ g.T
        p, _, _ = solve_lyapunov(a, q)
        res = np.linalg.norm(a.T @ p + p @ a + q, "fro")
        assert res < 1e-9 * (1 + np.linalg.norm(q, "fro"))
        assert np.array_equal(p, p.T)

    def test_rejects_unstable(self):
        with pytest.raises(NumericalError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite_solution(self):
        # Hurwitz A, symmetric indefinite Q: P = diag(1/2, -1/2)
        with pytest.raises(NumericalError, match="not PSD"):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))

    def test_rejects_a_solution_past_the_float_range(self):
        # finite and Hurwitz, but the Kronecker solve overflows: P holds NaN
        # and inf, and the residual that measures it is NaN
        with pytest.raises(NumericalError, match="Lyapunov residual nan exceeds tolerance"):
            solve_lyapunov(np.array([[-1.0, 1e160], [0.0, -2.0]]), np.eye(2))

    def test_cross_oracle_with_hurwitz(self):
        # stability of A <-> the Lyapunov solve with Q = I succeeds and is PSD
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.1, 1.0)) * np.eye(3)
            assert is_hurwitz(a)
            p, _, _ = solve_lyapunov(a, np.eye(3))
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
        want = solve_lyapunov(a, g @ g.T)
        monkeypatch.setattr(numkernel.np, "kron", refuse)
        got = solve_lyapunov(a, g @ g.T)
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

    def test_uncontrollable_unstabilizable_errors(self):
        # unstable mode with no input authority
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(NumericalError):
            stabilize(a, b)

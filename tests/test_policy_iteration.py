import numpy as np
import pytest

from helpers import are_residual, policy_evaluation, policy_improvement, run_pi
from oracles import hamiltonian_are_solve, random_stabilizable_plant
from syncopt import policy_iteration
from syncopt.errors import NumericalError
from syncopt.numkernel import abscissae
from syncopt.protocol import AugmentedPlant


def scalar_plant(a=-1.0, b=1.0, c=1.0, d=1.0):
    return AugmentedPlant(
        A=np.array([[a]]), B=np.array([[b]]), C=np.array([[c]]), D=np.array([[d]]),
        Phi=np.zeros((1, 1)), Psi=np.zeros((1, 1)),
    )


class TestPolicyEvaluation:
    def test_zero_cost_gain(self):
        # K = 1 cancels the output exactly: Q = (c - d*k)^2 = 0
        p, _, _ = policy_evaluation(scalar_plant(), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_scalar_hand_solve(self):
        # closed loop -1, Q = 1: -2p + 1 = 0
        p, _, _ = policy_evaluation(scalar_plant(), np.array([[0.0]]))
        assert p[0, 0] == pytest.approx(0.5)

    def test_paper_agent1_residual(self, paper_bundle):
        ad = paper_bundle.per_agent[0]
        p, reported, abscissa = policy_evaluation(ad.plant, ad.initial.Kic)
        abar = ad.plant.A - ad.plant.B @ ad.initial.Kic
        cbar = ad.plant.C - ad.plant.D @ ad.initial.Kic
        q = cbar.T @ cbar
        res = np.linalg.norm(abar.T @ p + p @ abar + q, "fro")
        assert res < 1e-9 * (1 + np.linalg.norm(q, "fro"))
        assert reported == res
        assert abscissa == float(abscissae(abar)) < 0

    def test_rejects_destabilizing_gain(self):
        with pytest.raises(NumericalError):
            policy_evaluation(scalar_plant(a=1.0), np.array([[0.0]]))


class TestPolicyImprovement:
    def test_zero_everything(self):
        plant = scalar_plant(c=0.0)
        assert policy_improvement(plant, np.zeros((1, 1)))[0, 0] == pytest.approx(0.0)

    def test_scalar_arithmetic(self):
        k = policy_improvement(scalar_plant(a=0.0), np.zeros((1, 1)))
        assert k[0, 0] == pytest.approx(1.0)
        # resulting closed loop 0 - 1*1 is Hurwitz
        assert 0.0 - k[0, 0] < 0

    def test_singular_gram_rejected(self):
        with pytest.raises(NumericalError):
            policy_improvement(scalar_plant(d=0.0), np.zeros((1, 1)))


class TestAreResidual:
    def test_zero(self):
        assert are_residual(scalar_plant(c=0.0), np.zeros((1, 1))) == pytest.approx(0.0)

    def test_scalar_hand(self):
        # a=-1,b=c=d=1, P=0: |0 + 1 - 1| = 0
        assert are_residual(scalar_plant(), np.zeros((1, 1))) == pytest.approx(0.0)

    def test_converged_paper_traces(self, paper_bundle, paper_traces):
        for ad in paper_bundle.per_agent:
            assert are_residual(ad.plant, paper_traces[ad.name].P) < 1e-8


class TestRunPi:
    def test_scalar_are_by_hand(self):
        # a=0: ARE reads (1+p)^2 = 1 with roots 0 and -2; PSD root p*=0, k*=1
        trace = run_pi(scalar_plant(a=0.0), np.array([[2.0]]), epsilon=1e-10)
        assert trace.converged
        assert trace.P[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert trace.K[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_fixed_point_single_step(self):
        trace = run_pi(scalar_plant(a=0.0), np.array([[1.0]]))
        assert len(trace.iterates) == 1
        assert trace.iterates[0].gain_delta < 1e-10

    def test_paper_agents_converge(self, paper_bundle, paper_traces):
        for ad in paper_bundle.per_agent:
            trace = paper_traces[ad.name]
            assert trace.converged
            assert len(trace.iterates) <= 20
            assert trace.are_residual_final < 1e-8

    def test_iterates_monotone_and_hurwitz(self, paper_traces):
        for trace in paper_traces.values():
            assert all(it.abscissa < 0 for it in trace.iterates)
            for prev, cur in zip(trace.iterates, trace.iterates[1:]):
                assert np.linalg.eigvalsh(prev.P - cur.P).min() >= -1e-9

    def test_initial_gain_independence(self):
        rng = np.random.default_rng(99)
        plant, k0 = random_stabilizable_plant(rng, max_order=4)
        t1 = run_pi(plant, k0)
        # different stabilizing start: nudge toward the improved gain
        k0_alt = 0.5 * (k0 + t1.iterates[0].K)
        t2 = run_pi(plant, k0_alt)
        assert np.linalg.norm(t1.K - t2.K, "fro") < 1e-8

    def test_matches_hamiltonian_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            plant, k0 = random_stabilizable_plant(rng, max_order=4)
            trace = run_pi(plant, k0)
            p_ref = hamiltonian_are_solve(plant.A, plant.B, plant.C, plant.D)
            assert np.linalg.norm(trace.P - p_ref, "fro") < 1e-6

    def test_nonstabilizing_k0_rejected(self):
        with pytest.raises(NumericalError, match="gain at iteration 0 is not stabilizing"):
            run_pi(scalar_plant(a=1.0), np.array([[0.0]]))

    def test_rising_cost_rejected(self, monkeypatch):
        # a = -1: the cost of the gain K is (1 - K)^2 / (2 (1 + K)). K0 = 0
        # costs 1/2; the stabilizing K = 5 costs 4/3. Evaluating K = 5 in place
        # of the improved gain makes the cost rise at iteration 1.
        evaluate, gains = policy_iteration.policy_evaluation, []

        def costlier(A, B, C, D, K):
            gains.append(K)
            return evaluate(A, B, C, D, np.array([[[5.0]]]) if len(gains) == 2 else K)

        monkeypatch.setattr(policy_iteration, "policy_evaluation", costlier)
        with pytest.raises(NumericalError, match="cost monotonicity violated at iteration 1"):
            run_pi(scalar_plant(), np.array([[0.0]]))

    def test_singular_gram_rejected(self):
        # K0 = 2 stabilizes a = -1, but D = 0 leaves D^T D singular
        with pytest.raises(NumericalError, match="D\\^T D numerically singular"):
            run_pi(scalar_plant(d=0.0), np.array([[2.0]]))

    @pytest.mark.parametrize("epsilon, max_iter, text", [
        (0.0, 100, "epsilon must be positive"),
        (-1e-6, 100, "epsilon must be positive"),
        (1e-6, 0, "max_iter must be positive"),
    ])
    def test_rejects_a_nonpositive_tolerance_or_iteration_cap(self, epsilon, max_iter, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            run_pi(scalar_plant(), np.array([[0.0]]), epsilon=epsilon, max_iter=max_iter)

    def test_max_iter_exhaustion(self):
        rng = np.random.default_rng(5)
        plant, k0 = random_stabilizable_plant(rng)
        with pytest.raises(NumericalError, match="did not converge"):
            run_pi(plant, k0, epsilon=1e-16, max_iter=2)


class TestRunPiWork:
    def test_paper_agents_need_no_kron(self, paper_bundle, paper_traces, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", refuse)
        for ad in paper_bundle.per_agent:
            trace = run_pi(ad.plant, ad.initial.Kic)
            want = paper_traces[ad.name]
            assert len(trace.iterates) == len(want.iterates)
            assert np.array_equal(trace.P, want.P) and np.array_equal(trace.K, want.K)

    def test_one_spectrum_per_iterate_one_gram_per_run(self, paper_bundle, monkeypatch):
        eigvals, gram, counts = np.linalg.eigvals, policy_iteration._gram, {"eig": 0, "gram": 0}

        def counting_eigvals(a):
            counts["eig"] += 1
            return eigvals(a)

        def counting_gram(plant):
            counts["gram"] += 1
            return gram(plant)

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        monkeypatch.setattr(policy_iteration, "_gram", counting_gram)
        for ad in paper_bundle.per_agent:
            counts.update(eig=0, gram=0)
            trace = run_pi(ad.plant, ad.initial.Kic)
            assert counts == {"eig": len(trace.iterates), "gram": 1}

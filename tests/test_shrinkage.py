"""Estimator constructors and data-driven weight selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svshrink import linalg, risk, shrinkage
from svshrink.errors import DegenerateSpectrumError, DomainError, NumericalError, ParameterError
from svshrink.experiments import FitMethod, Observation, fit_estimator, parse_estimator_tag
from svshrink.linalg import SvdFactorization
from svshrink.models import Gamma, Gaussian, Poisson

from helpers import grid_argmin, rank_one_positive, spiked_signal


def synthetic_fact(sigmas, n=None, m=None) -> SvdFactorization:
    """Factorization with the requested spectrum and canonical vectors."""
    sigmas = np.asarray(sigmas, dtype=float)
    k = len(sigmas)
    n = n or k
    m = m or k
    return SvdFactorization(sigmas, np.eye(n)[:, :k], np.eye(m)[:, :k])


def risk_score(y, fact, model, objective, rng=None):
    """The score a fit of ``objective`` searches: the risk estimate's value."""
    evaluate = risk.make_risk_objective(y, fact, model, objective, rng=rng)
    return lambda fn: evaluate(fn).value


def weight_score(y, fact, model, objective, rng=None, floor=None):
    """The score a weighted fit searches: the risk estimate of the map of a
    weight vector."""
    score = risk_score(y, fact, model, objective, rng)
    return lambda w: score(linalg.weights_function(w, floor))


class TestApply:
    """Estimates of fitted spectral estimators, through ``fit_estimator`` and
    ``linalg.reconstruct``."""

    def test_soft_threshold_zero_is_identity(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((6, 4))
        fact = linalg.svd(y)
        fn = linalg.soft_threshold_function(0.0)
        np.testing.assert_allclose(linalg.reconstruct(fact, fn), y, atol=1e-12)

    def test_full_rank_pca_is_identity(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((5, 7))
        fact = linalg.svd(y)
        method = FitMethod("pca", active="all", rank=5)
        fn, info = fit_estimator(method, Observation(y, fact, Gaussian(1.0)), rng)
        assert info["active_set"] == [1, 2, 3, 4, 5]
        np.testing.assert_allclose(linalg.reconstruct(fact, fn), y, atol=1e-12)

    def test_threshold_above_top_gives_zero(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((4, 4))
        fact = linalg.svd(y)
        fn = linalg.soft_threshold_function(fact.singular_values[0] + 1.0)
        np.testing.assert_array_equal(linalg.reconstruct(fact, fn), np.zeros((4, 4)))

    def test_clamp_floor(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((4, 4))
        fact = linalg.svd(y)
        method = FitMethod("pca", active="all", rank=4)
        fn, _ = fit_estimator(method, Observation(y, fact, Gamma(3.0), clamp_floor=1e-2), rng)
        assert fn.clamp_floor == 1e-2
        assert linalg.reconstruct(fact, fn).min() >= 1e-2


class TestWeightsGaussian:
    def test_vanishing_noise_gives_unit_weights(self):
        rng = np.random.default_rng(4)
        fact = linalg.svd(rng.standard_normal((8, 10)))
        weights = shrinkage.weights_gaussian(fact, tau=1e-12)
        np.testing.assert_array_equal(weights, np.ones(8))

    def test_dominant_spike_approximation(self):
        # With sigma_1 far above a well-separated tail the pair terms tend to
        # one, so w_1 ~ 1 - tau^2 (1 + 2 (k - 1)) / sigma_1^2 on a square matrix.
        sigmas = np.array([50.0, 2.0, 1.5, 1.0, 0.5])
        fact = synthetic_fact(sigmas)
        tau = 0.3
        weights = shrinkage.weights_gaussian(fact, tau, active_set=[1])
        approx = 1.0 - tau**2 * (1 + 2 * 4) / 50.0**2
        assert weights[0] == pytest.approx(approx, abs=1e-5)

    def test_matches_per_coordinate_grid_argmin(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((7, 9))
        fact = linalg.svd(y)
        tau = 0.4
        fitted = shrinkage.weights_gaussian(fact, tau)
        s = fact.singular_values

        def sure_at(k, w):
            weights = fitted.copy()
            weights[k - 1] = w
            values = weights * s
            derivs = weights.copy()
            est = linalg.compose(fact, values)
            div = risk.divergence_closed_form(fact, values, derivs)
            return risk.sure_gaussian(y, est, tau, div).value

        for k in (1, 3, 7):
            best = grid_argmin(lambda w: sure_at(k, w), 0.0, 1.0, 1e-4)
            assert abs(fitted[k - 1] - best) <= 1e-4 + 1e-12

    def test_inactive_indices_absent(self):
        fact = synthetic_fact([5.0, 3.0, 1.0])
        weights = shrinkage.weights_gaussian(fact, 0.2, active_set=[1, 3])
        assert weights.shape == (3,)
        assert weights[1] == 0.0
        assert weights[0] > 0.0 and weights[2] > 0.0

    def test_monotone_in_leading_value(self):
        tail = [2.0, 1.5, 1.0, 0.5]
        tau = 0.25
        previous = -1.0
        for top in np.linspace(3.0, 20.0, 12):
            fact = synthetic_fact([top] + tail)
            w = shrinkage.weights_gaussian(fact, tau, active_set=[1])[0]
            assert w >= previous - 1e-12
            previous = w

    def test_degenerate_spectrum_raises(self):
        fact = synthetic_fact([2.0, 2.0, 1.0])
        with pytest.raises(DegenerateSpectrumError):
            shrinkage.weights_gaussian(fact, 0.3, active_set=[1])


class TestWeight1GammaSukls:
    def test_large_shape_limit_on_exact_rank_one(self):
        # Y exactly rank one and positive: the ratio sum equals m n, so the
        # bracket tends to 1 and the weight to 1 as L grows.
        y = rank_one_positive(12, 9, 10.0)
        fact = linalg.svd(y)
        w = shrinkage.weight1_gamma_sukls(y, fact, 1e7)
        assert w == pytest.approx(1.0, abs=1e-5)

    def test_requires_positive_observations(self):
        y = np.ones((3, 3))
        y[1, 1] = 0.0
        with pytest.raises(DomainError):
            shrinkage.weight1_gamma_sukls(y, synthetic_fact([1.0, 0.5, 0.2]), 3.0)

    def test_requires_shape_above_two(self):
        y = np.ones((2, 2)) + np.eye(2)
        with pytest.raises(ParameterError):
            shrinkage.weight1_gamma_sukls(y, linalg.svd(y), 2.0)

    def test_tied_leading_value_names_the_pair(self):
        # A positive matrix has a simple leading singular value, but this one
        # is tied with the second to working precision: 1 + e and 1 - e.
        y = np.array([[1.0, 1e-14], [1e-14, 1.0]])
        fact = linalg.svd(y)
        assert fact.tie_mask[0]
        with pytest.raises(DegenerateSpectrumError, match="singular values 1 and 2 coincide"):
            shrinkage.weight1_gamma_sukls(y, fact, 5.0)

    def test_matches_numeric_minimizer(self):
        # Closed form against a one-dimensional bounded minimization of the
        # synthesis-KL estimate on a rank-one Gamma instance.
        L = 3.0
        x = rank_one_positive(40, 40, 40.0)
        model = Gamma(L)
        gaps = []
        for i in range(6):
            y = model.sample(x, np.random.default_rng(np.random.SeedSequence([6, i])))
            fact = linalg.svd(y)
            s = fact.singular_values
            closed = shrinkage.weight1_gamma_sukls(y, fact, L)

            def sukls_of(w):
                values = np.zeros_like(s)
                values[0] = w * s[0]
                derivs = np.zeros_like(s)
                derivs[0] = w
                est = linalg.compose(fact, values)
                div = risk.divergence_closed_form(fact, values, derivs)
                return risk.sukls_gamma(y, est, L, div).value

            numeric = shrinkage.minimize_bounded(sukls_of, 0.0, 1.0, xatol=1e-8)
            gaps.append(abs(closed - numeric))
        assert np.median(gaps) < 1e-3


class TestWeight1Poisson:
    def test_ratio_capped_at_one(self):
        y = np.array([[4.0, 2.0], [2.0, 1.0]])  # exactly rank one, sum 9
        fact = linalg.svd(y)
        assert shrinkage.weight1_poisson_pukla(y, fact) == 1.0

    def test_direct_ratio(self):
        # Scale the rank-one estimate so its total is 125 against 100 counts.
        y = np.array([[4.0, 2.0], [2.0, 1.0]]) * 4  # rank one, total 36
        fact = linalg.svd(y)
        scaled = SvdFactorization(
            fact.singular_values * 125.0 / 36.0, fact.left_vectors, fact.right_vectors
        )
        y_counts = y / 36.0 * 100.0
        y_counts = np.round(y_counts)  # 11,6,6,3 -> adjust to reach 100 exactly
        y_counts[0, 0] += 100 - y_counts.sum()
        w = shrinkage.weight1_poisson_pukla(y_counts, scaled)
        assert w == pytest.approx(100.0 / 125.0, rel=1e-12)

    def test_degenerate_rank_one_total(self):
        fact = synthetic_fact([0.0, 0.0])
        with pytest.raises(DomainError):
            shrinkage.weight1_poisson_pukla(np.zeros((2, 2)), fact)

    def test_matches_exact_analysis_kl_minimizer(self):
        x = rank_one_positive(15, 10, 55.0)
        y = Poisson().sample(x, np.random.default_rng(7))
        fact = linalg.svd(y)
        closed = shrinkage.weight1_poisson_pukla(y, fact)

        def pukla_of(w):
            def values(s):
                out = np.zeros_like(s)
                out[0] = w * s[0]
                return out

            def derivs(s):
                out = np.zeros_like(s)
                out[0] = w
                return out

            fn = linalg.SpectralFunction(values, derivs, 1e-6)
            return risk.pukla_poisson(y, fn, mode="exact").value

        numeric = shrinkage.minimize_bounded(pukla_of, 0.0, 1.0, xatol=1e-9, maxiter=500)
        assert abs(closed - numeric) < 1e-6


class TestWeight1PoissonPureExact:
    """The leading weight that minimizes the exact PURE of the rank-one map
    ``w sigma_1 u_1 v_1^T``, found by a bounded search over every one-count
    downdate."""

    @staticmethod
    def exact_minimizer(y):
        fact = linalg.svd(y)

        def pure_of(w):
            weights = np.zeros(fact.rank_bound)
            weights[0] = w
            return risk.pure_poisson(y, linalg.weights_function(weights), mode="exact", fact=fact).value

        return shrinkage.minimize_bounded(pure_of, 0.0, 1.0, xatol=1e-9, maxiter=500)

    def test_hand_enumeration_single_count(self):
        # Y = [[2,0],[0,0]]: the only downdate is at (0,0) and leaves [[1,0],[0,0]],
        # whose top singular triple is (1, e1, e1).  PURE is 4 w^2 - 2 * 2 * w,
        # minimized at 2 * 1 * 1 * 1 / sigma_1^2 = 2 / 4.
        y = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert abs(self.exact_minimizer(y) - 0.5) < 1e-6

    def test_hand_enumeration_count_three(self):
        y = np.array([[3.0, 0.0], [0.0, 0.0]])
        assert abs(self.exact_minimizer(y) - 2.0 / 3.0) < 1e-6

    def test_close_to_approx_pure_minimizer(self):
        x = rank_one_positive(15, 10, 55.0)
        y = Poisson().sample(x, np.random.default_rng(8))
        exact = self.exact_minimizer(y)
        fact = linalg.svd(y)
        score = weight_score(y, fact, Poisson(), "pure", np.random.default_rng(9), 1e-6)
        weights = shrinkage.optimize_weights_greedy(fact, score, [1])
        assert abs(weights[0] - exact) <= 0.05 * max(exact, 1e-12)


class TestGreedyWeights:
    def test_matches_gaussian_closed_form(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((8, 6))
        tau = 0.35
        fact = linalg.svd(y)
        closed = shrinkage.weights_gaussian(fact, tau)
        score = weight_score(y, fact, Gaussian(tau), "sure")
        greedy = shrinkage.optimize_weights_greedy(fact, score, range(1, 7))
        for k in range(6):
            assert greedy[k] == pytest.approx(closed[k], abs=1e-4)

    def test_empty_active_set(self):
        y = np.random.default_rng(11).standard_normal((4, 4))
        fact = linalg.svd(y)
        weights = shrinkage.optimize_weights_greedy(fact, weight_score(y, fact, Gaussian(0.5), "sure"), [])
        np.testing.assert_array_equal(weights, np.zeros(4))

    def test_gamma_rank_one_matches_closed_form(self):
        L = 3.0
        x = rank_one_positive(25, 20, 25.0)
        y = Gamma(L).sample(x, np.random.default_rng(12))
        fact = linalg.svd(y)
        closed = shrinkage.weight1_gamma_sukls(y, fact, L)
        score = weight_score(y, fact, Gamma(L), "sukls", np.random.default_rng(13), 1e-6)
        greedy = shrinkage.optimize_weights_greedy(fact, score, [1])
        assert greedy[0] == pytest.approx(closed, abs=1e-4)

    @pytest.mark.parametrize("model, objective", [(Gamma(3.0), "sukls"), (Poisson(), "pukla")])
    def test_rank_one_closed_forms_draw_no_probes(self, model, objective):
        # The fit builds its risk objective, which draws probes only when
        # first evaluated; the closed form evaluates none, so the rng is
        # left as it was for whatever reads it next.
        y = model.sample(rank_one_positive(15, 10, 55.0), np.random.default_rng(30))
        rng = np.random.default_rng(31)
        before = rng.bit_generator.state
        method = FitMethod("weighted", objective=objective, active="all", rank=1)
        _, info = fit_estimator(method, Observation(y, linalg.svd(y), model), rng)
        assert info["active_set"] == [1]
        assert rng.bit_generator.state == before

    def test_objective_errors_keep_type(self):
        # An exception of the score passes through: one from outside the
        # package unchanged, a package error with its type kept and the
        # weight index added to its message.
        class CodedError(Exception):
            def __init__(self, code, msg):
                super().__init__(msg)
                self.code = code

        def coded(weights):
            raise CodedError(7, "boom")

        def out_of_domain(weights):
            raise DomainError("estimate left the domain")

        fact = linalg.svd(np.random.default_rng(20).standard_normal((4, 4)))
        with pytest.raises(CodedError) as info:
            shrinkage.optimize_weights_greedy(fact, coded, [1])
        assert info.value.code == 7
        assert str(info.value) == "boom"
        with pytest.raises(DomainError, match="weight index 2: estimate left the domain"):
            shrinkage.optimize_weights_greedy(fact, out_of_domain, [2])


class TestSoftThresholdFit:
    def test_noiseless_low_rank_gives_tiny_threshold(self):
        rng = np.random.default_rng(14)
        u, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        y = (u * [5.0, 4.0, 3.0]) @ v.T
        fact = linalg.svd(y)
        lam = shrinkage.soft_threshold_fit(fact, risk.soft_threshold_sure(fact, 1e-12))
        assert lam <= 1e-4 * 5.0

    def test_pure_noise_thresholds_out_everything(self):
        fitted, leftovers = [], []
        for i in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([15, i]))
            y = 0.1 * rng.standard_normal((100, 150))
            fact = linalg.svd(y)
            lam = shrinkage.soft_threshold_fit(fact, risk.soft_threshold_sure(fact, 0.1))
            fitted.append(lam / fact.singular_values[0])
            estimate = linalg.reconstruct(fact, linalg.soft_threshold_function(lam))
            leftovers.append(np.sum(estimate**2) / np.sum(y**2))
        assert np.median(fitted) >= 0.95
        assert np.median(leftovers) <= 0.01

    def test_achieves_grid_objective(self):
        rng = np.random.default_rng(16)
        y = rng.standard_normal((12, 10)) + 2.0 * np.outer(np.ones(12), np.ones(10)) / np.sqrt(120)
        tau = 0.3
        fact = linalg.svd(y)
        objective = risk.make_risk_objective(y, fact, Gaussian(tau), "sure")

        def value_at(lam):
            return objective(linalg.soft_threshold_function(lam)).value

        lam = shrinkage.soft_threshold_fit(fact, value_at)
        top = fact.singular_values[0]
        best_grid = min(value_at(l) for l in np.arange(0.0, top + 1e-9, 1e-3 * top))
        assert value_at(lam) <= best_grid + 1e-6

    def test_sure_rejects_a_clamp_floor(self):
        # SURE is scored from the spectrum, which a floored estimate leaves.
        y = np.random.default_rng(17).standard_normal((8, 6))
        fact = linalg.svd(y)
        objective = risk.make_risk_objective(y, fact, Gaussian(0.5), "sure")
        assert np.isfinite(objective(linalg.soft_threshold_function(1.0)).value)
        with pytest.raises(ParameterError, match="without a clamp floor"):
            objective(linalg.soft_threshold_function(1.0, linalg.DEFAULT_CLAMP_FLOOR))

    def test_all_zero_observation(self):
        # Zero lies in the Gaussian and Poisson supports, not in Gamma's,
        # which the soft fit must say as the pca and weighted fits do: the
        # Gamma objectives check the support when they are built.
        y = np.zeros((4, 5))
        fact = linalg.svd(y)
        for model, objective in ((Gaussian(0.5), "sure"), (Poisson(), "pure"), (Poisson(), "pukla")):
            rng = np.random.default_rng(0)
            score = risk_score(y, fact, model, objective, rng)
            assert shrinkage.soft_threshold_fit(fact, lambda lam: score(linalg.soft_threshold_function(lam))) == 0.0
        for objective in ("gsure", "sukls"):
            with pytest.raises(DomainError, match="Gamma observations must be positive"):
                risk_score(y, fact, Gamma(4.0), objective, np.random.default_rng(0))
            with pytest.raises(DomainError, match="Gamma observations must be positive"):
                fit_estimator(
                    FitMethod("soft", objective=objective), Observation(y, fact, Gamma(4.0)), np.random.default_rng(0)
                )


# A 12x15 Gaussian and a 12x15 Gamma observation, each with sigma_1 > 1.
SCALE_SIGNAL = spiked_signal(12, 15, [3.0], np.random.default_rng(21))
SCALE_GAUSSIAN = SCALE_SIGNAL + 0.5 * np.random.default_rng(22).standard_normal((12, 15))
SCALE_GAMMA = Gamma(4.0).sample(rank_one_positive(12, 15, 20.0), np.random.default_rng(23))
# (estimator, observation, model at scale a, signal): every soft fit, and
# the oracle's, on observation a Y with the Gaussian tau and the clamp floor
# scaled by a too.
SCALE_CASES = (
    (FitMethod("soft", objective="sure"), SCALE_GAUSSIAN, lambda a: Gaussian(0.5 * a), None),
    (FitMethod("soft", objective="gsure"), SCALE_GAMMA, lambda a: Gamma(4.0), None),
    (FitMethod("soft", objective="sukls"), SCALE_GAMMA, lambda a: Gamma(4.0), None),
    (FitMethod("oracle-soft", loss="se"), SCALE_GAUSSIAN, lambda a: Gaussian(0.5 * a), SCALE_SIGNAL),
)


def scaled_soft_fit(case, a: float) -> float:
    method, y, model_at, signal = case
    fact = linalg.svd(a * y)
    obs = Observation(a * y, fact, model_at(a), a * 1e-6, None if signal is None else a * signal)
    _, info = fit_estimator(method, obs, np.random.default_rng(24))
    return info["lambda"]


@settings(max_examples=40, deadline=None)
@given(st.integers(-300, 300))
def test_soft_fits_scale_with_small_inputs(j):
    # Each fit on a*Y gives a times its lambda on Y, within the search's
    # tolerance, at scales small and large; a = 2^j scales exactly.  No
    # RuntimeWarning may be raised (the suite makes one an error).
    a = 2.0**j
    for case in SCALE_CASES:
        top = linalg.svd(case[1]).singular_values[0]
        assert top > 1.0
        expected = scaled_soft_fit(case, 1.0)
        got = scaled_soft_fit(case, a)
        assert abs(got / a - expected) <= 2.0 * shrinkage.BOUNDED_XATOL * top, case[0]


# A 12x9 Gaussian draw whose bulk active set keeps weights strictly inside (0, 1).
WEIGHT_SCALE_TAU = 0.3
WEIGHT_SCALE_Y = spiked_signal(12, 9, [4.0, 2.5], np.random.default_rng(25)) + (
    WEIGHT_SCALE_TAU * np.random.default_rng(26).standard_normal((12, 9))
)


def scaled_weight_fit(a: float):
    """At ``(a Y, a tau)``: the closed-form weights, the weights of the
    ``weighted:objective=sure`` fit, and the SURE of that fit's map."""
    y, model = a * WEIGHT_SCALE_Y, Gaussian(a * WEIGHT_SCALE_TAU)
    fact = linalg.svd(y)
    method = parse_estimator_tag("weighted:objective=sure", model)
    fn, info = fit_estimator(method, Observation(y, fact, model), np.random.default_rng(27))
    closed = shrinkage.weights_gaussian(fact, model.tau)
    fitted = np.array([info["weights"][str(k)] for k in info["active_set"]])
    sure = risk.make_risk_objective(y, fact, model, "sure")(fn).value
    return closed, fitted, sure


@settings(max_examples=40, deadline=None)
@given(st.integers(-300, 300))
def test_gaussian_weight_fits_scale_with_the_input(j):
    # The weights of a Gaussian weight fit on (a Y, a tau) are those on
    # (Y, tau), and its SURE scales by a^2, at scales small and large; a = 2^j
    # scales exactly.  No RuntimeWarning may be raised (the suite makes one
    # an error).
    a = 2.0**j
    closed, fitted, sure = scaled_weight_fit(1.0)
    assert np.any((fitted > 0.0) & (fitted < 1.0))
    got_closed, got_fitted, got_sure = scaled_weight_fit(a)
    np.testing.assert_allclose(got_closed, closed, rtol=1e-9, atol=0)
    np.testing.assert_allclose(got_fitted, fitted, rtol=1e-9, atol=0)
    assert got_sure / a**2 == pytest.approx(sure, rel=1e-9)


class TestOracles:
    def test_self_oracle(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((6, 5))
        fact = linalg.svd(y)
        values = shrinkage.oracle_weights(y, fact)
        np.testing.assert_allclose(values, fact.singular_values, rtol=1e-10)
        _, info = fit_estimator(FitMethod("oracle-weights"), Observation(y, fact, Gaussian(1.0), signal=y), rng)
        np.testing.assert_allclose(info["raw_weights"], 1.0, rtol=0, atol=1e-10)

    def test_zero_signal(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal((6, 5))
        fact = linalg.svd(y)
        np.testing.assert_allclose(shrinkage.oracle_weights(np.zeros((6, 5)), fact), 0.0, atol=1e-12)
        method = FitMethod("oracle-soft", loss="se")
        _, info = fit_estimator(method, Observation(y, fact, Gaussian(1.0), signal=np.zeros((6, 5))), rng)
        assert info["lambda"] >= 0.999 * fact.singular_values[0]

    def test_oracle_values_are_local_minimizers(self):
        rng = np.random.default_rng(19)
        u, _ = np.linalg.qr(rng.standard_normal((12, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        x = (u * [4.0, 3.0, 2.0]) @ v.T
        y = x + 0.2 * rng.standard_normal((12, 10))
        fact = linalg.svd(y)
        oracle = shrinkage.oracle_weights(x, fact)
        base = float(np.sum((linalg.compose(fact, oracle) - x) ** 2))
        for k in range(fact.rank_bound):
            for bump in (-1e-3, 1e-3):
                values = oracle.copy()
                values[k] += bump
                perturbed = float(np.sum((linalg.compose(fact, values) - x) ** 2))
                assert perturbed >= base


class TestMinimizeBounded:
    def test_quadratic(self):
        assert shrinkage.minimize_bounded(lambda t: (t - 0.3) ** 2, 0, 1) == pytest.approx(
            0.3, abs=1e-5
        )

    def test_boundary_minimum(self):
        assert shrinkage.minimize_bounded(lambda t: t, 0, 1) <= 1e-4

    def test_nonconvergence_raises(self):
        with pytest.raises(NumericalError, match="after 3 iterations"):
            shrinkage.minimize_bounded(lambda t: (t - 0.3) ** 2, 0, 1, maxiter=3)

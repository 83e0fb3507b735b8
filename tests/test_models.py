"""Noise-family likelihoods, samplers and configs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import activeset, linalg
from svshrink.errors import DomainError, ParameterError
from svshrink.models import Gamma, Gaussian, Poisson, _log_factorial, model_from_config, validate_counts

from helpers import rank_one_positive


class TestLogLikelihood:
    def test_gaussian_standard_normal_at_mode(self):
        value = Gaussian(1.0).log_likelihood(np.array([[0.0]]), np.array([[0.0]]))
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-14)

    def test_poisson_zero_count_unit_mean(self):
        value = Poisson().log_likelihood(np.array([[0.0]]), np.array([[1.0]]))
        assert value == pytest.approx(-1.0, rel=1e-14)

    def test_gamma_exponential_case(self):
        value = Gamma(1.0).log_likelihood(np.array([[2.0]]), np.array([[1.0]]))
        assert value == pytest.approx(-2.0, rel=1e-14)

    def test_gaussian_maximized_at_observation(self):
        y = np.array([[1.3]])
        model = Gaussian(0.8)
        at_y = model.log_likelihood(y, y)
        for x in np.linspace(-2, 4, 61):
            if not np.isclose(x, 1.3):
                assert model.log_likelihood(y, np.array([[x]])) < at_y

    def test_domain_error_reports_location(self):
        y = np.array([[1.0, 2.0], [3.0, -1.0]])
        with pytest.raises(DomainError, match=r"\(1, 1\)"):
            Gamma(3.0).log_likelihood(y, np.ones((2, 2)))

    def test_poisson_rejects_non_integer(self):
        with pytest.raises(DomainError, match=r"\(0, 0\)"):
            Poisson().log_likelihood(np.array([[0.5]]), np.array([[1.0]]))

    def test_validate_counts_accepts_integers(self):
        validate_counts(np.array([[0.0, 3.0], [1.0, 7.0]]))


def gammaln(x):
    """SciPy's log Gamma, the reference; a test that calls it is skipped without SciPy."""
    return pytest.importorskip("scipy.special").gammaln(x)


class ScipyGamma(Gamma):
    """The Gamma log-likelihood with SciPy's ``gammaln(L)``: the reference."""

    def log_likelihood(self, observed, mean):
        L, y, x = self.shape, observed, mean
        return float(np.sum(L * np.log(L) + (L - 1.0) * np.log(y) - gammaln(L) - L * np.log(x) - L * y / x))


class ScipyPoisson(Poisson):
    """The Poisson log-likelihood with SciPy's ``gammaln(y + 1)``: the reference."""

    def log_likelihood(self, observed, mean):
        return float(np.sum(observed * np.log(mean) - mean - gammaln(observed + 1.0)))


# Integer-valued floats from the first count past the table up to the
# largest entry that linalg.svd admits.
LARGE_COUNTS = st.one_of(
    st.integers(256, 2**53).map(float),
    st.floats(256.0, linalg.LARGEST_SQUARE_ROOT).map(math.floor).map(float),
)


class TestLogFactorial:
    def test_table_is_lgamma_bit_for_bit(self):
        expected = [math.lgamma(k + 1.0) for k in range(256)]
        assert _log_factorial(np.arange(256.0)).tolist() == expected
        # Alongside counts that take the series, in a matrix.
        mixed = np.concatenate([np.arange(256.0), [256.0, 1e6]]).reshape(2, 129)
        assert _log_factorial(mixed).ravel()[:256].tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(LARGE_COUNTS, min_size=1, max_size=20), st.lists(st.integers(0, 255), max_size=5))
    def test_series_within_4_ulp_of_gammaln(self, large, small):
        # A RuntimeWarning fails the suite, so the series neither overflows
        # nor meets an invalid value up to the largest count.
        counts = np.array(large + small, dtype=float)
        got = _log_factorial(counts)[: len(large)]
        expected = gammaln(counts[: len(large)] + 1.0)
        assert np.all(np.abs(got - expected) <= 4 * np.spacing(expected))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 1e3), st.integers(0, 2**32 - 1))
    def test_log_likelihoods_match_scipy(self, L, seed):
        # Relative to the summed size of the terms: the total can cancel to
        # near zero, where the rounding of each term still sets the error.
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 2e3, (6, 7))
        y = Gamma(L).sample(x, rng)
        terms = [L * np.log(L), (L - 1.0) * np.log(y), gammaln(L), L * np.log(x), L * y / x]
        scale = np.sum(np.abs(np.broadcast_arrays(*terms)))
        got = Gamma(L).log_likelihood(y, x)
        assert abs(got - ScipyGamma(L).log_likelihood(y, x)) <= 1e-13 * scale
        y = Poisson().sample(x, rng)
        scale = np.sum(np.abs(y * np.log(x)) + x + gammaln(y + 1.0))
        got = Poisson().log_likelihood(y, x)
        assert abs(got - ScipyPoisson().log_likelihood(y, x)) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12), st.integers(2, 15), st.floats(0.0, 5.0), st.sampled_from([3.0, 4.0, 5.0, None]),
        st.integers(0, 2**32 - 1),
    )
    def test_greedy_set_matches_the_scipy_reference(self, n, m, log_scale, L, seed):
        rng = np.random.default_rng(seed)
        x = rank_one_positive(n, m, 10.0**log_scale) + rng.uniform(0.0, 1.0, (n, m))
        model, reference = (Poisson(), ScipyPoisson()) if L is None else (Gamma(L), ScipyGamma(L))
        y = model.sample(x, rng)
        fact = linalg.svd(y)
        got = activeset.active_set_greedy(y, model, fact=fact)
        expected = activeset.active_set_greedy(y, reference, fact=fact)
        assert got.selected == expected.selected


class TestSample:
    def test_gaussian_vanishing_noise(self):
        x = np.linspace(1, 5, 12).reshape(3, 4)
        y = Gaussian(1e-12).sample(x, np.random.default_rng(0))
        assert np.max(np.abs(y - x)) < 1e-9

    def test_gamma_law_of_large_numbers(self):
        # mean 2, variance 4/3; the sample mean over 1e5 draws stays within
        # five standard errors.
        rng = np.random.default_rng(1)
        draws = Gamma(3.0).sample(np.full((100_000, 1), 2.0), rng)
        tol = 5 * (2.0 / np.sqrt(3.0)) / np.sqrt(100_000)
        assert abs(draws.mean() - 2.0) < tol

    def test_poisson_moments(self):
        rng = np.random.default_rng(2)
        draws = Poisson().sample(np.full((100_000, 1), 4.0), rng)
        assert abs(draws.var() - 4.0) < 0.4
        assert abs(draws.mean() - 4.0) < 0.1

    def test_seeded_reproducibility(self):
        x = np.full((4, 4), 3.0)
        a = Poisson().sample(x, np.random.default_rng(42))
        b = Poisson().sample(x, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            Gamma(3.0).sample(np.array([[0.0]]), np.random.default_rng(0))


class TestConfig:
    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            model_from_config({"family": "cauchy"})

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Gaussian(0.0)
        with pytest.raises(ParameterError):
            Gamma(-1.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ParameterError, match="positive and finite"):
                Gaussian(bad)
            with pytest.raises(ParameterError, match="positive and finite"):
                Gamma(bad)

    @pytest.mark.parametrize("build, key", [(Gaussian, "tau"), (Gamma, "L")])
    @pytest.mark.parametrize("bad", ["3", True])
    def test_parameters_are_json_numbers(self, build, key, bad):
        # A directly built model follows the rule of a config file: a string
        # or a bool is no number, and the error names the field.
        with pytest.raises(ParameterError, match=rf"\$\.model\.{key}: {bad!r} is not of type 'number'"):
            build(bad)

    def test_parameters_are_stored_as_floats(self):
        assert type(Gaussian(2).tau) is float and Gaussian(2) == Gaussian(2.0)
        assert type(Gamma(np.float64(5.0)).shape) is float

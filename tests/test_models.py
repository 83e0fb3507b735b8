"""Noise-family likelihoods, samplers and configs."""

import numpy as np
import pytest

from svshrink.errors import DomainError, ParameterError
from svshrink.models import Gamma, Gaussian, Poisson, model_from_config, validate_counts


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

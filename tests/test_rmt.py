"""Large-dimension reference formulas for the spiked model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svshrink import rmt
from svshrink.errors import DomainError

from helpers import asymptotic_sure, mp_density


def quad(*args, **kwargs):
    """SciPy's quadrature, the reference; a test that calls it is skipped without SciPy."""
    return pytest.importorskip("scipy.integrate").quad(*args, **kwargs)


class TestSpikeLocation:
    def test_threshold_case(self):
        assert rmt.rho(1.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_exact_values(self):
        assert rmt.rho(2.0, 1.0) == pytest.approx(2.5, rel=1e-14)
        assert rmt.rho(np.sqrt(2.0), 1.0) == pytest.approx(3.0 / np.sqrt(2.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            rmt.rho(0.0, 1.0)
        with pytest.raises(DomainError):
            rmt.rho(1.0, 1.5)

    def test_edge_and_monotonicity(self):
        for c in (0.25, 0.5, 1.0):
            edge = rmt.bulk_edge(c)
            assert rmt.rho(c**0.25, c) == pytest.approx(edge, rel=1e-12)
            grid = np.linspace(c**0.25 + 1e-3, 10.0, 200)
            values = rmt.rho(grid, c)
            assert np.all(np.diff(values) > 0)
            assert np.all(values > edge)


class TestInverseLocation:
    @given(
        st.floats(1.1, 8.0),
        st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_round_trip(self, sigma, c):
        assert rmt.sigma_from_rho(rmt.rho(sigma, c), c) == pytest.approx(sigma, rel=1e-12)

    def test_inverse_of_exact_case(self):
        assert rmt.sigma_from_rho(2.5, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_large_argument_asymptote(self):
        # The gap to the identity is (1 + c) / (2 y) to leading order.
        y, c = 100.0, 1.0
        gap = abs(rmt.sigma_from_rho(y, c) - y)
        assert gap == pytest.approx((1 + c) / (2 * y), rel=1e-3)
        assert gap < 0.0101

    def test_domain(self):
        with pytest.raises(DomainError):
            rmt.sigma_from_rho(2.0, 1.0)  # exactly the edge


class TestCauchyTransform:
    def test_normalization_at_infinity(self):
        z = 1e4
        assert abs(z * rmt.mp_cauchy(z, 1.0) - 1.0) < 1e-2

    def test_spike_identity(self):
        # At the squared spike location the transform has the closed value
        # (1 + 1/sigma^2) / rho^2.
        for c in (0.25, 0.5, 1.0):
            for sigma in (1.1, 2.0, 5.0):
                r2 = rmt.rho(sigma, c) ** 2
                assert rmt.mp_cauchy(r2, c) == pytest.approx(
                    (1 + 1 / sigma**2) / r2, rel=1e-12
                )

    def test_against_quadrature(self):
        c, z = 1.0, 9.0
        lo, hi = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
        integral, _ = quad(lambda lam: mp_density(lam, c) / (z - lam), lo, hi, limit=200)
        assert rmt.mp_cauchy(z, c) == pytest.approx(integral, rel=1e-6)

    def test_density_normalizes(self):
        for c in (0.25, 1.0):
            lo, hi = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
            mass, _ = quad(lambda lam: mp_density(lam, c), lo, hi, limit=200)
            assert mass == pytest.approx(1.0, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            rmt.mp_cauchy(3.9, 1.0)  # inside the bulk support [0, 4]


class TestShrinkers:
    def test_zero_at_edge(self):
        for c in (0.25, 0.5, 1.0):
            assert rmt.shrinker_gd(rmt.bulk_edge(c), c) == 0.0
            assert rmt.shrinker_gd(0.5 * rmt.bulk_edge(c), c) == 0.0

    def test_exact_agreement_case(self):
        # sigma = sqrt(2), c = 1: both forms give 1/sqrt(2).
        assert rmt.shrinker_sigma(np.sqrt(2.0), 1.0) == pytest.approx(
            1.0 / np.sqrt(2.0), rel=1e-12
        )
        assert rmt.shrinker_gd(3.0 / np.sqrt(2.0), 1.0) == pytest.approx(
            1.0 / np.sqrt(2.0), rel=1e-12
        )

    def test_equivalence_sweep(self):
        for c in (0.25, 0.5, 1.0):
            sigmas = np.linspace(c**0.25 + 0.01, 10.0, 500)
            gd = rmt.shrinker_gd(rmt.rho(sigmas, c), c)
            direct = rmt.shrinker_sigma(sigmas, c)
            assert np.max(np.abs(gd - direct)) < 1e-10

    def test_weight_times_location_is_shrinker(self):
        for c in (0.25, 0.5, 1.0):
            sigmas = np.linspace(c**0.25 + 0.01, 10.0, 500)
            product = rmt.asymptotic_optimal_weight(sigmas, c) * rmt.rho(sigmas, c)
            assert np.max(np.abs(product - rmt.shrinker_sigma(sigmas, c))) < 1e-10


class TestOptimalWeight:
    def test_exact_value(self):
        w = rmt.asymptotic_optimal_weight(np.sqrt(2.0), 1.0)
        assert w == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert w * rmt.rho(np.sqrt(2.0), 1.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_tends_to_one(self):
        assert rmt.asymptotic_optimal_weight(1e4, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            rmt.asymptotic_optimal_weight(0.9, 1.0)


class TestAsymptoticSure:
    def test_zero_shrinker_value(self):
        sigmas = np.array([2.0, 1.5])
        c = 1.0
        value = asymptotic_sure(np.zeros(2), sigmas, c)
        assert value == pytest.approx(float(np.sum(rmt.rho(sigmas, c) ** 2)), rel=1e-12)

    def test_optimal_weight_beats_plain_truncation(self):
        for sigma in (1.1, 1.5, 3.0):
            c = 1.0
            r = rmt.rho(sigma, c)
            best = rmt.asymptotic_optimal_weight(sigma, c) * r
            assert asymptotic_sure([best], [sigma], c) < asymptotic_sure([r], [sigma], c)

    def test_per_index_minimizer_is_the_shrinker(self):
        c = 0.5
        for sigma in (1.2, 2.0, 4.0):
            grid = np.linspace(0.0, 2 * rmt.rho(sigma, c), 20001)
            values = [asymptotic_sure([f], [sigma], c) for f in grid]
            best = grid[int(np.argmin(values))]
            assert best == pytest.approx(rmt.shrinker_sigma(sigma, c), abs=2e-4)


class TestAsymptoticDof:
    def test_zero_shrinker(self):
        assert rmt.asymptotic_dof([0.0], [2.0], 1.0) == 0.0

    def test_large_spike_limit(self):
        c = 0.3
        sigma = 1e4
        value = rmt.asymptotic_dof([rmt.rho(sigma, c)], [sigma], c)
        assert value == pytest.approx(1 + c, abs=1e-6)

    def test_exact_value_and_bound(self):
        c = 1.0
        sigma = np.sqrt(2.0)
        value = rmt.asymptotic_dof([rmt.rho(sigma, c)], [sigma], c)
        assert value == pytest.approx(3.0, rel=1e-12)
        assert value <= rmt.bulk_edge(c) ** 2

    def test_truncation_bound_over_grid(self):
        for c in (0.25, 0.5, 1.0):
            sigmas = np.linspace(c**0.25 + 0.01, 20.0, 300)
            terms = [rmt.asymptotic_dof([rmt.rho(s, c)], [s], c) for s in sigmas]
            assert max(terms) <= rmt.bulk_edge(c) ** 2 + 1e-12


class TestRegime:
    def test_edges(self):
        assert rmt.bulk_edge(0.25) == 1.5
        assert rmt.bulk_edge(1.0) == 2.0

    def test_validation(self):
        with pytest.raises(DomainError):
            rmt.bulk_edge(0.0)
        with pytest.raises(DomainError):
            rmt.bulk_edge(1.5)

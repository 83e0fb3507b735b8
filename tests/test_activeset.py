"""Penalized-likelihood active-set selection and rank estimators."""

import itertools
import re

import numpy as np
import pytest

from svshrink import activeset, linalg, shrinkage
from svshrink.errors import DomainError
from svshrink.models import Gamma, Gaussian, Poisson

from helpers import rank_one_positive, spiked_signal


class TestAicScore:
    def test_gaussian_empty_set_value(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((6, 8))
        m = 8
        tau = 1.0 / np.sqrt(m)
        score = activeset.aic(y, Gaussian(tau), (), fact=linalg.svd(y))
        expected = m * np.sum(y**2) + 48 * np.log(2 * np.pi / m)
        assert score == pytest.approx(expected, rel=1e-12)

    def test_gaussian_difference_identity(self):
        # Between two subsets the score differs by the swapped spectral energy
        # (times m) plus the penalty times the cardinality change, exactly.
        rng = np.random.default_rng(1)
        y = rng.standard_normal((7, 9))
        m = 9
        model = Gaussian(1.0 / np.sqrt(m))
        fact = linalg.svd(y)
        s = fact.singular_values
        p = activeset.penalty(7, 9)
        for a, b in [((1, 2), (1, 3, 4)), ((), (1,)), ((2, 5), (2, 5, 6, 7))]:
            lhs = activeset.aic(y, model, a, fact=fact) - activeset.aic(y, model, b, fact=fact)
            swapped = m * (
                sum(s[k - 1] ** 2 for k in set(b) - set(a))
                - sum(s[k - 1] ** 2 for k in set(a) - set(b))
            )
            rhs = swapped + 2 * (len(a) - len(b)) * p
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_poisson_one_by_one(self):
        y = np.array([[2.0]])
        score = activeset.aic(y, Poisson(), (1,), fact=linalg.svd(y))
        expected = -2 * (2 * np.log(2) - 2 - np.log(2)) + 2 * activeset.penalty(1, 1)
        assert score == pytest.approx(expected, rel=1e-12)

    def test_penalty_identity(self):
        for n, m in [(3, 7), (100, 200), (64, 64)]:
            lhs = np.sqrt(2 * activeset.penalty(n, m) / m)
            assert lhs == pytest.approx(1 + np.sqrt(n / m), rel=1e-12)

    def test_adding_strong_index_decreases_score(self):
        rng = np.random.default_rng(2)
        y = spiked_signal(20, 30, [4.0, 3.0], rng) + rng.standard_normal((20, 30)) / np.sqrt(30)
        m = 30
        model = Gaussian(1.0 / np.sqrt(m))
        fact = linalg.svd(y)
        p = activeset.penalty(20, 30)
        for k in range(1, 21):
            gain = m * fact.singular_values[k - 1] ** 2 - 2 * p
            with_k = activeset.aic(y, model, (k,), fact=fact)
            without = activeset.aic(y, model, (), fact=fact)
            if gain > 0:
                assert with_k < without


class TestGaussianActiveSet:
    def test_threshold_rule(self):
        # tau = 1/sqrt(m), n=100, m=200: threshold 1 + sqrt(0.5) ~ 1.70711.
        spectrum = np.concatenate([[3.0, 2.5, 1.2], np.linspace(1.0, 0.1, 97)])
        fact = linalg.SvdFactorization(spectrum, np.eye(100), np.eye(200)[:, :100])
        report = activeset.active_set_gaussian(fact, 1.0 / np.sqrt(200))
        assert report.selected == (1, 2)
        assert report.penalty == pytest.approx(activeset.penalty(100, 200))

    def test_all_below_threshold(self):
        rng = np.random.default_rng(4)
        y = 0.1 * rng.standard_normal((10, 10))
        report = activeset.active_set_gaussian(linalg.svd(y), tau=1.0)
        assert report.selected == ()

    def test_matches_exhaustive_minimization(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n, m = int(rng.integers(4, 9)), int(rng.integers(6, 13))
            tau = float(rng.uniform(0.1, 0.6))
            y = spiked_signal(n, m, [4.0, 2.5], rng) + tau * rng.standard_normal((n, m))
            model = Gaussian(tau)
            fact = linalg.svd(y)
            k = min(n, m)
            best, best_score = None, np.inf
            for r in range(k + 1):
                for subset in itertools.combinations(range(1, k + 1), r):
                    score = activeset.aic(y, model, subset, fact=fact)
                    if score < best_score:
                        best, best_score = subset, score
            assert activeset.active_set_gaussian(fact, tau).selected == best


class TestGreedyActiveSet:
    def test_gaussian_greedy_equals_closed_form(self):
        rng = np.random.default_rng(6)
        for trial in range(8):
            y = spiked_signal(8, 11, [5.0, 3.0], rng) + 0.4 * rng.standard_normal((8, 11))
            model = Gaussian(0.4)
            greedy = activeset.active_set_greedy(y, model, fact=linalg.svd(y))
            closed = activeset.active_set_gaussian(linalg.svd(y), 0.4)
            assert greedy.selected == closed.selected

    def test_single_index_rule(self):
        y = np.array([[3.0, 1.0, 0.5]])  # 1 x 3, a single singular value
        model = Gaussian(0.5)
        report = activeset.active_set_greedy(y, model, fact=linalg.svd(y))
        keep = activeset.aic(y, model, (), fact=linalg.svd(y)) > activeset.aic(
            y, model, (1,), fact=linalg.svd(y)
        )
        assert (report.selected == (1,)) == keep

    def test_greedy_score_count(self):
        y = np.random.default_rng(7).standard_normal((5, 6))
        report = activeset.active_set_greedy(y, Gaussian(0.3), fact=linalg.svd(y))
        assert len(report.aic_values) == 5 + 1  # full set plus each removal

    def test_poisson_high_snr_keeps_leading_index(self):
        x = rank_one_positive(15, 10, 55.0)
        kept = 0
        for i in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([8, i]))
            y = Poisson().sample(x, rng)
            report = activeset.active_set_greedy(y, Poisson(), fact=linalg.svd(y))
            kept += 1 in report.selected
        assert kept >= 15

    def test_gamma_greedy_runs(self):
        x = rank_one_positive(12, 9, 10.0)
        y = Gamma(3.0).sample(x, np.random.default_rng(9))
        report = activeset.active_set_greedy(y, Gamma(3.0), fact=linalg.svd(y))
        assert report.method == "greedy"
        assert all(1 <= k <= 9 for k in report.selected)


class TestRankEstimators:
    def test_report_serialization(self):
        y = np.random.default_rng(12).standard_normal((4, 5))
        report = activeset.active_set_greedy(y, Gaussian(0.3), fact=linalg.svd(y))
        payload = report.to_json()
        assert set(payload) == {"selected", "penalty", "method", "aic_values"}


class TestIndices:
    def test_non_integer_index_is_domain_error(self):
        # 1.7 was truncated to 1 and True read as 1; integral floats still count.
        fact = linalg.svd(spiked_signal(4, 5, [3.0, 2.0], np.random.default_rng(10)))
        assert activeset.indices([2.0, np.int64(1)], fact.rank_bound) == (1, 2)
        for bad in (1.7, True, np.float64("nan"), "1"):
            with pytest.raises(DomainError, match=re.escape(f"active-set index {bad!r} is not an integer")):
                activeset.indices([1, bad], fact.rank_bound)
        with pytest.raises(DomainError, match="active-set index 1.7 is not an integer"):
            shrinkage.weights_gaussian(fact, 0.1, [1.7])

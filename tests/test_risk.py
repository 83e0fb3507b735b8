"""Divergence engines and the per-family unbiased risk estimates."""

import itertools

import numpy as np
import pytest

from svshrink import linalg, metrics, risk
from svshrink.errors import CapacityError, DomainError, ParameterError
from svshrink.linalg import SpectralFunction
from svshrink.models import Gamma, Gaussian, Poisson

from helpers import fd_divergence, rank_one_positive


def half_map(clamp=None):
    return SpectralFunction(lambda s: 0.5 * s, lambda s: 0.5 * np.ones_like(s), clamp)


def zero_map(clamp=None):
    return SpectralFunction(lambda s: np.zeros_like(s), lambda s: np.zeros_like(s), clamp)


def identity_map():
    return SpectralFunction(lambda s: s.copy(), lambda s: np.ones_like(s))


def weighted_rank1(w, clamp=None):
    def values(s):
        out = np.zeros_like(s)
        out[0] = w * s[0]
        return out

    def derivs(s):
        out = np.zeros_like(s)
        out[0] = w
        return out

    return SpectralFunction(values, derivs, clamp)


class TestClosedFormDivergence:
    def test_identity_map_gives_nm(self):
        rng = np.random.default_rng(0)
        for n, m in [(3, 3), (5, 8), (9, 4)]:
            fact = linalg.svd(rng.standard_normal((n, m)))
            s = fact.singular_values
            div = risk.divergence_closed_form(fact, s.copy(), np.ones_like(s))
            assert div == pytest.approx(n * m, rel=1e-9)

    def test_zero_map_gives_zero(self):
        fact = linalg.svd(np.random.default_rng(1).standard_normal((4, 5)))
        z = np.zeros_like(fact.singular_values)
        assert risk.divergence_closed_form(fact, z, z) == 0.0

    def test_matches_entrywise_finite_differences(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((6, 4))
        fact = linalg.svd(y)
        s = fact.singular_values
        closed = risk.divergence_closed_form(fact, 0.5 * s, 0.5 * np.ones_like(s))
        oracle = fd_divergence(lambda t: 0.5 * t, y)
        assert closed == pytest.approx(oracle, rel=1e-5)


class TestMonteCarloDivergence:
    def test_identity_map_is_exact(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((4, 6))
        fn = SpectralFunction(lambda s: s.copy(), lambda s: np.ones_like(s))
        est = risk.mc_divergence(fn, y, 3, np.random.default_rng(0))
        assert est.value == pytest.approx(24.0, rel=1e-12)

    def test_zero_map(self):
        y = np.random.default_rng(4).standard_normal((3, 3))
        fn = SpectralFunction(lambda s: np.zeros_like(s), lambda s: np.zeros_like(s))
        est = risk.mc_divergence(fn, y, 2, np.random.default_rng(0))
        assert est.value == 0.0

    def test_full_enumeration_matches_closed_form(self):
        # On 2x2, averaging all 16 sign directions cancels every off-diagonal
        # Jacobian term, so the estimator is exactly the closed form.
        rng = np.random.default_rng(5)
        y = rng.standard_normal((2, 2))
        fact = linalg.svd(y)
        s = fact.singular_values
        directions = [
            np.array(bits, dtype=float).reshape(2, 2)
            for bits in itertools.product([-1.0, 1.0], repeat=4)
        ]
        est = risk.mc_divergence(half_map(), y, len(directions), directions=directions)
        closed = risk.divergence_closed_form(fact, 0.5 * s, 0.5 * np.ones_like(s))
        assert est.value == pytest.approx(closed, rel=1e-12)

    def test_sampling_agrees_within_three_stderr(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((5, 4))
        fact = linalg.svd(y)
        s = fact.singular_values
        est = risk.mc_divergence(half_map(), y, 2000, np.random.default_rng(7))
        closed = risk.divergence_closed_form(fact, 0.5 * s, 0.5 * np.ones_like(s))
        assert abs(est.value - closed) <= 3 * est.stderr


class TestSpectralOnly:
    """Risk estimates take a SpectralFunction; a plain callable is a
    ParameterError, in either Poisson mode."""

    @pytest.mark.parametrize("name", [
        "mc_divergence", "mc_theta_divergence_gamma", "downdated_entries",
        "pure_exact", "pure_approx", "pukla_exact", "pukla_approx",
    ])
    def test_callable_is_parameter_error(self, name):
        y = np.array([[2.0, 1.0, 3.0], [1.0, 4.0, 2.0]])
        halve = lambda M: 0.5 * M  # noqa: E731
        rng = np.random.default_rng(0)
        calls = {
            "mc_divergence": lambda: risk.mc_divergence(halve, y, 2, rng),
            "mc_theta_divergence_gamma": lambda: risk.mc_theta_divergence_gamma(halve, y, 3.0, 2, rng),
            "downdated_entries": lambda: risk.downdated_entries(halve, y),
            "pure_exact": lambda: risk.pure_poisson(y, halve, mode="exact"),
            "pure_approx": lambda: risk.pure_poisson(y, halve, mode="approx", rng=rng),
            "pukla_exact": lambda: risk.pukla_poisson(y, halve, mode="exact"),
            "pukla_approx": lambda: risk.pukla_poisson(y, halve, mode="approx", rng=rng),
        }
        with pytest.raises(ParameterError, match="take a SpectralFunction"):
            calls[name]()


class TestSureGaussian:
    def test_identity_estimator(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((6, 5))
        out = risk.sure_gaussian(y, y, tau=0.3, divergence=30.0)
        assert out.value == pytest.approx(30 * 0.3**2, rel=1e-12)

    def test_zero_estimator(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((4, 4))
        out = risk.sure_gaussian(y, np.zeros_like(y), tau=0.5, divergence=0.0)
        assert out.value == pytest.approx(np.sum(y**2) - 16 * 0.25, rel=1e-12)

    def test_unbiased_for_fixed_weighted_estimator(self):
        # Replication average within four standard errors of the realized MSE
        # (paired differences); the full-scale check lives in the acceptance
        # suite.
        n = m = 30
        tau = 1.0 / np.sqrt(m)
        rng = np.random.default_rng(12)
        u, _ = np.linalg.qr(rng.standard_normal((n, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((m, 3)))
        x = (u * [4.0, 3.0, 2.0]) @ v.T
        model = Gaussian(tau)
        weights = np.array([0.9, 0.8, 0.7])

        def values(s):
            out = np.zeros_like(s)
            out[:3] = weights * s[:3]
            return out

        def derivs(s):
            out = np.zeros_like(s)
            out[:3] = weights
            return out

        diffs = []
        for i in range(400):
            y = model.sample(x, np.random.default_rng(np.random.SeedSequence([12, i])))
            fact = linalg.svd(y)
            s = fact.singular_values
            est = linalg.compose(fact, values(s))
            div = risk.divergence_closed_form(fact, values(s), derivs(s))
            sure = risk.sure_gaussian(y, est, tau, div).value
            diffs.append(sure - np.sum((est - x) ** 2))
        diffs = np.asarray(diffs)
        stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 4 * stderr


class TestGsureGamma:
    def test_one_by_one_value(self):
        # L=3, y=f=1, no derivative term: 9 - 12 + 0 + 2.
        out = risk.gsure_gamma(np.array([[1.0]]), np.array([[1.0]]), 3.0, 0.0)
        assert out.value == pytest.approx(-1.0, rel=1e-14)

    def test_identity_map_per_entry_oracle(self):
        # f = Y entrywise with unit diagonal Jacobian reduces the formula to
        # (L + 2) / y^2 per entry; verify against that independent reduction.
        rng = np.random.default_rng(13)
        y = rng.gamma(3.0, 1.0, size=(5, 4)) + 0.1
        L = 3.0
        theta_div = float(np.sum(L / y**2))  # sum (L/f^2) * 1 at f = y
        out = risk.gsure_gamma(y, y.copy(), L, theta_div)
        oracle = float(np.sum((L + 2.0) / y**2))
        assert out.value == pytest.approx(oracle, rel=1e-12)

    def test_parameter_and_domain_errors(self):
        y = np.array([[1.0]])
        with pytest.raises(ParameterError):
            risk.gsure_gamma(y, y, 2.0, 0.0)
        with pytest.raises(DomainError):
            risk.gsure_gamma(y, np.array([[-1.0]]), 3.0, 0.0)

    def test_unbiased_for_natural_parameter_error(self):
        n = m = 12
        L = 3.0
        x = rank_one_positive(n, m, 14.0)
        model = Gamma(L)
        fn = weighted_rank1(0.9, clamp=1e-6)
        diffs = []
        for i in range(400):
            r = np.random.default_rng(np.random.SeedSequence([14, i]))
            y = model.sample(x, r)
            est = fn(y)
            theta_div = risk.mc_theta_divergence_gamma(fn, y, L, 4, r)
            value = risk.gsure_gamma(y, est, L, theta_div).value
            diffs.append(value - metrics.mse_eta_gamma(est, x, L))
        diffs = np.asarray(diffs)
        stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 4 * stderr


class TestSuklsGamma:
    def test_one_by_one_value(self):
        out = risk.sukls_gamma(np.array([[1.0]]), np.array([[1.0]]), 3.0, 1.0)
        assert out.value == pytest.approx(0.0, abs=1e-14)

    def test_doubling_identity(self):
        rng = np.random.default_rng(15)
        y = rng.gamma(3.0, 1.0, size=(4, 6)) + 0.1
        f = rng.gamma(2.0, 1.0, size=(4, 6)) + 0.1
        L, div = 3.0, 5.0
        base = risk.sukls_gamma(y, f, L, div).value
        # The map f -> 2f doubles its divergence; the value shifts by the
        # linear term plus the log-2 count minus the old divergence share.
        doubled = risk.sukls_gamma(y, 2 * f, L, 2 * div).value
        expected_change = float(np.sum((L - 1) * f / y)) - L * 24 * np.log(2.0) + div
        assert doubled - base == pytest.approx(expected_change, rel=1e-12)

    def test_matches_gaussian_strategy(self):
        # Specialized to Gaussian noise, the generic synthesis-KL estimate
        # equals SURE / (2 tau^2) plus (n m tau^2 - ||Y||^2) / (2 tau^2),
        # a constant in the estimator: the two selection strategies coincide.
        rng = np.random.default_rng(16)
        y = rng.standard_normal((8, 6)) + 1.0
        tau = 0.4
        model = Gaussian(tau)
        fact = linalg.svd(y)
        s = fact.singular_values
        r1 = model.family_terms(y).h_ratio1

        def sukls_generic(values, derivs):
            est = linalg.compose(fact, values)
            theta = model.link(est)
            term = (theta + r1) * model.log_partition_d1(theta) - model.log_partition(theta)
            return float(term.sum()) + risk.divergence_closed_form(fact, values, derivs)

        offset = (48 * tau**2 - float(np.sum(y**2))) / (2 * tau**2)
        for w in (0.2, 0.5, 0.9):
            values, derivs = w * s, w * np.ones_like(s)
            est = linalg.compose(fact, values)
            div = risk.divergence_closed_form(fact, values, derivs)
            sure = risk.sure_gaussian(y, est, tau, div).value
            assert sukls_generic(values, derivs) == pytest.approx(
                sure / (2 * tau**2) + offset, rel=1e-10
            )

    def test_unbiased_up_to_signal_constant(self):
        n = m = 12
        L = 3.0
        x = rank_one_positive(n, m, 14.0)
        model = Gamma(L)
        fn = weighted_rank1(0.9, clamp=1e-6)
        constant = -L * float(np.sum(np.log(x)))  # -sum A(theta) for this family
        diffs = []
        for i in range(400):
            r = np.random.default_rng(np.random.SeedSequence([17, i]))
            y = model.sample(x, r)
            fact = linalg.svd(y)
            s = fact.singular_values
            est = linalg.reconstruct(fact, fn)
            div = risk.divergence_closed_form(fact, fn.values(s), fn.derivs(s))
            value = risk.sukls_gamma(y, est, L, div).value
            target = metrics.kls_gamma(est, x, L) + constant
            diffs.append(value - target)
        diffs = np.asarray(diffs)
        stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 4 * stderr


class TestPurePoisson:
    def test_zero_estimator(self):
        y = np.array([[2.0, 0.0], [1.0, 3.0]])
        out = risk.pure_poisson(y, zero_map(), mode="exact")
        assert out.value == 0.0

    def test_one_by_one_identity(self):
        for count in (0.0, 1.0, 4.0):
            y = np.array([[count]])
            out = risk.pure_poisson(y, identity_map(), mode="exact")
            assert out.value == pytest.approx(-(count**2) + 2 * count, rel=1e-12)

    def test_capacity_guard(self):
        y = np.zeros((101, 101))
        with pytest.raises(CapacityError):
            risk.pure_poisson(y, identity_map(), mode="exact")

    def test_approx_close_to_exact(self):
        x = rank_one_positive(15, 10, 60.0)
        model = Poisson()
        fn = weighted_rank1(0.8, clamp=1e-6)
        rels = []
        for i in range(12):
            r = np.random.default_rng(np.random.SeedSequence([18, i]))
            y = model.sample(x, r)
            exact = risk.pure_poisson(y, fn, mode="exact").value
            approx = risk.pure_poisson(y, fn, mode="approx", samples=1, rng=r).value
            rels.append(abs(approx - exact) / abs(exact))
        assert np.mean(rels) < 0.05

    def test_unbiased_for_mse_minus_signal_norm(self):
        x = rank_one_positive(10, 8, 40.0)
        model = Poisson()
        fn = weighted_rank1(0.85, clamp=1e-6)
        norm_sq = float(np.sum(x**2))
        diffs = []
        for i in range(400):
            r = np.random.default_rng(np.random.SeedSequence([19, i]))
            y = model.sample(x, r)
            value = risk.pure_poisson(y, fn, mode="exact").value
            diffs.append(value - (metrics.squared_error(fn(y), x) - norm_sq))
        diffs = np.asarray(diffs)
        stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 4 * stderr


class TestPuklaPoisson:
    def test_constant_estimator_identity(self):
        # The zero map clamped at c is the constant c, on Y and on every
        # downdate: 30 c - log(c) sum y.
        rng = np.random.default_rng(20)
        y = rng.poisson(3.0, size=(6, 5)).astype(float)
        c = 2.5
        out = risk.pukla_poisson(y, zero_map(clamp=c), mode="exact")
        assert out.value == pytest.approx(30 * c - np.log(c) * y.sum(), rel=1e-12)

    def test_all_zero_counts(self):
        y = np.zeros((4, 3))
        fn = weighted_rank1(0.5, clamp=1e-6)
        out = risk.pukla_poisson(y, fn, mode="exact")
        assert out.value == pytest.approx(float(np.sum(fn(y))), rel=1e-12)

    def test_zero_count_entries_do_not_contribute(self, monkeypatch):
        y = np.array([[0.0, 2.0], [0.0, 1.0]])
        seen = []
        downdated_entries = risk.downdated_entries

        def record(fn, matrix, positions=None):
            seen.append(np.asarray(positions).tolist())
            return downdated_entries(fn, matrix, positions)

        monkeypatch.setattr(risk, "downdated_entries", record)
        risk.pukla_poisson(y, zero_map(clamp=3.0), mode="exact")
        # Downdates happen only at the two nonzero entries.
        assert seen == [[[0, 1], [1, 1]]]

    def test_unbiased_up_to_signal_constant(self):
        x = rank_one_positive(10, 8, 40.0)
        model = Poisson()
        fn = weighted_rank1(0.85, clamp=1e-6)
        constant = float(np.sum(x - x * np.log(x)))
        diffs = []
        for i in range(400):
            r = np.random.default_rng(np.random.SeedSequence([21, i]))
            y = model.sample(x, r)
            value = risk.pukla_poisson(y, fn, mode="exact").value
            target = metrics.kla_poisson(fn(y), x) + constant
            diffs.append(value - target)
        diffs = np.asarray(diffs)
        stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 4 * stderr


class TestEmptyProbeSets:
    """An average over no probe is NaN: each Monte-Carlo estimate refuses an
    empty probe set with DomainError before it factors anything."""

    @pytest.fixture
    def case(self, monkeypatch):
        y = Poisson().sample(rank_one_positive(8, 6, 40.0), np.random.default_rng(5))

        def no_svd(matrix):
            raise AssertionError("work started before the probe set was checked")

        monkeypatch.setattr(linalg, "svd", no_svd)
        return y, weighted_rank1(0.8, clamp=1e-6)

    def test_mc_divergence(self, case):
        y, fn = case
        with pytest.raises(DomainError, match="probe direction"):
            risk.mc_divergence(fn, y, 5, directions=[])

    def test_pure_poisson(self, case):
        y, fn = case
        with pytest.raises(DomainError, match="samples must be >= 1"):
            risk.pure_poisson(y, fn, mode="approx", samples=0, rng=np.random.default_rng(0))

    def test_pukla_poisson(self, case):
        y, fn = case
        with pytest.raises(DomainError, match="samples must be >= 1"):
            risk.pukla_poisson(y, fn, mode="approx", samples=0, rng=np.random.default_rng(0))


class TestRiskEstimateSerialization:
    def test_json_fields(self):
        est = risk.RiskEstimate(1.5, "SURE", "monte_carlo", samples=8, stderr=0.1, offset_note="x")
        out = est.to_json()
        assert out == {
            "value": 1.5,
            "kind": "SURE",
            "divergence_kind": "monte_carlo",
            "samples": 8,
            "stderr": 0.1,
            "offset_note": "x",
        }

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            risk.RiskEstimate(np.nan, "SURE", "closed_form")

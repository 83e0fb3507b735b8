"""Divergence engines and the per-family unbiased risk estimates."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import linalg, metrics, risk
from svshrink.errors import CapacityError, DegenerateSpectrumError, DomainError, ParameterError, SvshrinkError
from svshrink.linalg import SpectralFunction
from svshrink.models import Gamma, Gaussian, Poisson

from helpers import eigvalsh_downdated_entries, fd_divergence, rank_one_positive, svd_downdated_entries


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
        f, d = 0.5 * s, 0.5 * np.ones_like(s)
        probes = [np.sum(delta * linalg.directional_derivative(fact, f, d, delta)) for delta in directions]
        closed = risk.divergence_closed_form(fact, f, d)
        assert float(np.mean(probes)) == pytest.approx(closed, rel=1e-12)

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
        fact = linalg.svd(y)
        s = fact.singular_values
        # The Gaussian terms: link theta = x / tau^2, log-partition
        # A(theta) = tau^2 theta^2 / 2 with A'(theta) = tau^2 theta, and
        # carrier ratio h'(y) / h(y) = -y / tau^2.
        h_ratio = -y / tau**2

        def sukls_generic(values, derivs):
            theta = linalg.compose(fact, values) / tau**2
            term = (theta + h_ratio) * tau**2 * theta - tau**2 * theta**2 / 2.0
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

        def record(fn, matrix, positions=None, **kwargs):
            seen.append(np.asarray(positions).tolist())
            return downdated_entries(fn, matrix, positions, **kwargs)

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


def count_matrix(shape, counts, rng):
    """A count matrix of shape ``1 x m``, ``n x 1``, wide, tall or square,
    whose counts are generic Poisson draws, all zero or one single count."""
    n, m, extra = (int(v) for v in rng.integers(1, 8, size=3))
    n, m = {"row": (1, m), "column": (n, 1), "wide": (n, n + extra),
            "tall": (m + extra, m), "square": (n, n)}[shape]
    y = np.zeros((n, m))
    if counts == "generic":
        y = rng.poisson(2.0, size=(n, m)).astype(float)
    elif counts == "single":
        y[rng.integers(n), rng.integers(m)] = rng.integers(1, 4)
    return y


def spectral_map(kind, k, floor, rng):
    if kind == "soft":
        return linalg.soft_threshold_function(float(rng.uniform(0.0, 4.0)), floor)
    weights = rng.uniform(size=k) * (rng.uniform(size=k) < 0.8)
    return linalg.weights_function(weights, floor)


def tied_downdates(matrix, positions, weights) -> np.ndarray:
    """Positions whose downdate has two positive singular values whose
    squares are tied to 1e-12 of the largest (linalg.DEGENERACY_RTOL) and
    which the per-index ``weights`` weigh differently; the downdated entry
    depends on the basis chosen for the tied pair there."""
    stack = np.broadcast_to(matrix, (len(positions),) + matrix.shape).copy()
    stack[np.arange(len(positions)), positions[:, 0], positions[:, 1]] -= 1.0
    sq = np.linalg.svd(stack, compute_uv=False) ** 2
    tol = 1e-12 * np.maximum(sq[:, :1], np.finfo(float).tiny)
    tied = (sq[:, :-1] - sq[:, 1:] < tol) & (sq[:, 1:] > tol) & (weights[:-1] != weights[1:])
    return np.any(tied, axis=1)


def generic_counts() -> np.ndarray:
    """A 40 x 40 Poisson draw of a positive signal with well-separated
    singular values: no one-count downdate at its nonzero counts deflates."""
    wave = 1.0 + 0.9 * np.cos(np.linspace(0.0, 2.0 * np.pi, 40))
    signal = rank_one_positive(40, 40, 300.0) + 5.0 * np.outer(wave, wave[::-1])
    return Poisson().sample(signal, np.random.default_rng(40))


def generic_map(kind, s):
    """A soft threshold between the second and third singular values, which
    can keep three downdate roots, or two weights, which can keep two."""
    if kind == "soft":
        return linalg.soft_threshold_function(0.5 * (s[1] + s[2]), 1e-6)
    return linalg.weights_function(np.r_[0.9, 0.6, np.zeros(len(s) - 2)], 1e-6)


def root_counts(monkeypatch) -> list:
    """The number of roots each call of the secular solver computes."""
    counts, solve = [], risk._secular_roots

    def recording(s, z1, z2, top):
        counts.append(top)
        return solve(s, z1, z2, top)

    monkeypatch.setattr(risk, "_secular_roots", recording)
    return counts


def pole_case():
    # Tied singular values 3, 3: most downdates keep 3 as a root, on a pole.
    y = np.zeros((3, 4))
    y[[0, 1, 2], [0, 1, 2]] = [3.0, 3.0, 1.0]
    return y, np.argwhere(np.ones(y.shape, dtype=bool)), linalg.soft_threshold_function(1.5)


def near_tie_case():
    # Two needed roots closer than the deflation tolerance.
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    w, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    y = (q * [3.0 * (1.0 + 5e-12), 3.0, 1.0]) @ w.T
    y[0, 0] += 1.0
    return y, np.array([[0, 0]]), linalg.soft_threshold_function(1.5)


def tie_case(kind):
    # Y - e_0 e_0^T is the identity: its two singular values tie.
    fn = linalg.soft_threshold_function(0.25) if kind == "soft" else linalg.weights_function([0.6, 0.6])
    return np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([[0, 0]]), fn


class TestDowndatedEntries:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["row", "column", "wide", "tall", "square"]),
        st.sampled_from(["generic", "zero", "single"]),
        st.sampled_from(["soft", "weights"]),
        st.sampled_from([None, 1e-6, 0.5]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_svd_enumeration(self, shape, counts, kind, floor, every, pass_fact, seed):
        rng = np.random.default_rng(seed)
        y = count_matrix(shape, counts, rng)
        fn = spectral_map(kind, min(y.shape), floor, rng)
        positions = np.argwhere(np.ones(y.shape, dtype=bool) if every else y > 0)
        fact = linalg.svd(y) if pass_fact else None
        if kind == "weights" and tied_downdates(y, positions, fn.derivs(np.ones(min(y.shape)))).any():
            with pytest.raises(DegenerateSpectrumError, match="one-count downdate"):
                risk.downdated_entries(fn, y, positions, fact=fact)
            return
        expected = svd_downdated_entries(fn, y, positions)
        got = risk.downdated_entries(fn, y, positions, fact=fact)
        assert got.shape == expected.shape
        # 1e-10 of the largest entry, or of 1 (the least nonzero count) when
        # every entry is smaller: an exact 0 comes back as a rounding error.
        scale = max(np.abs(expected).max(initial=0.0), 1.0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * scale)

    def test_tie_weighted_differently_is_degenerate_spectrum_error(self):
        # Y - e_0 e_0^T is the identity: its two singular values tie.
        y, position = np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([[0, 0]])
        with pytest.raises(DegenerateSpectrumError, match="singular values 1 and 2"):
            risk.downdated_entries(linalg.weights_function([0.9, 0.1]), y, position)
        for fn in (linalg.weights_function([0.6, 0.6]), linalg.soft_threshold_function(0.25)):
            np.testing.assert_allclose(risk.downdated_entries(fn, y, position),
                                       svd_downdated_entries(fn, y, position), rtol=0, atol=1e-12)

    @pytest.fixture
    def eigh_rows(self, monkeypatch):
        """The number of downdates solved by a full ``np.linalg.eigh``."""
        rows, eigh = [0], np.linalg.eigh

        def counting(gram):
            rows[0] += len(gram)
            return eigh(gram)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return rows

    def test_root_on_a_pole_falls_back_to_eigh(self, eigh_rows):
        # Y has the tied singular values 3, 3; Y - e_0 e_0^T keeps 3 as a
        # singular value, so a needed root sits on a pole of the secular form.
        y = np.zeros((3, 4))
        y[[0, 1, 2], [0, 1, 2]] = [3.0, 3.0, 1.0]
        positions = np.argwhere(np.ones(y.shape, dtype=bool))
        fn = linalg.soft_threshold_function(1.5)
        expected = svd_downdated_entries(fn, y, positions)
        np.testing.assert_allclose(risk.downdated_entries(fn, y, positions), expected, rtol=0, atol=1e-10)
        assert 0 < eigh_rows[0] < len(positions)

    def test_nearly_tied_needed_roots_fall_back_to_eigh(self, eigh_rows):
        # Y - e_0 e_0^T has the singular values 3 and 3 (1 + 5e-12): closer
        # than the fallback tolerance, farther apart than a tie.
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        y = (q * [3.0 * (1.0 + 5e-12), 3.0, 1.0]) @ w.T
        y[0, 0] += 1.0
        fn = linalg.soft_threshold_function(1.5)
        expected = svd_downdated_entries(fn, y, [[0, 0]])
        np.testing.assert_allclose(risk.downdated_entries(fn, y, [[0, 0]]), expected, rtol=0, atol=1e-10)
        assert eigh_rows[0] == 1

    @pytest.mark.parametrize("kind", ["soft", "weights"])
    def test_generic_positions_never_reach_eigh(self, monkeypatch, kind):
        y = generic_counts()
        fact = linalg.svd(y)
        fn = generic_map(kind, fact.singular_values)
        positions = np.argwhere(y > 0)
        expected = svd_downdated_entries(fn, y, positions)
        for name in ("eigh", "eigvalsh"):
            def refuse(gram, name=name):
                raise AssertionError(f"a generic downdate reached np.linalg.{name}")

            monkeypatch.setattr(np.linalg, name, refuse)
        got = risk.downdated_entries(fn, y, positions, fact=fact)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize("kind", ["soft", "weights"])
    def test_matches_the_eigvalsh_enumeration(self, kind):
        y = generic_counts()
        fn = generic_map(kind, linalg.svd(y).singular_values)
        positions = np.argwhere(y > 0)
        expected = eigvalsh_downdated_entries(fn, y, positions)
        got = risk.downdated_entries(fn, y, positions)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("case", [pole_case, near_tie_case, lambda: tie_case("soft"),
                                      lambda: tie_case("weights")], ids=["pole", "near-tie", "tie-soft", "tie-weights"])
    def test_deflating_downdates_match_the_eigvalsh_enumeration(self, case):
        y, positions, fn = case()
        expected = eigvalsh_downdated_entries(fn, y, positions)
        got = risk.downdated_entries(fn, y, positions)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_full_support_solves_every_root(self, monkeypatch):
        y = generic_counts()
        positions = np.argwhere(y > 0)
        expected = svd_downdated_entries(half_map(), y, positions)
        tops = root_counts(monkeypatch)
        got = risk.downdated_entries(half_map(), y, positions)
        assert set(tops) == {40}
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_inertia_count_matches_eigvalsh(self):
        # Haynsworth's count of the eigenvalues of D + Z J Z^T above mu, at
        # random points, with a tied pair of poles in every third case.
        rng = np.random.default_rng(7)
        for case in range(60):
            k = int(rng.integers(1, 10))
            d = np.sort(rng.uniform(size=k) ** 2)[::-1]
            if case % 3 == 0 and k > 2:
                d[2] = d[1]
            z1, z2 = rng.standard_normal((2, 4, k)) * rng.uniform(0.01, 1.0, size=(2, 1, 1))
            mu = rng.uniform(-0.5, 2.0, size=(4, k))
            _, _, above = risk._secular_terms(d, np.stack([z1 * z1, z2 * z2, z1 * z2], axis=2), mu)
            for i in range(4):
                eigenvalues = np.linalg.eigvalsh(np.diag(d) + np.outer(z1[i], z1[i]) - np.outer(z2[i], z2[i]))
                np.testing.assert_array_equal(above[i], (eigenvalues > mu[i][:, None]).sum(axis=1))

    def test_repeated_root_off_the_poles_falls_back_to_eigh(self, eigh_rows):
        # Y - e_3 e_1^T has the singular value 1 twice, between two poles:
        # the secular roots of a repeated root come out about 1e-9 apart,
        # farther than the deflation tolerance, and no vector is determined.
        y = np.array([[0, 0, 0, 0, 0], [0, 0, 2, 1, 1], [0, 0, 0, 1, 0], [1, 0, 0, 0, 0], [1, 0, 1, 1, 1],
                      [0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 2, 0], [0, 1, 1, 0, 0]],
                     dtype=float)
        expected = svd_downdated_entries(half_map(), y, [[3, 1]])
        np.testing.assert_allclose(risk.downdated_entries(half_map(), y, [[3, 1]]), expected, rtol=0, atol=1e-10)
        assert eigh_rows[0] == 1

    def test_threshold_between_sigma_1_and_sigma_1_plus_one(self):
        # A downdate raises sigma_1 by 1 at most: Y - e_0 e_0^T has sigma_1 = 4
        # here, so a soft threshold at 3.5 keeps its top root.
        y = np.array([[-3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        fn = linalg.soft_threshold_function(3.5)
        expected = svd_downdated_entries(fn, y, np.argwhere(np.ones(y.shape, dtype=bool)))
        assert expected[0] == pytest.approx(-0.5)
        np.testing.assert_allclose(risk.downdated_entries(fn, y), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["soft", "weights"])
    def test_support_that_ends_early_at_a_tall_shape(self, monkeypatch, kind):
        signal = rank_one_positive(24, 10, 200.0) + 2.0
        y = Poisson().sample(signal, np.random.default_rng(24))
        fn = generic_map(kind, linalg.svd(y).singular_values)
        positions = np.argwhere(np.ones(y.shape, dtype=bool))
        expected = svd_downdated_entries(fn, y, positions)
        tops = root_counts(monkeypatch)
        got = risk.downdated_entries(fn, y, positions)
        assert set(tops) == {3 if kind == "soft" else 2}  # of 10
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_all_positions_by_default_in_row_major_order(self):
        y = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0]])
        fn = linalg.soft_threshold_function(0.5)
        expected = svd_downdated_entries(fn, y, np.argwhere(np.ones(y.shape, dtype=bool)))
        np.testing.assert_allclose(risk.downdated_entries(fn, y), expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(risk.downdated_entries(fn, y.T), expected.reshape(2, 3).T.ravel(),
                                   rtol=0, atol=1e-12)

    def test_factorization_of_another_shape_is_domain_error(self):
        y = np.ones((3, 4))
        with pytest.raises(DomainError, match="factorization"):
            risk.downdated_entries(half_map(), y, fact=linalg.svd(y.T))

    @pytest.mark.parametrize("positions", [[1, 2], np.zeros((2, 4), dtype=int)])
    def test_positions_not_in_pairs_are_domain_error(self, positions):
        with pytest.raises(DomainError, match=r"\(p, 2\)"):
            risk.downdated_entries(half_map(), np.ones((3, 4)), positions)

    @pytest.mark.parametrize("position", [[-1, 0], [0.5, 0], [6, 0], [0, 8], [True, 0]])
    def test_position_off_the_matrix_is_domain_error(self, monkeypatch, position):
        # A negative, fractional or out-of-range position would otherwise
        # index silently (row n - 1, row 0) or raise a bare IndexError.  The
        # first bad row is named before any factorization.
        y = np.random.default_rng(8).poisson(3.0, size=(6, 8)).astype(float)

        def no_svd(matrix):
            raise AssertionError("work started before the positions were checked")

        monkeypatch.setattr(linalg, "svd", no_svd)
        message = r"position \[.*\] \(row 1\) is not an integer pair in \[0, 6\) x \[0, 8\)"
        with pytest.raises(DomainError, match=message):
            risk.downdated_entries(half_map(), y, [[1, 2], position, [7, 9]])

    def test_map_that_does_not_vanish_at_zero_is_parameter_error(self):
        fixed = np.array([3.0, 2.0, 1.0])
        fn = SpectralFunction(lambda sigmas: fixed, lambda sigmas: np.zeros_like(sigmas))
        with pytest.raises(ParameterError, match="vanishes at 0"):
            risk.downdated_entries(fn, np.ones((3, 4)))


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
        with pytest.raises(DomainError, match="samples must be >= 1"):
            risk.mc_divergence(fn, y, 0, np.random.default_rng(0))

    def test_pure_poisson(self, case):
        y, fn = case
        with pytest.raises(DomainError, match="samples must be >= 1"):
            risk.pure_poisson(y, fn, mode="approx", samples=0, rng=np.random.default_rng(0))

    def test_pukla_poisson(self, case):
        y, fn = case
        with pytest.raises(DomainError, match="samples must be >= 1"):
            risk.pukla_poisson(y, fn, mode="approx", samples=0, rng=np.random.default_rng(0))


DIVERGENCES = [risk.MonteCarloDivergence(3.25, 0.5, 7), risk.MonteCarloDivergence(-1.5, None, 1), 3.25]


class TestEstimateContract:
    """Every estimate is ``lead + scale * divergence``: a Monte-Carlo
    divergence brings its sample count and a standard error times
    ``|scale|``; a float is closed form, or exact for an enumeration."""

    @staticmethod
    def check(est, kind, value, scale, divergence):
        assert est.estimator_kind == kind
        assert est.value == value
        if isinstance(divergence, risk.MonteCarloDivergence):
            stderr = None if divergence.stderr is None else abs(scale) * divergence.stderr
            assert (est.divergence_kind, est.samples, est.stderr) == ("monte_carlo", divergence.samples, stderr)
        else:
            assert (est.divergence_kind, est.samples, est.stderr) == ("closed_form", None, None)

    @staticmethod
    def value_of(divergence):
        return divergence.value if isinstance(divergence, risk.MonteCarloDivergence) else divergence

    @pytest.mark.parametrize("divergence", DIVERGENCES)
    def test_sure_entrywise_and_spectral(self, divergence):
        y = np.random.default_rng(30).standard_normal((4, 6))
        fact = linalg.svd(y)
        f = 0.5 * fact.singular_values
        estimate = linalg.compose(fact, f)
        tau, div = 0.3, self.value_of(divergence)
        value = -4 * 6 * tau**2 + float(np.sum((estimate - y) ** 2)) + 2.0 * tau**2 * div
        self.check(risk.sure_gaussian(y, estimate, tau, divergence), "SURE", value, 2.0 * tau**2, divergence)

    @pytest.mark.parametrize("divergence", DIVERGENCES)
    def test_gsure_and_sukls(self, divergence):
        rng = np.random.default_rng(31)
        y = rng.gamma(4.0, 0.5, size=(3, 5)) + 0.1
        f = 0.8 * y + 0.2
        L, div = 4.0, self.value_of(divergence)
        lead = float(np.sum(L**2 / f**2 - 2.0 * L * (L - 1.0) / (y * f) + (L - 1.0) * (L - 2.0) / y**2))
        self.check(risk.gsure_gamma(y, f, L, divergence), "GSURE", lead + 2.0 * div, 2.0, divergence)
        value = float(np.sum((L - 1.0) * f / y - L * np.log(f))) - L * 3 * 5 + div
        self.check(risk.sukls_gamma(y, f, L, divergence), "SUKLS", value, 1.0, divergence)

    def test_poisson_modes(self):
        rng = np.random.default_rng(32)
        y = Poisson().sample(rank_one_positive(5, 7, 40.0), rng)
        y[0, 0] = 0.0
        fn = weighted_rank1(0.9, 1e-6)
        fhat = linalg.reconstruct(linalg.svd(y), fn)
        nonzero = np.argwhere(y > 0)
        counts = y[nonzero[:, 0], nonzero[:, 1]]
        down = risk.downdated_entries(fn, y, nonzero)
        crosses = float(np.sum(counts * down))
        logs = float(np.sum(counts * np.log(np.maximum(down, risk.PUKLA_LOG_FLOOR))))
        exact = {
            "PURE": (risk.pure_poisson(y, fn), float(np.sum(fhat**2)) - 2.0 * crosses),
            "PUKLA": (risk.pukla_poisson(y, fn), float(np.sum(fhat)) - logs),
        }
        for kind, (est, value) in exact.items():
            assert (est.estimator_kind, est.value) == (kind, value)
            assert (est.divergence_kind, est.samples, est.stderr) == ("exact", None, None)
        for poisson in (risk.pure_poisson, risk.pukla_poisson):
            # One rng of a seed draws, one at a time, the three probes that
            # another of the same seed draws at once.
            one_rng = np.random.default_rng(33)
            ones = [poisson(y, fn, mode="approx", rng=one_rng) for _ in range(3)]
            assert {(one.divergence_kind, one.samples, one.stderr) for one in ones} == {("monte_carlo", 1, None)}
            est = poisson(y, fn, mode="approx", samples=3, rng=np.random.default_rng(33))
            assert (est.divergence_kind, est.samples) == ("monte_carlo", 3)
            # A one-probe value is lead + scale * term, so the values spread
            # |scale| times as wide as the terms.
            spread = float(np.std([one.value for one in ones], ddof=1) / np.sqrt(3))
            assert est.stderr == pytest.approx(spread, rel=1e-9)


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


# -- the fit objective against the public estimates ---------------------------

objective_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(2, 9)),  # 1 x m
    st.tuples(st.integers(3, 6), st.integers(7, 10)),  # wide
    st.tuples(st.integers(7, 10), st.integers(3, 6)),  # tall
    st.integers(2, 8).map(lambda n: (n, n)),  # square
)
# Weights at 0, small or near 1: without a floor, a positive estimate needs a
# leading weight near 1 and small ones after it.
objective_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 0.2), st.floats(0.8, 1.0)), min_size=10, max_size=10
)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of its error."""
    try:
        return fn(*args)
    except SvshrinkError as exc:
        return type(exc), str(exc)


def public_gamma_chain(objective, y, fact, L, fn, samples, seed):
    """GSURE or SUKLS of ``fn`` through the public estimates, each checking its
    own inputs, with the probes the objective draws from an rng of ``seed``."""
    s = fact.singular_values
    raw = linalg.compose(fact, fn.values(s))
    estimate = linalg.clamp(raw, fn.clamp_floor)
    if objective == "gsure":
        theta = risk.mc_theta_divergence_gamma(fn, y, L, samples, np.random.default_rng(seed), fact=fact)
        return risk.gsure_gamma(y, estimate, L, theta)
    if fn.clamp_floor is not None and np.any(raw < fn.clamp_floor):
        divergence = risk.mc_divergence(fn, y, samples, np.random.default_rng(seed), fact=fact)
    else:
        divergence = risk.divergence_closed_form(fact, fn.values(s), fn.derivs(s))
    return risk.sukls_gamma(y, estimate, L, divergence)


@settings(max_examples=150, deadline=None)
@given(
    objective_shapes,
    st.integers(0, 2**32 - 1),
    st.sampled_from(["gsure", "sukls"]),
    st.floats(2.5, 10.0),
    objective_weights,
    st.sampled_from(["none", "low", "binding"]),
    st.booleans(),
    st.sampled_from([1, 64]),
)
def test_gamma_objective_is_the_public_chain(shape, seed, objective, L, draws, floor, tie, samples):
    # The objective checks and precomputes once what the public estimates
    # check on every call; the estimate it gives must be the same, bit for
    # bit, and so must every error.
    rng = np.random.default_rng(seed)
    n, m = shape
    y = Gamma(L).sample(rank_one_positive(n, m, 5.0 * np.sqrt(n * m)), rng)
    fact = linalg.svd(y)
    weights = np.array(draws[: fact.rank_bound])
    if tie and fact.rank_bound >= 3:
        # Tie indices 2 and 3, which the map zeroes: the divergence is then defined.
        s = fact.singular_values.copy()
        s[2] = s[1]
        fact = linalg.SvdFactorization(s, fact.left_vectors, fact.right_vectors)
        weights[1:3] = 0.0
    raw = linalg.compose(fact, weights * fact.singular_values)
    clamp = {"none": None, "low": 1e-6, "binding": float(np.quantile(y, 0.2))}[floor]
    fn = linalg.weights_function(weights, clamp)
    probe_seed = seed + 1
    evaluate = risk.make_risk_objective(
        y, fact, Gamma(L), objective, rng=np.random.default_rng(probe_seed), samples=samples
    )
    got = outcome(evaluate, fn)
    assert got == outcome(public_gamma_chain, objective, y, fact, L, fn, samples, probe_seed)
    if objective == "sukls" and floor == "binding" and isinstance(got, risk.RiskEstimate):
        # SUKLS probes only once the floor binds; GSURE always probes.
        assert np.any(raw < clamp) == (got.divergence_kind == "monte_carlo")


@pytest.mark.parametrize("scale", [1e-158, 4e-266])
def test_gsure_of_a_vanishing_estimate_is_not_finite(scale):
    # L / f^2 overflows (or divides by a squared zero) although f > 0: the
    # estimate is rejected as not finite, with no floating-point warning.
    y = Gamma(3.0).sample(rank_one_positive(1, 2, 7.0), np.random.default_rng(0))
    fact = linalg.svd(y)
    fn = linalg.weights_function(np.array([scale]))
    evaluate = risk.make_risk_objective(y, fact, Gamma(3.0), "gsure", rng=np.random.default_rng(1))
    with pytest.raises(DomainError, match="risk estimate is not finite"):
        evaluate(fn)
    with pytest.raises(DomainError, match="risk estimate is not finite"):
        public_gamma_chain("gsure", y, fact, 3.0, fn, 1, 1)


def test_gamma_objective_checks_the_observation_once(monkeypatch):
    y = Gamma(4.0).sample(rank_one_positive(12, 9, 30.0), np.random.default_rng(3))
    fact = linalg.svd(y)
    calls = []
    check = risk.validate_positive
    monkeypatch.setattr(risk, "validate_positive", lambda *args: calls.append(args) or check(*args))
    evaluate = risk.make_risk_objective(y, fact, Gamma(4.0), "gsure", rng=np.random.default_rng(4))
    for w in np.linspace(0.2, 1.0, 5):
        weights = np.zeros(fact.rank_bound)
        weights[0] = w
        assert np.isfinite(evaluate(linalg.weights_function(weights, 1e-6)).value)
    assert len(calls) == 1


def public_poisson_chain(objective, y, fact, fn, mode, samples, seed):
    """PURE or PUKLA of ``fn`` through the public estimate, which checks its
    own inputs, with the probes the objective draws from an rng of ``seed``."""
    poisson = risk.pure_poisson if objective == "pure" else risk.pukla_poisson
    return poisson(y, fn, mode=mode, samples=samples, rng=np.random.default_rng(seed), fact=fact)


@settings(max_examples=150, deadline=None)
@given(
    objective_shapes,
    st.integers(0, 2**32 - 1),
    st.sampled_from(["pure", "pukla"]),
    st.sampled_from(["exact", "approx", "capped"]),
    objective_weights,
    st.sampled_from(["none", "low", "binding"]),
    st.booleans(),
    st.sampled_from([1, 64]),
)
def test_poisson_objective_is_the_public_chain(shape, seed, objective, mode, draws, floor, tie, samples):
    # The objective checks the counts once, when it is built, where the
    # public estimate checks them on every call; the estimate it gives must
    # be the same, bit for bit, and so must every error.  Above the cap an
    # exact objective falls back to the probes, where the public exact
    # estimate refuses.
    rng = np.random.default_rng(seed)
    n, m = shape
    y = Poisson().sample(rank_one_positive(n, m, 4.0 * np.sqrt(n * m)), rng)
    fact = linalg.svd(y)
    weights = np.array(draws[: fact.rank_bound])
    if tie and fact.rank_bound >= 3:
        # Tie indices 2 and 3: a map that weighs them differently has no
        # Jacobian there, and the probes raise DegenerateSpectrumError.
        s = fact.singular_values.copy()
        s[2] = s[1]
        fact = linalg.SvdFactorization(s, fact.left_vectors, fact.right_vectors)
    clamp = {"none": None, "low": 1e-6, "binding": max(float(np.quantile(y, 0.2)), 1.0)}[floor]
    fn = linalg.weights_function(weights, clamp)
    probe_seed = seed + 1
    with pytest.MonkeyPatch.context() as patch:
        if mode == "capped":
            patch.setattr(risk, "EXACT_DOWNDATE_CAP", y.size - 1)
        evaluate = risk.make_risk_objective(
            y, fact, Poisson(), objective, rng=np.random.default_rng(probe_seed), samples=samples,
            exact=mode != "approx",
        )
        got = outcome(evaluate, fn)
        public = "exact" if mode == "exact" else "approx"
        assert got == outcome(public_poisson_chain, objective, y, fact, fn, public, samples, probe_seed)
        if mode == "capped":
            with pytest.raises(CapacityError, match="exact one-count enumeration"):
                public_poisson_chain(objective, y, fact, fn, "exact", samples, probe_seed)
    if isinstance(got, risk.RiskEstimate):
        assert got.divergence_kind == ("exact" if mode == "exact" else "monte_carlo")


def test_poisson_objective_checks_the_observation_once(monkeypatch):
    y = Poisson().sample(rank_one_positive(12, 9, 60.0), np.random.default_rng(6))
    fact = linalg.svd(y)
    calls = []
    check = risk.validate_counts
    monkeypatch.setattr(risk, "validate_counts", lambda *args: calls.append(args) or check(*args))

    def public(*args, **kwargs):
        raise AssertionError("the objective called a public Poisson estimate")

    monkeypatch.setattr(risk, "pure_poisson", public)
    monkeypatch.setattr(risk, "pukla_poisson", public)
    for objective, exact in itertools.product(["pure", "pukla"], [False, True]):
        calls.clear()
        evaluate = risk.make_risk_objective(
            y, fact, Poisson(), objective, rng=np.random.default_rng(7), samples=3, exact=exact
        )
        for w in np.linspace(0.2, 1.0, 5):
            weights = np.zeros(fact.rank_bound)
            weights[0] = w
            assert np.isfinite(evaluate(linalg.weights_function(weights, 1e-6)).value)
        assert len(calls) == 1, (objective, exact)


@pytest.mark.parametrize("objective", ["pure", "pukla"])
def test_poisson_objective_rejects_non_counts_when_built(objective):
    y = np.array([[1.0, 2.0, 0.0], [3.0, 0.5, 1.0]])
    with pytest.raises(DomainError, match=r"nonnegative integers; entry \(1, 1\) is 0.5"):
        risk.make_risk_objective(y, linalg.svd(y), Poisson(), objective, rng=np.random.default_rng(0))


@pytest.mark.parametrize("objective", ["gsure", "sukls"])
def test_gamma_objectives_need_a_shape_above_two(objective):
    y = Gamma(2.0).sample(rank_one_positive(6, 5, 10.0), np.random.default_rng(5))
    with pytest.raises(ParameterError, match=f"objective '{objective}' requires L > 2, got 2.0"):
        risk.make_risk_objective(y, linalg.svd(y), Gamma(2.0), objective)


@pytest.mark.parametrize("model", [Gaussian(1.0), Gamma(4.0), Poisson()])
def test_an_empty_objective_name_is_not_the_default(model):
    assert risk.resolve_objective(model) == risk.DEFAULT_OBJECTIVES[model.family]
    with pytest.raises(ParameterError, match=f"objective '' is not defined for the {model.family} family"):
        risk.resolve_objective(model, "")

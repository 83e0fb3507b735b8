"""The Gaussian SURE chain (the closed-form divergence, SURE from the
spectrum and the soft-threshold derivative) against copies that convert,
mask and reduce on every call, and the soft-threshold SURE scorer against
the chain: the same bits, and the same errors."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svshrink import linalg, risk, shrinkage
from svshrink.errors import DegenerateSpectrumError, DomainError, NumericalError, SvshrinkError
from svshrink.linalg import SpectralFunction, SvdFactorization
from svshrink.models import Gaussian

from helpers import (
    reference_divergence_closed_form,
    reference_soft_threshold_derivs,
    reference_sure_gaussian,
    reference_sure_gaussian_spectral,
)

shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),  # 1 x m
    st.tuples(st.integers(2, 8), st.integers(9, 14)),  # wide
    st.tuples(st.integers(9, 14), st.integers(2, 8)),  # tall
    st.integers(1, 10).map(lambda n: (n, n)),
)
# A few shared values give exact ties and exact zeros among the singular values.
spectrum_values = st.one_of(st.sampled_from([0.0, 0.5, 2.0, 3.0]), st.floats(0.0, 10.0))
map_kinds = st.sampled_from(["soft", "soft_at_value", "weights", "arbitrary"])


def factorization(shape, values) -> SvdFactorization:
    """A factorization with the given singular values, sorted descending; the
    divergence and SURE read only the spectrum and the shape."""
    n, m = shape
    k = min(n, m)
    s = np.sort(np.resize(np.asarray(values, dtype=float), k))[::-1].copy()
    return SvdFactorization(s, np.eye(n, k), np.eye(m, k))


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of its error."""
    try:
        return fn(*args)
    except SvshrinkError as exc:
        return type(exc), str(exc)


def assert_same(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert type(got) is type(expected)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (got, expected)


# What a map on up to 14 singular values is drawn from: a threshold level as
# a share of sigma_1 + 1, an index to threshold exactly at, and per-index
# weights, signs and derivatives (read from the front).
entries = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
map_draws = st.tuples(
    st.floats(0.0, 1.0),
    st.integers(0, 13),
    st.lists(entries, min_size=14, max_size=14),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=14, max_size=14),
    st.lists(entries, min_size=14, max_size=14),
)


def spectral_map(kind, s, draws):
    """``(values, derivs)`` of a map on the spectrum ``s``: a soft threshold
    (at a drawn level, or exactly at one of the singular values), a weight
    map, or arbitrary values and derivatives."""
    k = len(s)
    share, index, weights, signs, derivs = draws
    if kind.startswith("soft"):
        lam = float(s[index % k]) if kind == "soft_at_value" else share * (float(s[0]) + 1.0)
        d = linalg.soft_threshold_derivs(s, lam)
        expected = reference_soft_threshold_derivs(s, lam)
        assert d.dtype == expected.dtype and d.tobytes() == expected.tobytes()
        return linalg.soft_threshold_values(s, lam), d
    w = np.array(weights[:k])
    if kind == "weights":
        return w * s, w
    return 2.0 * np.array(signs[:k]) * w, np.array(derivs[:k])


# A value of -2 at a subnormal singular value: its |m - n| term would be
# 0 * -inf for a square shape, where it is skipped, and overflows otherwise.
subnormal = (2.2250738585e-313,)
overflowing_map = (0.0, 0, [1.0] * 14, [-1.0] * 14, [0.0] * 14)


@settings(max_examples=400, deadline=None)
@given(shapes, st.lists(spectrum_values, min_size=1, max_size=14), map_kinds, st.floats(0.01, 10.0), map_draws)
@example((1, 1), subnormal, "arbitrary", 1.0, overflowing_map)
@example((1, 2), subnormal, "arbitrary", 1.0, overflowing_map)
def test_divergence_and_sure_are_bit_identical(shape, values, kind, tau, draws):
    fact = factorization(shape, values)
    f, d = spectral_map(kind, fact.singular_values, draws)
    div = outcome(risk.divergence_closed_form, fact, f, d)
    assert_same(div, outcome(reference_divergence_closed_form, fact, f, d))
    if isinstance(div, tuple):
        return
    got = objective_sure(fact, f, d, tau)
    expected = reference_sure_gaussian_spectral(fact, f, tau, div)
    assert_same(got.value, expected.value)
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(shapes, st.integers(0, 2**32 - 1), st.floats(0.01, 10.0), st.floats(-50.0, 50.0))
def test_entrywise_sure_is_bit_identical(shape, seed, tau, divergence):
    rng = np.random.default_rng(seed)
    y, estimate = rng.standard_normal(shape), rng.standard_normal(shape)
    got = risk.sure_gaussian(y, estimate, tau, divergence)
    assert_same(got.value, reference_sure_gaussian(y, estimate, tau, divergence).value)


def test_ties_zeros_and_a_threshold_at_a_value():
    # A tie under a map that does not vanish there raises, and one under a
    # map that does is exempt; so is a zero singular value the map keeps at 0.
    fact = factorization((3, 5), [2.0, 2.0, 0.0])
    assert fact.has_ties and fact.singular_values[-1] == 0.0
    raised = outcome(risk.divergence_closed_form, fact, np.ones(3), np.ones(3))
    assert raised[0] is DegenerateSpectrumError and "coincide" in raised[1]
    assert outcome(reference_divergence_closed_form, fact, np.ones(3), np.ones(3)) == raised
    exempt = np.zeros(3)
    assert_same(risk.divergence_closed_form(fact, exempt, exempt), 0.0)
    untied = factorization((3, 5), [3.0, 2.0, 0.0])
    zero = outcome(risk.divergence_closed_form, untied, np.ones(3), np.zeros(3))
    assert zero == (DegenerateSpectrumError, "singular value 3 is zero but the spectral map does not vanish there")
    assert linalg.soft_threshold_derivs(untied.singular_values, 2.0).tolist() == [1.0, 0.5, 0.0]


def test_a_subnormal_singular_value_under_a_map_that_does_not_vanish():
    # The square shape has no |m - n| term, so its divergence is finite; the
    # wide one's term is -2 / 2.2e-313 and raises rather than warns.
    f, d = np.array([-2.0]), np.zeros(1)
    assert_same(risk.divergence_closed_form(factorization((1, 1), subnormal), f, d), 0.0)
    raised = outcome(risk.divergence_closed_form, factorization((1, 2), subnormal), f, d)
    assert raised[0] is NumericalError and "is not finite" in raised[1]


def objective_sure(fact, f, d, tau):
    """SURE of the map with values ``f`` and derivatives ``d``, as the fits'
    risk objective scores it from the spectrum."""
    y = linalg.compose(fact, fact.singular_values)
    fn = SpectralFunction(lambda s: f, lambda s: d)
    return risk.make_risk_objective(y, fact, Gaussian(tau), "sure")(fn)


def chain_score(fact, tau):
    """SURE of a soft threshold through the map chain the scorer replaces."""
    y = linalg.compose(fact, fact.singular_values)
    evaluate = risk.make_risk_objective(y, fact, Gaussian(tau), "sure")
    return lambda lam: evaluate(linalg.soft_threshold_function(lam)).value


def threshold(kind, s, share, index):
    """A threshold on the spectrum ``s``: 0, exactly one of the singular
    values, a share of ``sigma_1 + 1``, above ``sigma_1``, NaN or negative."""
    return {
        "zero": 0.0,
        "at_value": float(s[index % len(s)]),
        "share": share * (float(s[0]) + 1.0),
        "above": float(s[0]) * (1.0 + share) + 1.0,
        "nan": float("nan"),
        "negative": -share - 1e-3,
    }[kind]


# The largest taus have a finite square, but not n m tau^2 or 2 tau^2 times
# the divergence, so the estimate is not finite.
taus = st.one_of(st.floats(0.01, 10.0), st.sampled_from([1e153, 1e154, 1.3e154]))
threshold_kinds = st.sampled_from(["zero", "at_value", "share", "above", "nan", "negative"])


@settings(max_examples=400, deadline=None)
@given(
    shapes, st.lists(spectrum_values, min_size=1, max_size=14), threshold_kinds,
    st.floats(0.0, 1.0), st.integers(0, 13), taus,
)
@example((3, 5), [2.0, 2.0, 0.0], "at_value", 0.0, 0, 1.0)  # a tie the map keeps
@example((3, 5), [2.0, 2.0, 0.0], "above", 0.0, 0, 1.0)  # a tie the map drops
@example((2, 3), [3.0, 0.0], "nan", 0.0, 0, 1.0)  # a zero under a NaN map
@example((10, 10), [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0], "share", 0.5, 0, 1e154)
def test_soft_threshold_sure_is_the_chain_bit_for_bit(shape, values, kind, share, index, tau):
    fact = factorization(shape, values)
    lam = threshold(kind, fact.singular_values, share, index)
    got = outcome(risk.soft_threshold_sure(fact, tau), lam)
    assert_same(got, outcome(chain_score(fact, tau), lam))


@settings(max_examples=200, deadline=None)
@given(st.lists(spectrum_values, min_size=1, max_size=14), threshold_kinds, st.floats(0.0, 1.0), st.integers(0, 13))
def test_the_slope_is_the_derivative_sum(values, kind, share, index):
    # Exact: every partial sum of 0, 1/2 and 1 terms is a multiple of 1/2.
    s = np.sort(np.asarray(values))[::-1]
    lam = threshold(kind, s, share, index)
    expected = float(linalg.soft_threshold_derivs(s, lam).sum())
    assert_same(risk._soft_threshold_slope((-s).tolist(), lam), expected)


def test_soft_threshold_sure_errors():
    # Each error keeps the chain's type and text.
    tied = factorization((3, 5), [2.0, 2.0, 0.0])
    raised = outcome(risk.soft_threshold_sure(tied, 1.0), 1.0)
    assert raised[0] is DegenerateSpectrumError and "coincide" in raised[1]
    dropped = risk.soft_threshold_sure(tied, 1.0)(2.5)  # the map vanishes on the tied pair
    assert_same(dropped, chain_score(tied, 1.0)(2.5))
    zero = outcome(risk.soft_threshold_sure(factorization((2, 3), [3.0, 0.0]), 1.0), float("nan"))
    assert zero == (DegenerateSpectrumError, "singular value 2 is zero but the spectral map does not vanish there")
    wide = outcome(risk.soft_threshold_sure(factorization((2, 3), [3.0, 1.0]), 1.0), float("nan"))
    assert wide[0] is NumericalError and "is not finite" in wide[1]
    square = outcome(risk.soft_threshold_sure(factorization((2, 2), [3.0, 1.0]), 1.0), float("nan"))
    assert square == (DomainError, "risk estimate is not finite: nan")
    large = outcome(risk.soft_threshold_sure(factorization((10, 10), np.arange(10.0, 0.0, -1.0)), 1e154), 1.0)
    assert large == (DomainError, "risk estimate is not finite: nan")
    assert outcome(risk.soft_threshold_sure(tied, 1.0), -1.0) == (DomainError, "soft threshold must be nonnegative")


def test_soft_threshold_fit_finds_the_chains_threshold():
    # Equal scores at every trial give the same Brent path and threshold.
    for seed, shape in enumerate(((12, 10), (10, 12), (9, 9), (1, 7))):
        y = np.random.default_rng(seed).standard_normal(shape)
        y[0] += 3.0
        fact = linalg.svd(y)
        lam = shrinkage.soft_threshold_fit(fact, risk.soft_threshold_sure(fact, 0.5))
        assert_same(lam, shrinkage.soft_threshold_fit(fact, chain_score(fact, 0.5)))

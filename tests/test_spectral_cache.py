"""Spectral quantities cached on the factorization (tie mask, pair sums) and
the kernels that read them, against the per-call formulas they replaced."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import linalg, risk, shrinkage
from svshrink.errors import DegenerateSpectrumError
from svshrink.linalg import SpectralFunction, SvdFactorization
from svshrink.models import Gaussian

# -- reference implementations: the per-call formulas as they were before the
# factorization cached its pair sums and tie mask ---------------------------


def reference_check_distinct(sigmas, values=None, derivs=None):
    s = np.asarray(sigmas, dtype=float)
    k = len(s)
    if k < 2:
        return np.zeros((k, k), dtype=bool)
    sq = s**2
    tied = np.abs(sq[:, None] - sq[None, :]) < linalg._tie_tolerance(s)
    np.fill_diagonal(tied, False)
    if values is None:
        inert = np.zeros(k, dtype=bool)
    else:
        inert = np.asarray(values) == 0.0
        if derivs is not None:
            inert &= np.asarray(derivs) == 0.0
    exempt = tied & inert[:, None] & inert[None, :]
    offending = tied & ~exempt
    if offending.any():
        i, j = np.argwhere(offending)[0]
        raise DegenerateSpectrumError(
            f"singular values {min(i, j) + 1} and {max(i, j) + 1} coincide to working precision"
        )
    return exempt


def reference_divergence(fact, f, d):
    s = fact.singular_values
    exempt = reference_check_distinct(s, f, d)
    ratio = linalg._safe_ratio(f, s)
    total = abs(fact.m - fact.n) * float(np.sum(ratio)) + float(np.sum(d))
    sq = s**2
    diff = sq[:, None] - sq[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = np.where(diff != 0.0, s[:, None] / np.where(diff == 0.0, 1.0, diff), 0.0)
    pair[exempt] = 0.0
    np.fill_diagonal(pair, 0.0)
    total += 2.0 * float(f @ pair.sum(axis=1))
    return total


def reference_weights(fact, tau, active):
    s = fact.singular_values
    sq = s**2
    tol = linalg._tie_tolerance(s)
    weights = {}
    for k in active:
        i = k - 1
        if sq[i] == 0.0:
            raise DegenerateSpectrumError(f"singular value {k} is zero")
        diff = sq[i] - np.delete(sq, i)
        if np.any(np.abs(diff) < tol):
            other = int(np.argwhere(np.abs(sq - sq[i]) < tol).ravel()[0])
            pair = sorted((i + 1, other + 1 if other != i else i + 2))
            raise DegenerateSpectrumError(
                f"singular values {pair[0]} and {pair[1]} coincide to working precision"
            )
        factor = 1.0 + abs(fact.m - fact.n) + 2.0 * float(np.sum(sq[i] / diff))
        weights[k] = float(np.clip(1.0 - tau**2 / sq[i] * factor, 0.0, 1.0))
    return weights


def named_pair(exc: Exception) -> tuple[int, int]:
    found = re.search(r"singular values (\d+) and (\d+)", str(exc))
    assert found, str(exc)
    return int(found.group(1)), int(found.group(2))


def outcome(call):
    """``("ok", result)`` or ``("tie", named pair)``."""
    try:
        return "ok", call()
    except DegenerateSpectrumError as exc:
        return "tie", named_pair(exc)


# -- strategies ----------------------------------------------------------------

shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
)
seeds = st.integers(0, 2**32 - 1)


def random_fact(shape, seed, scale=1.0):
    y = scale * np.random.default_rng(seed).standard_normal(shape)
    return y, linalg.svd(y)


def random_map(fact, rng):
    """Per-index weights in [0, 1], about a third of them exactly 0."""
    w = rng.uniform(0.0, 1.0, fact.rank_bound)
    w[rng.uniform(size=fact.rank_bound) < 0.35] = 0.0
    return w * fact.singular_values, w


# -- properties ----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(shapes, seeds, st.floats(1e-3, 1e3))
def test_cached_divergence_matches_pre_change_formula(shape, seed, scale):
    _, fact = random_fact(shape, seed, scale)
    f, d = random_map(fact, np.random.default_rng(seed + 1))
    expected = reference_divergence(fact, f, d)
    assert risk.divergence_closed_form(fact, f, d) == pytest.approx(expected, rel=1e-12)
    assert risk.divergence_closed_form(fact.transposed(), f, d) == pytest.approx(
        expected, rel=1e-12
    )


@settings(max_examples=80, deadline=None)
@given(shapes, seeds)
def test_identity_map_divergence_is_nm(shape, seed):
    _, fact = random_fact(shape, seed)
    s = fact.singular_values
    n, m = shape
    assert risk.divergence_closed_form(fact, s.copy(), np.ones_like(s)) == pytest.approx(
        n * m, rel=1e-9
    )


@settings(max_examples=80, deadline=None)
@given(shapes, seeds, st.floats(1e-2, 10.0))
def test_spectral_sure_matches_entrywise(shape, seed, tau):
    y, fact = random_fact(shape, seed)
    f, d = random_map(fact, np.random.default_rng(seed + 1))
    div = risk.divergence_closed_form(fact, f, d)
    entrywise = risk.sure_gaussian(y, linalg.compose(fact, f), tau, div).value
    fn = SpectralFunction(lambda s: f, lambda s: d)
    spectral = risk.make_risk_objective(y, fact, Gaussian(tau), "sure")(fn).value
    # SURE sums terms of either sign; compare relative to the largest term so
    # that a value near 0 is not held to a tolerance below its rounding.
    n, m = shape
    scale = n * m * tau**2 + float(np.sum(y**2)) + 2.0 * tau**2 * abs(div)
    assert abs(spectral - entrywise) <= 1e-10 * scale


@settings(max_examples=80, deadline=None)
@given(shapes, seeds, st.floats(1e-2, 2.0), st.data())
def test_cached_gaussian_weights_match_per_index_formula(shape, seed, tau, data):
    _, fact = random_fact(shape, seed)
    k = fact.rank_bound
    active = data.draw(st.lists(st.integers(1, k), unique=True, max_size=k), label="active")
    weights = shrinkage.weights_gaussian(fact, tau, active)
    expected = reference_weights(fact, tau, sorted(active))
    assert weights.shape == (k,)
    assert set(1 + np.flatnonzero(weights)) <= set(expected)
    for idx, w in expected.items():
        assert weights[idx - 1] == pytest.approx(w, abs=1e-12)


@st.composite
def tied_factorizations(draw):
    """Factorizations whose squared singular values step down by 0 (an exact
    tie), by less than the tie tolerance (a near-tie that need not be
    transitive), or by a clear gap."""
    k = draw(st.integers(2, 6))
    n, m = k, k + draw(st.integers(0, 3))
    if draw(st.booleans()):
        n, m = m, n
    steps = draw(
        st.lists(st.sampled_from([0.0, 0.6e-12, 0.3e-12, 0.05, 0.1]), min_size=k - 1,
                 max_size=k - 1)
    )
    sq = np.concatenate([[1.0], 1.0 - np.cumsum(steps)])
    rng = np.random.default_rng(draw(seeds))
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    v, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return SvdFactorization(np.sqrt(sq), u, v)


@settings(max_examples=150, deadline=None)
@given(tied_factorizations(), st.data())
def test_ties_raise_as_before(fact, data):
    k = fact.rank_bound
    inert = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k), label="inert"))
    f = np.where(inert, 0.0, 0.5 * fact.singular_values)
    d = np.where(inert, 0.0, 0.5)
    before = outcome(lambda: reference_divergence(fact, f, d))
    after = outcome(lambda: risk.divergence_closed_form(fact, f, d))
    assert after[0] == before[0]
    if before[0] == "tie":
        assert after[1] == before[1]
    else:
        assert after[1] == pytest.approx(before[1], rel=1e-12)

    delta = np.random.default_rng(0).standard_normal((fact.n, fact.m))
    before = outcome(lambda: reference_check_distinct(fact.singular_values, f, d))
    after = outcome(lambda: linalg.directional_derivative(fact, f, d, delta))
    assert after[0] == before[0]
    if before[0] == "tie":
        assert after[1] == before[1]
    else:
        assert np.all(np.isfinite(after[1]))

    active = data.draw(st.lists(st.integers(1, k), unique=True, max_size=k), label="active")
    before = outcome(lambda: reference_weights(fact, 0.1, sorted(active)))
    after = outcome(lambda: shrinkage.weights_gaussian(fact, 0.1, active))
    assert after[0] == before[0]
    if before[0] == "tie":
        assert after[1] == before[1]
    else:
        expected = np.zeros(k)
        for idx, w in before[1].items():
            expected[idx - 1] = w
        np.testing.assert_allclose(after[1], expected, rtol=0, atol=1e-12)


def test_cache_is_shared_by_the_transpose_and_read_only():
    _, fact = random_fact((4, 7), 0)
    mask, sums = fact.tie_mask, fact.pair_sums
    flipped = fact.transposed()
    assert np.array_equal(flipped.tie_mask, mask) and np.array_equal(flipped.pair_sums, sums)
    # The transpose recomputes its caches; they are read-only too.
    for cache in (sums, flipped.pair_sums, flipped.tie_mask):
        with pytest.raises(ValueError):
            cache[0] = 0

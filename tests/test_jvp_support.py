"""The support-restricted Jacobian-vector product, and the one factorization
the Monte-Carlo risk estimates share, against the code they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import linalg, risk
from svshrink.errors import DegenerateSpectrumError, DomainError
from svshrink.linalg import SvdFactorization
from svshrink.models import Poisson

from helpers import rank_one_positive

# -- reference implementation: the dense O(n m k) product as it was before
# it was restricted to the map's support ------------------------------------


def reference_jvp(fact, f, d, delta):
    n, m = fact.n, fact.m
    if n > m:
        return reference_jvp(fact.transposed(), f, d, delta.T).T
    s = fact.singular_values
    if fact.tie_mask.any():
        linalg.check_distinct(fact, f, d)
    u, v = fact.left_vectors, fact.right_vectors
    dbar = u.T @ delta @ v
    sym = 0.5 * (dbar + dbar.T)
    asym = 0.5 * (dbar - dbar.T)
    fdiff = f[:, None] - f[None, :]
    sdiff = s[:, None] - s[None, :]
    fsum = f[:, None] + f[None, :]
    ssum = s[:, None] + s[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        m_diff = np.where(sdiff != 0.0, fdiff / np.where(sdiff == 0.0, 1.0, sdiff), 0.0)
        m_sum = np.where(ssum != 0.0, fsum / np.where(ssum == 0.0, 1.0, ssum), 0.0)
    np.fill_diagonal(m_diff, 0.0)
    np.fill_diagonal(m_sum, 0.0)
    core = sym * m_diff + asym * m_sum
    np.fill_diagonal(core, np.diagonal(dbar) * d)
    out = u @ core @ v.T
    if n < m:
        ratio = linalg._safe_ratio(f, s)
        resid = delta - (delta @ v) @ v.T
        out = out + (u * ratio) @ (u.T @ resid)
    return out


def assert_matches_reference(fact, f, d, delta):
    got = linalg.directional_derivative(fact, f, d, delta)
    want = reference_jvp(fact, f, d, delta)
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    if scale == 0.0:
        assert not got.any()
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


# -- strategies ----------------------------------------------------------------

shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),  # 1 x m
    st.tuples(st.integers(1, 12), st.just(1)),  # m x 1
    st.tuples(st.integers(2, 8), st.integers(9, 14)),  # n < m
    st.tuples(st.integers(9, 14), st.integers(2, 8)),  # n > m
    st.integers(2, 10).map(lambda k: (k, k)),
)
seeds = st.integers(0, 2**32 - 1)
SUPPORTS = ("empty", "one", "leading", "partial", "full")


def support_mask(kind, k, rng):
    mask = np.zeros(k, dtype=bool)
    if kind == "one":
        mask[rng.integers(k)] = True
    elif kind == "leading":
        mask[: rng.integers(1, k + 1)] = True
    elif kind == "partial":  # scattered, neither empty nor (for k > 1) full
        mask[rng.choice(k, size=rng.integers(1, k) if k > 1 else 1, replace=False)] = True
    elif kind == "full":
        mask[:] = True
    return mask


def map_on(mask, s, rng):
    """Values and derivatives vanishing off ``mask``; on it, a weighted map
    ``w s`` with some indices carrying only a value or only a derivative."""
    w = rng.uniform(0.1, 1.0, len(s))
    kind = rng.integers(0, 3, len(s))  # 0: both, 1: value only, 2: derivative only
    f = np.where(mask & (kind != 2), w * s, 0.0)
    d = np.where(mask & (kind != 1), w, 0.0)
    return f, d


# -- the product ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(shapes, st.sampled_from(SUPPORTS), seeds)
def test_support_product_matches_dense_formula(shape, kind, seed):
    rng = np.random.default_rng(seed)
    fact = linalg.svd(rng.standard_normal(shape))
    f, d = map_on(support_mask(kind, fact.rank_bound, rng), fact.singular_values, rng)
    assert_matches_reference(fact, f, d, rng.standard_normal(shape))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6), st.integers(2, 6), st.sampled_from(SUPPORTS), seeds)
def test_exactly_low_rank_with_inert_tied_zero_tail(rank, extra_n, extra_m, kind, seed):
    # Singular values rank+1.. are exactly 0 and tied with each other; a map
    # that vanishes there passes the tie check, and the product is unchanged.
    rng = np.random.default_rng(seed)
    n, m = rank + extra_n, rank + extra_m
    k = min(n, m)
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    v, _ = np.linalg.qr(rng.standard_normal((m, k)))
    s = np.concatenate([np.sort(rng.uniform(1.0, 5.0, rank))[::-1], np.zeros(k - rank)])
    fact = SvdFactorization(s, u, v)
    assert fact.tie_mask[rank:].all()
    mask = np.zeros(k, dtype=bool)
    mask[:rank] = support_mask(kind, rank, rng)
    f, d = map_on(mask, s, rng)
    assert_matches_reference(fact, f, d, rng.standard_normal((n, m)))


@settings(max_examples=100, deadline=None)
@given(shapes.filter(lambda nm: min(nm) >= 3), seeds)
def test_tied_active_pair_raises_naming_the_same_pair(shape, seed):
    rng = np.random.default_rng(seed)
    n, m = shape
    k = min(n, m)
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    v, _ = np.linalg.qr(rng.standard_normal((m, k)))
    s = np.sort(rng.uniform(1.0, 5.0, k))[::-1]
    tie = int(rng.integers(0, k - 1))
    s[tie + 1] = s[tie]
    fact = SvdFactorization(s, u, v)
    mask = support_mask("partial", k, rng)
    mask[tie + int(rng.integers(0, 2))] = True
    f, d = np.where(mask, 0.5 * s, 0.0), np.where(mask, 0.5, 0.0)
    delta = rng.standard_normal(shape)
    with pytest.raises(DegenerateSpectrumError) as want:
        reference_jvp(fact, f, d, delta)
    with pytest.raises(DegenerateSpectrumError) as got:
        linalg.directional_derivative(fact, f, d, delta)
    assert str(got.value) == str(want.value)


# -- the shared factorization ----------------------------------------------------


def clamped_map(rng, k):
    active = tuple(int(i) for i in 1 + np.flatnonzero(rng.random(k) < 0.5)) or (1,)
    weights = np.zeros(k)
    for i in active:
        weights[i - 1] = rng.uniform(0.2, 1.0)
    return linalg.weights_function(weights, 1e-6)


def risk_calls(y, fn, directions):
    """The four Monte-Carlo risk functions: for each, the matrix it is
    evaluated at and the call given that matrix's factorization (or None)."""
    positive = y + 1.0  # Gamma observations are positive
    return {
        "mc_divergence": (y, lambda fact: risk.mc_divergence(
            fn, y, 0, directions=directions, fact=fact
        )),
        "mc_theta_divergence_gamma": (positive, lambda fact: risk.mc_theta_divergence_gamma(
            fn, positive, 4.0, 0, directions=directions, fact=fact
        )),
        "pure_poisson": (y, lambda fact: risk.pure_poisson(
            y, fn, mode="approx", directions=directions, fact=fact
        )),
        "pukla_poisson": (y, lambda fact: risk.pukla_poisson(
            y, fn, mode="approx", directions=directions, fact=fact
        )),
    }


def poisson_case(shape, seed, probes=2):
    rng = np.random.default_rng(seed)
    y = Poisson().sample(rank_one_positive(*shape, 30.0), rng)
    fn = clamped_map(rng, min(shape))
    return y, fn, [risk.rademacher(shape, rng) for _ in range(probes)]


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 9), st.integers(1, 9)), st.integers(1, 3), seeds)
def test_risks_are_bit_identical_with_and_without_fact(shape, probes, seed):
    for name, (matrix, call) in risk_calls(*poisson_case(shape, seed, probes)).items():
        assert call(None) == call(linalg.svd(matrix)), name


def test_given_fact_no_svd_is_computed(monkeypatch):
    calls = risk_calls(*poisson_case((8, 6), 3))
    facts = {name: linalg.svd(matrix) for name, (matrix, _) in calls.items()}

    def no_svd(matrix):
        raise AssertionError("linalg.svd was called although a factorization was given")

    monkeypatch.setattr(linalg, "svd", no_svd)
    for name, (_, call) in calls.items():
        call(facts[name])


def test_mismatched_fact_is_domain_error():
    for name, (matrix, call) in risk_calls(*poisson_case((8, 6), 4)).items():
        with pytest.raises(DomainError, match="factorization is of a 6x8 matrix"):
            call(linalg.svd(matrix.T))

"""The Monte-Carlo risk estimates against independent per-probe loops.

Each reference below evaluates one estimate probe by probe, the way the
estimate is defined: the Jacobian-vector product of the (possibly clamped)
map along each +-1 direction, reduced per probe, then averaged.  The library
computes every one of them from one shared stream of probe products
``delta * (J delta)``; these tests pin that it gives the same numbers on
the directions it draws from a seeded rng, which the references draw from
an rng of the same seed.
"""

import numpy as np
import pytest

from svshrink import linalg, risk
from svshrink.models import Poisson

from helpers import derivative_probe, rank_one_positive

SHAPES = [(6, 9), (9, 6), (1, 8), (8, 1)]
LOG_FLOOR = 1e-6


def mean_stderr(terms):
    terms = np.asarray(terms)
    stderr = float(np.std(terms, ddof=1) / np.sqrt(len(terms))) if len(terms) > 1 else None
    return float(np.mean(terms)), stderr


def free_mask(fn, fact):
    if fn.clamp_floor is None:
        return None
    return linalg.compose(fact, fn.values(fact.singular_values)) >= fn.clamp_floor


def reference_divergence(fn, fact, directions, weights=None):
    free = free_mask(fn, fact)
    probes = []
    for delta in directions:
        dd = derivative_probe(fn, fact, delta, free)
        term = delta * dd if weights is None else weights * delta * dd
        probes.append(float(np.sum(term)))
    return mean_stderr(probes)


def reference_pure(y, fn, fact, directions):
    fhat = linalg.reconstruct(fact, fn)
    free = free_mask(fn, fact)
    crosses = []
    for delta in directions:
        dd = derivative_probe(fn, fact, delta, free)
        crosses.append(float(np.sum(y * (fhat - delta * dd))))
    mean, stderr = mean_stderr(crosses)
    return float(np.sum(fhat**2)) - 2.0 * mean, None if stderr is None else 2.0 * stderr


def reference_pukla(y, fn, fact, directions):
    fhat = linalg.reconstruct(fact, fn)
    free = free_mask(fn, fact)
    floor = LOG_FLOOR if fn.clamp_floor is None else max(LOG_FLOOR, fn.clamp_floor)
    nonzero = np.argwhere(y > 0)
    counts = y[nonzero[:, 0], nonzero[:, 1]]
    terms = []
    for delta in directions:
        dd = derivative_probe(fn, fact, delta, free)
        approx = np.maximum(fhat - delta * dd, floor)
        terms.append(float(np.sum(counts * np.log(approx[nonzero[:, 0], nonzero[:, 1]]))))
    mean, stderr = mean_stderr(terms)
    return float(np.sum(fhat)) - mean, stderr


def spectral_map(k, clamp):
    """Weights on the leading two indices (or one, for a single value)."""
    weights = np.zeros(k)
    weights[:2] = [0.95, 0.6][:k]
    return linalg.weights_function(weights, clamp)


PROBES = 4


def probe_rng(seed):
    """The rng each estimate draws its probes from, and the references theirs."""
    return np.random.default_rng([seed, 1])


def case(shape, seed, clamp):
    """Counts with zero entries, a map, its factorization and the 4 probes
    an estimate draws from ``probe_rng(seed)``."""
    rng = np.random.default_rng(seed)
    y = Poisson().sample(rank_one_positive(*shape, 4.0 * np.sqrt(shape[0] * shape[1])), rng)
    y[0, 0] = 0.0
    y[-1, -1] = 0.0
    fact = linalg.svd(y)
    fn = spectral_map(len(fact.singular_values), clamp)
    return y, fn, fact, risk.probe_directions(shape, PROBES, probe_rng(seed))


def clamp_is_active(fn, fact):
    return fn.clamp_floor is not None and not free_mask(fn, fact).all()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("clamp", [None, 1e-6, 0.5])
@pytest.mark.parametrize("seed", [0, 1])
def test_estimates_match_per_probe_loops(shape, clamp, seed):
    y, fn, fact, directions = case(shape, seed, clamp)
    assert np.any(y == 0)

    got = risk.mc_divergence(fn, y, PROBES, probe_rng(seed), fact=fact)
    assert (got.value, got.stderr) == reference_divergence(fn, fact, directions)

    got = risk.pukla_poisson(y, fn, mode="approx", samples=PROBES, rng=probe_rng(seed), fact=fact)
    assert (got.value, got.stderr) == reference_pukla(y, fn, fact, directions)

    # PURE sums y * (f - delta J delta) over the nonzero counts only; the
    # reference sums over every entry, so the sum is reassociated.
    got = risk.pure_poisson(y, fn, mode="approx", samples=PROBES, rng=probe_rng(seed), fact=fact)
    value, stderr = reference_pure(y, fn, fact, directions)
    assert got.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert got.stderr == pytest.approx(stderr, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_gamma_weighted_divergence_matches_per_probe_loop(shape, seed):
    # Positive observations; the clamp keeps the estimate positive.  The
    # weights multiply delta * (J delta) where the reference forms
    # (weights * delta) * (J delta); with +-1 probes both are the same floats.
    y, fn, fact, directions = case(shape, seed, 1e-6)
    y = y + 0.5
    fact = linalg.svd(y)
    L = 4.0
    f = linalg.reconstruct(fact, fn)
    got = risk.mc_theta_divergence_gamma(fn, y, L, PROBES, probe_rng(seed), fact=fact)
    expected = reference_divergence(fn, fact, directions, weights=L / f**2)
    assert (got.value, got.stderr) == expected


def test_cases_cover_an_active_clamp_floor():
    active = [
        clamp_is_active(fn, fact)
        for shape in SHAPES
        for seed in (0, 1)
        for y, fn, fact, _ in [case(shape, seed, 0.5)]
    ]
    assert any(active)


@pytest.mark.parametrize("shape", [(6, 9), (9, 6), (1, 8)])
@pytest.mark.parametrize("clamp", [None, 1e-6])
def test_exact_modes_match_the_enumeration(shape, clamp):
    y, fn, fact, _ = case(shape, 3, clamp)
    nonzero = np.argwhere(y > 0)
    counts = y[nonzero[:, 0], nonzero[:, 1]]
    down = risk.downdated_entries(fn, y, nonzero)
    fhat = linalg.reconstruct(fact, fn)
    floor = LOG_FLOOR if clamp is None else max(LOG_FLOOR, clamp)

    got = risk.pure_poisson(y, fn, mode="exact", fact=fact)
    assert got.value == float(np.sum(fhat**2)) - 2.0 * float(np.sum(counts * down))
    got = risk.pukla_poisson(y, fn, mode="exact", fact=fact)
    assert got.value == float(np.sum(fhat)) - float(np.sum(counts * np.log(np.maximum(down, floor))))

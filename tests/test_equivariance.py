"""Every deterministic fit is equivariant under row and column order and
transposition: fitted on ``P Y Q`` (P, Q permutations) it gives ``P f(Y) Q``,
and fitted on ``Y^T`` it gives ``f(Y)^T``.

A spectral estimator commutes with orthogonal changes of basis and each risk
estimate is a sum over entries, so the fits see the same spectrum and the
same scores up to rounding.  Closed forms must agree to 1e-12 relative.
Searched parameters (soft thresholds, greedy weights) must agree within the
bounded search's tolerance, and the map at the parameter found on the
reordered matrix must then give the reordered estimate to 1e-12.  The draws
keep every set decision (bulk edge, asymptotic shrinker edge, greedy active
set) clear of its boundary, so rounding cannot flip one.  The fits run with
no rng, so a SUKLS fit whose clamp floor binds, which would need probes,
raises instead.
The Monte-Carlo fits (GSURE, PURE, PUKLA) are not equivariant: a probe is
tied to entry positions.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svshrink import activeset, experiments, linalg, risk, shrinkage
from svshrink.models import Gamma, Gaussian, Poisson

from helpers import spiked_signal

CLOSED_FORM_RTOL = 1e-12
# Set decisions must clear their boundary by this relative margin.
DECISION_MARGIN = 1e-8

GAUSSIAN_FITS = (
    "pca", "pca:active=all,rank=1", "shrinker", "shrinker:rank=1", "oracle-shrinker", "oracle-weights",
    "oracle-soft", "soft", "weighted", "weighted:active=all", "weighted:rank=1",
)
# The oracle-soft fits keep the default squared-error loss: a KLS or KLA
# loss can have two local minima within one search, and rounding picks either
# (2 of 3000 Gamma KLS draws).
GAMMA_FITS = (
    "pca", "oracle-weights", "oracle-soft", "soft:objective=sukls", "weighted:objective=sukls",
    "weighted:objective=sukls,rank=1",
)
POISSON_FITS = ("pca", "oracle-weights", "oracle-soft", "weighted:objective=pukla,rank=1")


def _searched(tag: str) -> bool:
    return tag.partition(":")[0] in ("soft", "oracle-soft") or tag == "weighted:objective=sukls"


def _gaussian_draw(n, m, rng):
    model = Gaussian(1.0)
    edge = activeset.bulk_edge_threshold(n, m, model.tau)
    spikes = np.sort(edge * rng.uniform(1.5, 4.5, size=rng.integers(1, min(n, m, 3) + 1)))[::-1]
    x = spiked_signal(n, m, spikes, rng)
    return model, x, model.sample(x, rng)


def _positive_signal(n, m, rng):
    """A rank-two mean ``a + b r c^T`` with ``r`` and ``c`` linear from -1 to
    1, positive (``b < a``) and with a second singular value well above the
    noise."""
    a = rng.uniform(15.0, 30.0)
    return a + a * rng.uniform(0.3, 0.6) * np.outer(np.linspace(-1.0, 1.0, n), np.linspace(-1.0, 1.0, m))


def _gamma_draw(n, m, rng):
    model = Gamma(float(rng.uniform(30.0, 200.0)))
    x = _positive_signal(n, m, rng)
    return model, x, model.sample(x, rng)


def _poisson_draw(n, m, rng):
    model = Poisson()
    x = _positive_signal(n, m, rng)
    return model, x, model.sample(x, rng)


def _observation(y, model, signal):
    return experiments.Observation(
        y, linalg.svd(y), model, signal=signal, signal_values=np.linalg.svd(signal, compute_uv=False)
    )


def _decisions_are_clear(obs) -> bool:
    """Whether no set decision of the fits lies within the margin of its
    boundary: the bulk edge (also the asymptotic shrinker's edge) under
    Gaussian noise, each drop of the greedy active set otherwise."""
    fact = obs.fact
    if isinstance(obs.model, Gaussian):
        edge = activeset.bulk_edge_threshold(fact.n, fact.m, obs.model.tau)
        return bool(np.all(np.abs(fact.singular_values - edge) > DECISION_MARGIN * edge))
    scores = obs.greedy.aic_values
    full = scores["full"]
    return all(abs(v - full) > DECISION_MARGIN * abs(full) for k, v in scores.items() if k != "full")


def _parameters(info: dict) -> np.ndarray:
    if "lambda" in info:
        return np.array([info["lambda"]])
    return np.array([info["weights"][k] for k in sorted(info["weights"], key=int)])


def _search_tolerance(info: dict, fact) -> float:
    """How far apart two searches of nearly the same score may stop:
    ``4 (sqrt(eps) |x| + xatol)`` in the search variable ``x``, which covers
    the final bracket ``4 (sqrt(eps) |x| + xatol / 3)`` of
    :func:`shrinkage.minimize_scalar`.  A soft threshold is searched in units
    of a power of two at or below ``sigma_1`` (``|x| < 2``), with ``xatol``
    scaled by ``1 / max(unit, 1)``; a weight on [0, 1] with ``xatol`` itself."""
    xatol = shrinkage.BOUNDED_XATOL
    if "lambda" in info:
        top = float(fact.singular_values[0])
        unit = 2.0 ** np.floor(np.log2(top))
        return 4.0 * unit * (shrinkage._SQRT_EPS * 2.0 + xatol / max(unit, 1.0))
    return 4.0 * (shrinkage._SQRT_EPS + xatol)


def _assert_close(got, want, what):
    scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert np.max(np.abs(got - want)) <= CLOSED_FORM_RTOL * scale, what


def _check_fits(draw, fits, n, m, seed):
    rng = np.random.default_rng(seed)
    model, x, y = draw(n, m, rng)
    rows, cols = rng.permutation(n), rng.permutation(m)
    variants = {
        "permuted": lambda a: a[rows][:, cols],
        "transposed": lambda a: a.T,
    }
    base = _observation(y, model, x)
    others = {name: _observation(move(y), model, move(x)) for name, move in variants.items()}
    assume(all(_decisions_are_clear(obs) for obs in (base, *others.values())))
    for tag in fits:
        method = experiments.parse_estimator_tag(tag, model)
        fn, info = experiments.fit_estimator(method, base, None)
        estimate = linalg.reconstruct(base.fact, fn)
        for name, move in variants.items():
            obs = others[name]
            moved_fn, moved_info = experiments.fit_estimator(method, obs, None)
            what = f"{tag} on the {name} {n}x{m} draw {seed}"
            assert moved_info.get("active_set") == info.get("active_set"), what
            got = linalg.reconstruct(obs.fact, moved_fn)
            if _searched(tag):
                gap = np.max(np.abs(_parameters(moved_info) - _parameters(info)))
                assert gap <= _search_tolerance(info, base.fact), what
                # The map at the parameter found on the moved matrix, on Y.
                want = move(linalg.reconstruct(base.fact, moved_fn))
            else:
                want = move(estimate)
            _assert_close(got, want, what)


shapes = dict(n=st.integers(2, 8), m=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_gaussian_fits_are_equivariant(n, m, seed):
    _check_fits(_gaussian_draw, GAUSSIAN_FITS, n, m, seed)


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_gamma_fits_are_equivariant(n, m, seed):
    _check_fits(_gamma_draw, GAMMA_FITS, n, m, seed)


@settings(max_examples=40, deadline=None)
@given(**shapes)
def test_poisson_fits_are_equivariant(n, m, seed):
    _check_fits(_poisson_draw, POISSON_FITS, n, m, seed)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_tall_kernels_are_their_wide_transpose(n, m, seed):
    """The kernels that handle a tall matrix as its wide transpose, the
    Jacobian-vector product and the exact one-count downdates, give the
    transpose of their result on ``Y^T``."""
    rng = np.random.default_rng(seed)
    y = rng.poisson(_positive_signal(n, m, rng)).astype(float)
    fact, flipped = linalg.svd(y), linalg.svd(y.T)
    weights = rng.uniform(0.0, 1.0, size=fact.rank_bound)
    fn = linalg.weights_function(weights)
    delta = rng.standard_normal((n, m))
    s = fact.singular_values
    jvp = linalg.directional_derivative(fact, fn.values(s), fn.derivs(s), delta)
    flipped_jvp = linalg.directional_derivative(flipped, fn.values(s), fn.derivs(s), delta.T)
    _assert_close(flipped_jvp, jvp.T, "directional_derivative")
    entries = risk.downdated_entries(fn, y, fact=fact).reshape(n, m)
    flipped_entries = risk.downdated_entries(fn, y.T, fact=flipped).reshape(m, n)
    np.testing.assert_allclose(flipped_entries, entries.T, rtol=1e-9, atol=1e-9 * np.max(np.abs(entries)))

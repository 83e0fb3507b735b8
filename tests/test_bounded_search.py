"""The package's bounded Brent search against SciPy's
``minimize_scalar(method="bounded")``, which serves here only as the
oracle: the same points evaluated in the same order, the same result bits,
counts and convergence flag, and the same rejected bounds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")

from svshrink import shrinkage
from svshrink.errors import DomainError

centres = st.floats(-12.0, 12.0)


@st.composite
def objectives(draw):
    """A deterministic objective of one of five kinds: a shifted quadratic,
    ``|t - c|``, a step function with plateaus, and a quadratic that is
    ``inf`` or NaN beyond a cut point."""
    kind = draw(st.sampled_from(["quadratic", "abs", "steps", "inf", "nan"]))
    c = draw(centres)
    if kind == "quadratic":
        scale, shift = draw(st.floats(1e-3, 1e3)), draw(st.floats(-5.0, 5.0))
        return lambda t: scale * (t - c) ** 2 + shift
    if kind == "abs":
        return lambda t: abs(t - c)
    if kind == "steps":
        width = draw(st.floats(0.01, 3.0))
        return lambda t: float(math.floor(abs(t - c) / width))
    cut, wall = draw(centres), math.inf if kind == "inf" else math.nan
    return lambda t: wall if t > cut else (t - c) ** 2


def recorded(fn):
    """``fn`` with a log of the points it was called at, as float64 bytes."""
    calls = []

    def wrapped(t):
        calls.append(np.float64(t).tobytes())
        return fn(t)

    return wrapped, calls


def bits(v) -> bytes:
    return np.float64(v).tobytes()


bounds = st.one_of(
    st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 30.0)).map(lambda p: (p[0], p[0] + p[1])),
    st.tuples(st.integers(-5, 5), st.integers(0, 6)).map(lambda p: (p[0], p[0] + p[1])),
)


@settings(max_examples=400, deadline=None)
@given(
    objectives(),
    bounds,
    st.one_of(st.just(shrinkage.BOUNDED_XATOL), st.floats(1e-12, 1.0)),
    st.one_of(st.just(shrinkage.BOUNDED_MAXITER), st.integers(1, 40)),
)
@example(lambda t: abs(t - 0.5), (0, 1), 1e-5, 500)
@example(lambda t: math.nan, (0.0, 1.0), 1e-6, 10)
def test_search_matches_scipy_bit_for_bit(fn, lo_hi, xatol, maxiter):
    lower, upper = lo_hi
    ours_fn, ours_calls = recorded(fn)
    theirs_fn, theirs_calls = recorded(fn)
    got = shrinkage.minimize_scalar(ours_fn, lower, upper, xatol, maxiter)
    with np.errstate(all="ignore"):
        expected = scipy_optimize.minimize_scalar(
            theirs_fn, bounds=(lower, upper), method="bounded",
            options={"xatol": xatol, "maxiter": maxiter},
        )
    assert ours_calls == theirs_calls
    assert bits(got.x) == bits(expected.x)
    assert bits(got.fun) == bits(expected.fun)
    assert (got.nfev, got.nit, got.success) == (expected.nfev, expected.nit, expected.success)
    assert got.message == expected.message


@pytest.mark.parametrize(
    "lower, upper",
    [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan), (2.0, 1.0), (1, 0)],
)
def test_non_finite_or_inverted_bounds_raise_domain_error(lower, upper):
    with pytest.raises(ValueError):
        scipy_optimize.minimize_scalar(abs, bounds=(lower, upper), method="bounded")
    with pytest.raises(DomainError):
        shrinkage.minimize_scalar(abs, lower, upper, 1e-5, 500)

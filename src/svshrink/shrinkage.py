"""Data-driven selection of spectral-estimator parameters.

The estimators keep the observation's singular vectors and modify its
singular values: hard truncation, soft thresholding, or per-index weighting.
A fit searches one family of maps for the lowest score: a soft threshold
over ``[0, sigma_1]`` (:func:`soft_threshold_fit`) or weights in [0, 1], one
coordinate at a time (:func:`optimize_weights_greedy`).  Each search scores
its own parameter, a threshold or a weight vector, and knows nothing of the
noise: the caller's score may build the parameter's map and score it by an
unbiased risk estimate of :mod:`svshrink.risk` (SURE, GSURE, SUKLS, PURE,
PUKLA) or an oracle's realized loss, or score the parameter directly, as
:func:`svshrink.risk.soft_threshold_sure` reads Gaussian SURE off the
spectrum.
Closed forms replace the search where they exist: Gaussian weights, and the
rank-one Gamma synthesis-KL and Poisson analysis-KL weights.  The fits
return parameters, and :func:`svshrink.experiments.fit_estimator` turns
them into a :class:`~svshrink.linalg.SpectralFunction`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from . import activeset, linalg, metrics
from .errors import (
    DegenerateSpectrumError, DomainError, NumericalError, ParameterError, SvshrinkError,
)
from .linalg import SvdFactorization
from .models import validate_counts, validate_positive

BOUNDED_XATOL = 1e-6
BOUNDED_MAXITER = 200


def weights_gaussian(
    fact: SvdFactorization,
    tau: float,
    active_set: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Closed-form weights minimizing the Gaussian MSE estimate per index.

    For each active index ``k`` (1-based) the unbiased-risk objective is a
    separable quadratic in the weight, minimized over [0, 1] by::

        w_k = clip(1 - tau^2 / sigma_k^2 * (1 + |m - n|
                   + 2 sum_{l != k} sigma_k^2 / (sigma_k^2 - sigma_l^2)), 0, 1)

    The pair sum equals ``sigma_k P_k`` with ``P`` cached on the
    factorization (:attr:`SvdFactorization.pair_sums`).  Returns the weight
    vector, shape ``(min(n, m),)``, with weight zero at every index outside
    ``active_set``; ``active_set=None`` activates every index.  A zero or
    tied active singular value raises :class:`DegenerateSpectrumError`.
    """
    if not tau > 0:
        raise ParameterError("tau must be positive")
    s = fact.singular_values
    if active_set is None:
        active_set = range(1, fact.rank_bound + 1)
    active = activeset.indices(active_set, fact.rank_bound)
    idx = np.asarray(active, dtype=int) - 1
    sk = s[idx]
    zero = np.flatnonzero(sk == 0.0)
    if zero.size:
        k = active[zero[0]]
        raise DegenerateSpectrumError(f"singular value {k} is zero; weight formula undefined")
    weights = np.zeros(fact.rank_bound)
    weights[idx] = np.clip(1.0 - tau**2 / sk**2 * _weight_dof(fact, idx), 0.0, 1.0)
    return weights


def _weight_dof(fact: SvdFactorization, idx):
    """The divergence coefficient ``1 + |m - n| + 2 sigma_k P_k`` of the
    weight formulas at the 0-based index or indices ``idx``.  A singular
    value there tied with another raises :class:`DegenerateSpectrumError`
    naming the pair."""
    if fact.tie_mask[idx].any():
        used = np.zeros(fact.rank_bound)
        used[idx] = 1.0
        linalg.check_distinct(fact, used)
    return 1.0 + abs(fact.m - fact.n) + 2.0 * fact.singular_values[idx] * fact.pair_sums[idx]


def weight1_gamma_sukls(observed: np.ndarray, fact: SvdFactorization, shape: float) -> float:
    """Closed-form leading weight minimizing the Gamma synthesis-KL estimate.

    Requires strictly positive observations (which make the leading singular
    vectors positive, hence a positive rank-one estimate) and ``L > 2``.
    """
    L = float(shape)
    if L <= 2:
        raise ParameterError(f"the synthesis KL closed form requires L > 2, got {L}")
    y = validate_positive(observed, "Gamma observations")
    n, m = y.shape
    rank1 = fact.singular_values[0] * np.outer(fact.left_vectors[:, 0], fact.right_vectors[:, 0])
    bracket = (L - 1.0) / (L * m * n) * float(np.sum(rank1 / y))
    bracket += _weight_dof(fact, 0) / (L * m * n)
    if bracket <= 0:
        return 1.0
    return float(np.clip(1.0 / bracket, 0.0, 1.0))


def weight1_poisson_pukla(observed: np.ndarray, fact: SvdFactorization) -> float:
    """Closed-form leading weight minimizing the Poisson analysis-KL estimate:
    ``min(1, sum Y / sum Xhat1)``."""
    y = validate_counts(observed)
    rank1_total = fact.singular_values[0] * float(
        np.sum(fact.left_vectors[:, 0]) * np.sum(fact.right_vectors[:, 0])
    )
    if rank1_total == 0.0:
        raise DomainError("the rank-one estimate sums to zero; the weight ratio is undefined")
    return float(np.clip(float(np.sum(y)) / rank1_total, 0.0, 1.0))


class BoundedResult(NamedTuple):
    """The outcome of :func:`minimize_scalar`: the best point found and its
    value, the evaluation and iteration counts (equal for this search), and
    whether it stopped within ``xatol`` with no NaN seen."""

    x: float
    fun: float
    nfev: int
    nit: int
    success: bool
    message: str


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(v: float) -> float:
    """``np.sign`` of a float: -1, 0 or 1, and NaN for NaN."""
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return v if v != v else 0.0


def minimize_scalar(
    fn: Callable[[float], float], lower: float, upper: float, xatol: float, maxiter: int
) -> BoundedResult:
    """Brent's bounded minimization of ``fn`` on ``[lower, upper]``: golden
    sections, with parabolic steps where the parabola through the three best
    points is acceptable (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5).

    The steps, counts and stopping rule are those of SciPy's
    ``minimize_scalar(method="bounded")`` (``fminbound``), in Python floats:
    the same points are evaluated in the same order.  The search stops once
    the bracket is within ``xatol`` (plus a relative ``sqrt(eps)``) of the
    best point, with ``success`` true, or after ``maxiter`` evaluations,
    with ``success`` false; a NaN point or value also makes it false.
    Non-finite or inverted bounds raise :class:`DomainError`.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise DomainError(f"bounds must be finite, got [{lower}, {upper}]")
    if lower > upper:
        raise DomainError(f"the lower bound {lower} exceeds the upper bound {upper}")
    a, b = lower, upper
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = float(fn(x))
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    flag = 0
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (_sign(xm - xf) + (xm - xf == 0))
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        # max() keeps a NaN step, as np.maximum does; tol1 is never NaN here.
        x = xf + (_sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = float(fn(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            flag = 1
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        flag = 2
    message = ("Solution found.", "Maximum number of function calls reached.", "NaN result encountered.")
    return BoundedResult(xf, fx, num, num, flag == 0, message[flag])


def minimize_bounded(
    fn: Callable[[float], float],
    lower: float,
    upper: float,
    xatol: float = BOUNDED_XATOL,
    maxiter: int = BOUNDED_MAXITER,
) -> float:
    """The point :func:`minimize_scalar` finds for ``fn`` on ``[lower, upper]``.

    Raises :class:`NumericalError` when the search stops without reaching
    ``xatol`` (e.g. after ``maxiter`` iterations), instead of returning the
    last iterate.
    """
    res = minimize_scalar(fn, lower, upper, xatol, maxiter)
    if not res.success:
        raise NumericalError(
            f"bounded minimization on [{lower:.6g}, {upper:.6g}] did not converge after "
            f"{res.nit} iterations (maxiter={maxiter}, xatol={xatol:g}): {res.message}"
        )
    return float(res.x)


def optimize_weights_greedy(
    fact: SvdFactorization,
    score: Callable[[np.ndarray], float],
    active_set: Iterable[int],
) -> np.ndarray:
    """Greedy per-coordinate weight search minimizing ``score``, a map from a
    weight vector, shape ``(min(n, m),)``, to a float.

    ``score`` may build the vector's map and score it,
    ``lambda w: map_score(linalg.weights_function(w, floor))``.  One sweep
    over the active indices in ascending order; each weight is replaced by
    the bounded minimizer over [0, 1] of ``score`` with the other weights
    held fixed.  Returns the weight vector, with weight zero at every
    inactive index.  A :class:`SvshrinkError` of ``score`` keeps its type,
    its message extended by the weight index.
    """
    active = activeset.indices(active_set, fact.rank_bound)
    weights = np.zeros(fact.rank_bound)
    for idx in active:

        def coordinate(t: float, i: int = idx - 1) -> float:
            trial = weights.copy()
            trial[i] = t
            try:
                return score(trial)
            except SvshrinkError as exc:
                # Extend the message in place: the exception keeps its type
                # and attributes, and no constructor is called again.
                exc.args = (f"objective failed at weight index {i + 1}: {exc}",)
                raise

        weights[idx - 1] = minimize_bounded(coordinate, 0.0, 1.0)
    return weights


def soft_threshold_fit(fact: SvdFactorization, score: Callable[[float], float]) -> float:
    """The soft threshold in ``[0, sigma_1]`` minimizing ``score``, a map from
    a threshold to a float; 0, without a search, for an all-zero spectrum.

    ``score`` may build the threshold's map and score it,
    ``lambda lam: map_score(linalg.soft_threshold_function(lam, floor))``, or
    score the threshold directly, as :func:`svshrink.risk.soft_threshold_sure`
    scores Gaussian SURE from the spectrum with no map per trial.

    The search runs in units of the power of two at or below ``sigma_1``,
    on ``[0, sigma_1 / unit]``, a range in [1, 2), and stops within
    ``BOUNDED_XATOL * min(1, unit)`` of lambda.  In units of lambda itself, a
    parabolic step multiplies two lambda differences by a score difference;
    for SURE, a score of scale sigma_1^2, the product underflows to zero
    below about sigma_1 = 1e-75 and overflows above about sigma_1 = 1e80.
    Brent's steps scale exactly by a power of two, so a spectrum with
    sigma_1 >= 1 takes the lambda path of a search in units of lambda.
    """
    top = float(fact.singular_values[0])
    if top == 0.0:
        return 0.0
    unit = math.ldexp(1.0, math.frexp(top)[1] - 1)
    t = minimize_bounded(lambda t: score(t * unit), 0.0, top / unit, xatol=BOUNDED_XATOL / max(unit, 1.0))
    return t * unit


def oracle_weights(signal: np.ndarray, fact: SvdFactorization) -> np.ndarray:
    """Per-index squared-error-optimal spectral values given the true signal.

    The optimal value for index ``k`` is the signal's projection
    ``u_k^T X v_k`` onto the observed singular pair, kept unclipped; it is a
    benchmark, not a practical estimator.
    """
    return metrics.signal_projections(signal, fact)

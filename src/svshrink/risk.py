"""Unbiased risk estimates for spectral denoisers.

Every estimate has one shape: a lead term computed from the estimate
``f = f(Y)``, plus a fixed multiple of a divergence-like term::

    estimate  lead                                  scale    divergence-like term
    SURE      -n m tau^2 + ||f - Y||_F^2            2 tau^2  div f
    GSURE     sum_ij carrier terms                  2        sum_ij (L / f_ij^2) df_ij/dY_ij
    SUKLS     sum_ij [(L-1) f/y - L log f] - L n m  1        div f
    PURE      ||f||_F^2                             -2       sum_ij y_ij f_ij(Y - e_i e_j^T)
    PUKLA     sum_ij f_ij                           -1       sum_ij y_ij log f_ij(Y - e_i e_j^T)

SURE estimates the mean-squared error under Gaussian noise; GSURE and SUKLS
the natural-parameter MSE and the synthesis Kullback-Leibler risk under
Gamma noise; PURE and PUKLA the MSE and the analysis Kullback-Leibler risk
under Poisson noise, from one-count downdates.  The term is a float (the
closed-form divergence of Candes, Sing-Long & Trzasko, IEEE TSP 2013, or an
exact enumeration of the downdates) or a :class:`MonteCarloDivergence`, a
mean over +-1 probes ``delta`` of ``delta * (J delta)`` (Ramani, Blu &
Unser, IEEE TIP 2008) or of first-order downdates, whose standard error the
estimate scales by ``|scale|``.  One constructor builds the five
:class:`RiskEstimate` s, and one prelude gives every map-level estimate its
checked map, factorization and unclamped estimate.  The fits minimize
these estimates: :func:`make_risk_objective` scores the maps of one
observation with the same formulas, and :func:`soft_threshold_sure` scores
a soft threshold's SURE as a float.

The exact enumeration reuses the observation's factorization: with
``n <= m``, the downdate ``Y - e_i e_j^T`` rotated by ``U`` has the Gram
matrix ``S^2 + z1 z1^T - z2 z2^T`` (``a = U^T e_i``, ``z2 = S V^T e_j``,
``z1 = a - z2``), so each downdated entry comes from the top eigenvalues of
a ``k x k`` symmetric matrix and one O(k) secular vector per root the map
keeps, instead of an ``n x m`` SVD.  Only as many roots as the map can keep
are computed, each by Newton steps on the matrix's secular equation and
checked by an inertia count; a full eigendecomposition runs only where a
root fails its check or a kept root deflates, and a tall ``Y`` is handled
as ``Y^T`` (see :func:`downdated_entries`).

Estimators are :class:`~svshrink.linalg.SpectralFunction` maps (anything else is
a :class:`ParameterError`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import CapacityError, DegenerateSpectrumError, DomainError, NumericalError, ParameterError
from .linalg import SpectralFunction, SvdFactorization
from .models import NoiseModel, validate_counts, validate_positive

EXACT_DOWNDATE_CAP = 10_000  # largest n*m for exact one-count enumerations
_DOWNDATE_BATCH = 256
_DEFLATION_RTOL = 1e-10  # a downdate root this close to a pole or another root goes to eigh
_REPEATED_ROOT_TOL = 1e-6  # the least norm of I + J G at a root whose secular vector is used
_SECULAR_ATOL = 4 * np.finfo(float).eps  # a converged secular step, in units above sigma_1 + 1
_SECULAR_MAXITER = 64  # secular steps per root before its position goes to eigh
PUKLA_LOG_FLOOR = 1e-6  # least log argument of a PUKLA estimate

EstimatorKind = str  # "SURE" | "GSURE" | "SUKLS" | "PURE" | "PUKLA"
DivergenceKind = str  # "closed_form" | "monte_carlo" | "exact"


class MonteCarloDivergence(NamedTuple):
    """A Monte-Carlo divergence estimate with its standard error."""

    value: float
    stderr: Optional[float]
    samples: int


@dataclass(frozen=True)
class RiskEstimate:
    """The value of an unbiased risk estimate and how it was obtained.

    ``offset_note`` records the additive constant separating the estimate's
    expectation from the named risk (empty when it estimates the risk itself).
    """

    value: float
    estimator_kind: EstimatorKind
    divergence_kind: DivergenceKind
    samples: Optional[int] = None
    stderr: Optional[float] = None
    offset_note: str = ""

    def __post_init__(self):
        _finite(self.value)
        if self.divergence_kind == "monte_carlo" and (self.samples is None or self.samples < 1):
            raise DomainError("Monte-Carlo risk estimates must record samples >= 1")

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "kind": self.estimator_kind,
            "divergence_kind": self.divergence_kind,
            "offset_note": self.offset_note,
        }
        if self.samples is not None:
            out["samples"] = self.samples
        if self.stderr is not None:
            out["stderr"] = self.stderr
        return out


def _finite(value: float) -> float:
    """``value``, or :class:`DomainError` when it is not finite."""
    if not math.isfinite(value):
        raise DomainError(f"risk estimate is not finite: {value}")
    return value


def divergence_closed_form(
    fact: SvdFactorization,
    shrink_values: np.ndarray,
    shrink_derivs: np.ndarray,
) -> float:
    """Divergence (trace of the Jacobian) of a spectral map, in closed form.

    For per-value maps ``sigma_k -> f_k`` the divergence equals::

        |m - n| sum_k f_k / sigma_k  +  sum_k f_k'  +  2 sum_k f_k P_k,
        P_k = sum_{l != k} sigma_k / (sigma_k^2 - sigma_l^2)

    (Candes, Sing-Long & Trzasko, IEEE TSP 2013), which for the identity map
    telescopes to exactly ``n * m``.  ``P`` depends on the singular values
    alone and is cached on the factorization
    (:attr:`SvdFactorization.pair_sums`), so each call costs O(k).  A tie
    between singular values raises :class:`DegenerateSpectrumError` unless
    the map vanishes on both tied indices (:func:`linalg.check_distinct`).
    The first term is computed only when ``m != n``; where a tiny singular
    value makes it overflow, :class:`NumericalError` is raised.
    """
    f, d = linalg._map_arrays(fact, shrink_values, shrink_derivs)
    return _divergence(fact, f, float(d.sum()))


def _divergence(fact: SvdFactorization, f: np.ndarray, slope: float) -> float:
    """The closed-form divergence of a map with values ``f``, whose
    derivatives sum to ``slope``, once its ties are checked: the
    ``|m - n|`` term, then the slope, then the pair term."""
    total = slope
    if fact.m != fact.n:
        s = fact.singular_values
        with np.errstate(over="ignore", invalid="ignore"):
            term = abs(fact.m - fact.n) * float(linalg._safe_ratio(f, s).sum())
        if not math.isfinite(term):
            raise NumericalError(
                f"the divergence term |m - n| sum_k f_k / sigma_k is not finite: the least "
                f"singular value {s[-1]:.6g} is too small for the map's values"
            )
        total = term + total
    return total + 2.0 * float(f @ fact.pair_sums)


def soft_threshold_sure(fact: SvdFactorization, tau: float) -> Callable[[float], float]:
    """The score ``lambda -> SURE`` of the unclamped soft threshold at
    ``lambda``, for Gaussian noise of level ``tau`` on the factorized
    observation: the value that the SURE objective of
    :func:`make_risk_objective` gives the soft-threshold map, bit for bit,
    with the same errors, and no map, derivative vector or
    :class:`RiskEstimate` per evaluation.

    The derivatives of a soft threshold are 1 above it, 1/2 at it and 0
    below, and every partial sum of such terms is a multiple of 1/2, so
    their sum is exactly the count ``#(sigma > lambda) + #(sigma = lambda)/2``,
    read off the sorted spectrum by bisection (:func:`_soft_threshold_slope`).
    The other reductions run as in the map chain.  A negative threshold
    raises :class:`DomainError`, and so does a value that is not finite,
    with :class:`RiskEstimate`'s text.
    """
    s = fact.singular_values
    ascending = (-s).tolist()  # -sigma in ascending order, for bisect
    shape, ties = (fact.n, fact.m), fact.has_ties

    def score(lam: float) -> float:
        linalg.check_threshold(lam)
        f = linalg.soft_threshold_values(s, lam)
        if ties:
            linalg.check_distinct(fact, f, linalg.soft_threshold_derivs(s, lam))
        divergence = _divergence(fact, f, _soft_threshold_slope(ascending, lam))
        lead, scale = _sure_terms(shape, _residual(fact, f), tau)
        return _finite(lead + scale * divergence)

    return score


def _soft_threshold_slope(ascending: list, lam: float) -> float:
    """The sum of the soft threshold's derivatives at the singular values,
    ``#(sigma > lam) + #(sigma = lam) / 2``, from ``ascending``, the list of
    ``-sigma`` in ascending order; 0 at a NaN ``lam``, which no value
    exceeds or equals (a bisection would count it equal to all)."""
    if lam != lam:
        return 0.0
    above = bisect.bisect_left(ascending, -lam)
    return above + 0.5 * (bisect.bisect_right(ascending, -lam, above) - above)


def probe_directions(shape: tuple[int, int], samples: int, rng: Optional[np.random.Generator]) -> list[np.ndarray]:
    """The probe directions of a Monte-Carlo estimate: ``samples`` Rademacher
    draws from ``rng``, each entry +1 or -1 with equal odds.

    Raises :class:`DomainError` when there would be no probe (an average
    over none is NaN) or no rng to draw from.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if rng is None:
        raise DomainError("an rng is required to draw probe directions")
    return [rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0 for _ in range(samples)]


def _require_spectral(estimator) -> SpectralFunction:
    if not isinstance(estimator, SpectralFunction):
        raise ParameterError(f"risk estimates take a SpectralFunction, got {type(estimator).__name__}")
    return estimator


def _factorization(matrix: np.ndarray, fact: Optional[SvdFactorization]) -> SvdFactorization:
    """The factorization of ``matrix`` a spectral map is evaluated on:
    ``fact`` when given, checked against ``matrix``'s shape; else computed
    once here."""
    if fact is None:
        return linalg.svd(matrix)
    if (fact.n, fact.m) != matrix.shape:
        raise DomainError(
            f"the factorization is of a {fact.n}x{fact.m} matrix, "
            f"but the observation is {matrix.shape[0]}x{matrix.shape[1]}"
        )
    return fact


def _estimate(fn, matrix, fact) -> tuple[SpectralFunction, SvdFactorization, np.ndarray]:
    """The checked spectral map ``fn``, the factorization of ``matrix`` it is
    evaluated on and its unclamped estimate ``sum_k f_k u_k v_k^T``."""
    fn = _require_spectral(fn)
    fact = _factorization(matrix, fact)
    return fn, fact, linalg.compose(fact, fn.values(fact.singular_values))


def _probe_products(fn: SpectralFunction, fact, directions, raw) -> Iterator[np.ndarray]:
    """``delta * (J delta)`` for each probe ``delta``, ``J`` the Jacobian of
    ``fn`` at ``fact``.  For +-1 probes its expectation is the Jacobian
    diagonal ``dF_ij/dY_ij``.  The clamp's derivative is taken as 0 where the
    floor is active and 1 elsewhere; those entries are read once, from the
    unclamped estimate ``raw``."""
    free = None if fn.clamp_floor is None else raw >= fn.clamp_floor
    s = fact.singular_values
    values, derivs = fn.values(s), fn.derivs(s)
    for delta in directions:
        jvp = linalg.directional_derivative(fact, values, derivs, delta)
        yield delta * (jvp if free is None else np.where(free, jvp, 0.0))


def _probe_mean(fn: SpectralFunction, fact, directions, raw, weights=None) -> MonteCarloDivergence:
    """The probes' mean of ``sum_ij weights_ij delta_ij (J delta)_ij``, weights 1 by default."""
    products = _probe_products(fn, fact, directions, raw)
    return _mean_stderr([float(np.sum(p if weights is None else weights * p)) for p in products])


def _mean_stderr(samples: Sequence[float]) -> MonteCarloDivergence:
    """Mean, standard error (``None`` for one sample) and count of samples."""
    count = len(samples)
    stderr = float(np.std(samples, ddof=1) / np.sqrt(count)) if count > 1 else None
    return MonteCarloDivergence(float(np.mean(samples)), stderr, count)


def _risk_estimate(
    kind: EstimatorKind, lead: float, scale: float, divergence, note: str, *, exact: bool = False
) -> RiskEstimate:
    """The estimate ``lead + scale * divergence``.  A
    :class:`MonteCarloDivergence` carries its sample count, and its standard
    error times ``|scale|``; a float is closed form, or ``exact`` when it
    comes from an enumeration."""
    if isinstance(divergence, MonteCarloDivergence):
        stderr = abs(scale) * divergence.stderr if divergence.stderr is not None else None
        value = lead + scale * divergence.value
        return RiskEstimate(value, kind, "monte_carlo", divergence.samples, stderr, offset_note=note)
    value = lead + scale * float(divergence)
    return RiskEstimate(value, kind, "exact" if exact else "closed_form", offset_note=note)


def mc_divergence(
    apply: SpectralFunction,
    matrix: np.ndarray,
    samples: int,
    rng: Optional[np.random.Generator] = None,
    *,
    fact: Optional[SvdFactorization] = None,
) -> MonteCarloDivergence:
    """Monte-Carlo divergence of a spectral map by random trace probing.

    Averages ``trace(delta^T (dF/dY) delta)`` over ``samples`` +-1
    directions drawn from ``rng``, which is unbiased for the divergence
    because off-diagonal Jacobian terms cancel in expectation.  ``fact``,
    the factorization of ``matrix``, is computed once here when not given.
    """
    matrix = np.asarray(matrix, dtype=float)
    directions = probe_directions(matrix.shape, samples, rng)
    fn, fact, raw = _estimate(apply, matrix, fact)
    return _probe_mean(fn, fact, directions, raw)


def sure_gaussian(
    observed: np.ndarray,
    estimate: np.ndarray,
    tau: float,
    divergence: Union[float, MonteCarloDivergence],
) -> RiskEstimate:
    """Unbiased estimate of the mean-squared error under Gaussian noise.

    ``-n m tau^2 + ||estimate - Y||_F^2 + 2 tau^2 divergence``.
    """
    y = np.asarray(observed, dtype=float)
    est = np.asarray(estimate, dtype=float)
    if y.shape != est.shape:
        raise DomainError("estimate must match the observation shape")
    return _sure(y.shape, float(((est - y) ** 2).sum()), tau, divergence)


def _residual(fact: SvdFactorization, f: np.ndarray) -> float:
    """``||sum_k f_k u_k v_k^T - Y||_F^2 = sum_k (f_k - sigma_k)^2``, as the
    thin SVD holds all of ``Y`` in orthonormal vectors."""
    return float(((f - fact.singular_values) ** 2).sum())


def _sure_terms(shape: tuple[int, int], residual: float, tau: float) -> tuple[float, float]:
    """SURE's lead ``-n m tau^2 + residual`` and divergence scale ``2 tau^2``,
    from the squared residual ``||estimate - Y||_F^2``."""
    if not tau > 0:
        raise ParameterError("tau must be positive")
    n, m = shape
    return -n * m * tau**2 + residual, 2.0 * tau**2


def _sure(
    shape: tuple[int, int], residual: float, tau: float, divergence: Union[float, MonteCarloDivergence]
) -> RiskEstimate:
    """SURE from the squared residual ``||estimate - Y||_F^2``."""
    lead, scale = _sure_terms(shape, residual, tau)
    return _risk_estimate("SURE", lead, scale, divergence, "estimates the MSE itself")


def _gamma_inputs(observed, estimate, shape, name: str) -> tuple[float, np.ndarray, np.ndarray]:
    """The checked shape ``L``, observation and estimate of a Gamma risk estimate."""
    L = float(shape)
    if L <= 2:
        raise ParameterError(f"the {name} requires L > 2, got {L}")
    y = np.asarray(observed, dtype=float)
    f = np.asarray(estimate, dtype=float)
    if y.shape != f.shape:
        raise DomainError("estimate must match the observation shape")
    validate_positive(y, "Gamma observations")
    return L, y, _positive(f)


def _positive(f: np.ndarray) -> np.ndarray:
    """``f``, or :class:`DomainError` unless every entry is positive."""
    if np.any(f <= 0):
        raise DomainError("the spectral estimate must be positive entrywise (apply a clamp floor)")
    return f


def _theta_divergence(fn: SpectralFunction, fact, directions, raw, L: float, f) -> MonteCarloDivergence:
    """The probes' mean of ``sum_ij (L / f_ij^2) delta_ij (J delta)_ij`` for a
    positive ``f``: not finite where ``L / f^2`` overflows, as GSURE then is."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _probe_mean(fn, fact, directions, raw, L / _positive(f) ** 2)


def _gsure_carrier(L: float, y: np.ndarray) -> np.ndarray:
    """GSURE's carrier terms ``(L-1)(L-2)/y^2``, which depend on ``Y`` alone."""
    return (L - 1.0) * (L - 2.0) / y**2


def _gsure(L: float, y, f, carrier, theta_divergence) -> RiskEstimate:
    """GSURE of the checked observation ``y`` and estimate ``f``; where
    ``L^2 / f^2`` overflows, :class:`RiskEstimate` rejects the value."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lead = float(np.sum(L**2 / f**2 - 2.0 * L * (L - 1.0) / (y * f) + carrier))
    return _risk_estimate(
        "GSURE", lead, 2.0, theta_divergence, "estimates the MSE of the natural parameter eta(X)"
    )


def _sukls(L: float, y, f, divergence) -> RiskEstimate:
    """SUKLS of the checked observation ``y`` and estimate ``f``."""
    n, m = y.shape
    lead = float(np.sum((L - 1.0) * f / y - L * np.log(f))) - L * n * m
    return _risk_estimate("SUKLS", lead, 1.0, divergence, "estimates MKLS minus sum_ij A(theta_ij)")


def gsure_gamma(
    observed: np.ndarray,
    estimate: np.ndarray,
    shape: float,
    theta_divergence: Union[float, MonteCarloDivergence],
) -> RiskEstimate:
    """Unbiased estimate of the natural-parameter MSE under Gamma noise.

    ``theta_divergence`` is ``sum_ij d(-L/f_ij)/dY_ij = sum_ij (L/f_ij^2)
    df_ij/dY_ij``, typically Monte-Carlo estimated via
    :func:`mc_theta_divergence_gamma`.

    Notes
    -----
    The carrier term enters as ``+ (L-1)(L-2)/y^2``: together with
    ``E[h'/h] = -theta`` and ``E[h''/h] = theta^2`` this is what makes the
    expectation collapse to ``sum (theta_hat - theta)^2``.
    """
    L, y, f = _gamma_inputs(observed, estimate, shape, "natural-parameter risk estimate")
    return _gsure(L, y, f, _gsure_carrier(L, y), theta_divergence)


def mc_theta_divergence_gamma(
    spectral_fn: SpectralFunction,
    matrix: np.ndarray,
    shape: float,
    samples: int,
    rng: Optional[np.random.Generator] = None,
    *,
    fact: Optional[SvdFactorization] = None,
) -> MonteCarloDivergence:
    """Monte-Carlo estimate of the natural-parameter divergence for Gamma.

    Probes ``sum_ij (L / f_ij^2) df_ij/dY_ij`` by averaging
    ``sum_ij (L / f_ij^2) delta_ij (J delta)_ij`` over ``samples`` +-1
    directions drawn from ``rng``, as :func:`mc_divergence` averages
    ``sum_ij delta_ij (J delta)_ij``.  ``fact``, the factorization of
    ``matrix``, is computed once here when not given.
    """
    matrix = np.asarray(matrix, dtype=float)
    directions = probe_directions(matrix.shape, samples, rng)
    fn, fact, raw = _estimate(spectral_fn, matrix, fact)
    return _theta_divergence(fn, fact, directions, raw, float(shape), linalg.clamp(raw, fn.clamp_floor))


def sukls_gamma(
    observed: np.ndarray,
    estimate: np.ndarray,
    shape: float,
    divergence: Union[float, MonteCarloDivergence],
) -> RiskEstimate:
    """Unbiased estimate (up to a signal-only constant) of the synthesis
    Kullback-Leibler risk under Gamma noise.

    ``sum_ij [(L-1) f_ij / y_ij - L log f_ij] - L n m + div f(Y)``.
    """
    L, y, f = _gamma_inputs(observed, estimate, shape, "synthesis KL risk estimate")
    return _sukls(L, y, f, divergence)


def downdated_entries(
    estimator: SpectralFunction,
    matrix: np.ndarray,
    positions: Optional[np.ndarray] = None,
    *,
    fact: Optional[SvdFactorization] = None,
) -> np.ndarray:
    """Entries ``f_ij(Y - e_i e_j^T)`` of the estimator on one-count downdates,
    each from the top roots of a ``k x k`` symmetric eigenproblem on the
    factorization of ``Y``.

    For ``n <= m`` the left factor ``U`` of ``Y = U S V^T`` is square.  With
    ``a = U^T e_i``, ``z2 = S V^T e_j`` and ``z1 = a - z2``, the downdate
    ``Y' = Y - e_i e_j^T`` has ``U^T Y' Y'^T U = S^2 + z1 z1^T - z2 z2^T``,
    a rank-two modification of a diagonal (Bunch, Nielsen & Sorensen, Numer.
    Math. 31, 1978).  Its eigenpairs ``(lambda_k, x_k)`` give the singular
    values ``sqrt(lambda_k)`` and left vectors ``U x_k`` of ``Y'``, and
    ``U^T Y' e_j = -z1``, so::

        f_ij(Y') = -sum_k phi_k (a^T x_k)(z1^T x_k),
        phi_k = f_k(sqrt(lambda_k)) / sqrt(lambda_k)   (0 where lambda_k <= 0)

    then clamped.  For ``n > m`` the same runs on ``Y^T`` at the swapped
    positions (a spectral map commutes with transposition).

    Only the roots with ``phi_k != 0`` enter the sum.  By interlacing,
    ``sqrt(lambda_1) <= sigma_1 + 1`` and ``sqrt(lambda_k) <= sigma_{k-1}``,
    so for a map whose values vanish below a point where they vanish (see
    below), every root past ``R`` has ``phi_k = 0``, ``R`` being the last
    index at which the map is nonzero at ``(sigma_1 + 1, sigma_1, ...,
    sigma_{k-1})``: one more than the number of singular values above a
    soft threshold, or the index of the last nonzero weight.  Only the top
    ``R`` roots are computed, with no ``n x m`` SVD and no ``k x k``
    eigensolver per position.  With ``D = S^2``, ``Z = [z1 z2]`` and
    ``J = diag(1, -1)``, the Gram matrix is ``D + Z J Z^T``, and root ``r``
    is a zero of ``(d_r - lambda) det(I + J Z^T (D - lambda)^{-1} Z)``,
    which is smooth at ``d_r``: vectorized Newton steps find it in O(k)
    per step and root.  An inertia count (Haynsworth) checks each root:
    exactly ``r`` eigenvalues lie above ``lambda_r - tol``, ``tol`` being
    ``1e-10`` times ``max(d_1, lambda_1)``.  For a root ``lambda`` not
    equal to any ``d_l``, let ``G = Z^T (D - lambda)^{-1} Z`` (2 x 2) and
    ``c`` the null vector of ``I + J G``, read off its row of larger norm.
    Then::

        x = (D - lambda)^{-1} Z c,  normalized

    in O(k) per root.  Near a pole the formula loses accuracy, and at a
    repeated root the vector is not determined (deflation; Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 15(4), 1994).  So a position is solved by a
    full batched ``eigh`` instead where a root's iteration does not
    converge or it fails its check (as when another root lies within
    ``tol`` below it), where a needed root lies within ``tol`` of some
    ``d_l``, or where ``I + J G`` is close to 0 at a needed root (a
    repeated root); this covers, for example, the equal-value ties of a
    soft threshold.

    The map must vanish at 0, with ``f_k(sigma) = O(sigma)`` near 0, as
    soft thresholds and weight maps do: a zero singular value of ``Y'``
    drops out of the sum, and ``phi_k`` stays bounded for a tiny one.  A map
    with ``f_k(0) != 0`` (the oracle and asymptotic shrinkers' fixed values)
    raises :class:`ParameterError`.  Each value ``f_k`` must also depend on
    ``sigma_k`` alone and vanish at every ``sigma`` below one where it
    vanishes, as soft thresholds and weight maps do; the map is evaluated
    with the roots past ``R`` set to 0.

    At a tie of two positive singular values of ``Y'`` the entry is defined
    only when the map gives both indices the same value there, as a soft
    threshold does; otherwise :class:`DegenerateSpectrumError` is raised.

    ``positions`` is an ``(p, 2)`` integer array of 0-based entry locations
    (any other is a :class:`DomainError`), all ``n * m`` when omitted, and
    the result is in its order.  ``fact``, the factorization of ``matrix``,
    is computed once here when not given.
    """
    fn = _require_spectral(estimator)
    matrix = np.asarray(matrix, dtype=float)
    n, m = matrix.shape
    positions = np.argwhere(np.ones((n, m), dtype=bool)) if positions is None else _positions(positions, n, m)
    fact = _factorization(matrix, fact)
    if np.any(fn.values(np.zeros(fact.rank_bound)) != 0.0):
        raise ParameterError("one-count downdates need a spectral map that vanishes at 0")
    if n > m:
        fact, positions = fact.transposed(), positions[:, ::-1]
    s = fact.singular_values
    top = _kept_roots(fn, s)
    left, scaled_right = fact.left_vectors, fact.right_vectors * s
    out = np.empty(len(positions))
    for start in range(0, len(positions), _DOWNDATE_BATCH):
        chunk = positions[start : start + _DOWNDATE_BATCH]
        entries = _downdated_chunk(fn, s, top, left[chunk[:, 0]], scaled_right[chunk[:, 1]])
        out[start : start + len(chunk)] = linalg.clamp(entries, fn.clamp_floor)
    return out


def _positions(positions, n: int, m: int) -> np.ndarray:
    """``positions`` as a ``(p, 2)`` integer array, or :class:`DomainError`
    naming the first that is not a :func:`linalg.is_integer` pair in ``[0, n) x [0, m)``."""
    if isinstance(positions, np.ndarray) and positions.dtype.kind in "iuf":
        with np.errstate(invalid="ignore"):  # a NaN or infinite position casts to garbage, rejected below
            out = positions.astype(int)
        bad = out != positions
    else:  # entry by entry: as one array, [[True, 0]] would read [[1, 0]]
        given = np.asarray(positions, dtype=object)
        bad = ~np.vectorize(linalg.is_integer, otypes=[bool])(given)
        out = np.where(bad, -1, given)
    if out.ndim != 2 or out.shape[1] != 2:
        raise DomainError(f"positions must be a (p, 2) array, got shape {out.shape}")
    bad = np.flatnonzero(np.any(bad | (out < 0) | (out >= (n, m)), axis=1))
    if bad.size:
        given = np.asarray(positions, dtype=object)[bad[0]].tolist()
        raise DomainError(f"position {given} (row {bad[0]}) is not an integer pair in [0, {n}) x [0, {m})")
    return out.astype(int, copy=False)


def _kept_roots(fn: SpectralFunction, s: np.ndarray) -> int:
    """``R``, the number of leading downdate roots the map can keep: the
    last index at which ``fn.values`` is nonzero at the interlacing bounds
    ``(sigma_1 + 1, sigma_1, ..., sigma_{k-1})`` of the downdate's singular
    values, or 0 (see :func:`downdated_entries`)."""
    kept = np.flatnonzero(fn.values(np.r_[s[0] + 1.0, s[:-1]]))
    return int(kept[-1]) + 1 if kept.size else 0


def _downdated_chunk(fn: SpectralFunction, s: np.ndarray, top: int, a: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Unclamped ``f_ij(Y - e_i e_j^T)`` for a chunk of positions, given the
    rows ``a = U^T e_i`` and ``z2 = S V^T e_j`` (one row per position) and
    the number ``top`` of leading roots the map can keep: the roots from
    :func:`_secular_roots` and the entries from :func:`_secular_entries`,
    or from :func:`_eigh_entries` at the positions these leave."""
    z1 = a - z2
    d = s**2
    entries = np.zeros(len(a))
    if top == 0:
        return entries
    lam, fallback = _secular_roots(s, z1, z2, top)
    rows = np.flatnonzero(~fallback)
    if rows.size:
        padded = np.zeros((len(rows), len(s)))  # the map values the roots past ``top`` at 0
        padded[:, :top] = lam[rows]
        phi = _root_weights(fn, padded)[:, :top]
        entries[rows], deflated = _secular_entries(phi, lam[rows], d, a[rows], z1[rows], z2[rows])
        fallback[rows[deflated]] = True
    if fallback.any():
        a, z1, z2 = a[fallback], z1[fallback], z2[fallback]
        z = np.stack([z1, z2], axis=2)
        gram = z @ (z * [1.0, -1.0]).transpose(0, 2, 1)  # Z J Z^T
        diagonal = np.arange(len(s))
        gram[:, diagonal, diagonal] += d
        entries[fallback] = _eigh_entries(fn, gram, a, z1)
    return entries


def _secular_roots(s: np.ndarray, z1: np.ndarray, z2: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` largest eigenvalues of each ``diag(s^2) + z1 z1^T - z2 z2^T``
    (one row per position, descending), and the mask of the positions left
    to :func:`_eigh_entries`: those where a root did not converge within
    ``_SECULAR_MAXITER`` steps or fails the inertia check.

    Root ``r`` is a zero of the pole-deflated secular function ``q_r`` of
    :func:`_secular_terms`, found by Newton steps from ``d_r + z1_r^2 -
    z2_r^2`` inside the interlacing bracket ``[d_{r+1}, d_{r-1}]`` (with
    ``(sigma_1 + 1)^2`` above the first root and ``d_k - |z2|^2`` below the
    last), which the inertia count at each iterate narrows; a step that leaves the
    bracket, or is not finite, is replaced by the bracket's midpoint.  A
    root has converged when its step or its bracket is at most
    ``_SECULAR_ATOL``.  The check: exactly ``r`` eigenvalues lie above
    ``mu_r - tol``, ``tol`` being the deflation tolerance, so a converged
    root is the ``r``-th eigenvalue and no other lies within ``tol`` below
    it.  Next to a pole of ``q_r`` a step is small without a root there;
    :func:`_secular_entries` sends a needed root that close to a pole to
    ``eigh``.  The iteration runs in a power-of-two unit above
    ``sigma_1 + 1``, which scales exactly and keeps every square finite."""
    bound, t = math.frexp(s[0] + 1.0)  # sqrt(lambda_1) <= sigma_1 + 1 = bound 2^t, bound < 1
    d = np.ldexp(s, -t) ** 2
    z1, z2 = np.ldexp(z1, -t), np.ldexp(z2, -t)
    zz = np.stack([z1 * z1, z2 * z2, z1 * z2], axis=2)
    p, k = z1.shape
    lo = np.tile(np.append(d[1:], 0.0)[:top], (p, 1))
    hi = np.tile(np.append(bound * bound, d[:-1])[:top], (p, 1))
    if top == k:
        lo[:, -1] = d[-1] - zz[:, :, 1].sum(axis=1)
    mu = d[:top] + zz[:, :top, 0] - zz[:, :top, 1]
    mu = np.where((mu >= lo) & (mu <= hi), mu, 0.5 * (lo + hi))
    order = np.arange(1, top + 1)
    active = np.ones((p, top), dtype=bool)
    for _ in range(_SECULAR_MAXITER):
        rows = np.flatnonzero(active.any(axis=1))
        if not rows.size:
            break
        now, low, high = mu[rows], lo[rows], hi[rows]
        q, slope, above = _secular_terms(d, zz[rows], now)
        low = np.where(above >= order, now, low)  # an undefined (NaN) count moves neither end
        high = np.where(above < order, now, high)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = q / slope
        new = now - step
        converged = np.abs(step) <= _SECULAR_ATOL
        new = np.where(converged | ((new > low) & (new < high)), new, 0.5 * (low + high))
        done = converged | (high - low <= _SECULAR_ATOL)
        moving = active[rows]
        mu[rows] = np.where(moving, new, now)
        lo[rows], hi[rows] = low, high
        active[rows] = moving & ~done
    tol = _DEFLATION_RTOL * np.maximum(d[0], mu[:, :1])
    _, _, above = _secular_terms(d, zz, mu - tol)
    fallback = active.any(axis=1) | np.any(above != order, axis=1)
    return np.ldexp(mu, 2 * t), fallback


def _secular_terms(d: np.ndarray, zz: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At trial roots ``mu`` (one row per position, column ``r`` for root
    ``r``), the pole-deflated secular function ``q_r(mu)``, its derivative,
    and the number of eigenvalues of ``D + Z J Z^T`` above ``mu`` (NaN where
    that count is undefined), given ``zz``, the rows ``(z1^2, z2^2, z1 z2)``.

    With ``G = Z^T (D - mu)^{-1} Z``, ``det(D + Z J Z^T - mu) = det(D - mu)
    det(I + J G)``, and the ``1 / (d_r - mu)^2`` terms of ``det(I + J G)``
    cancel exactly.  So, with ``G = G' + h / (d_r - mu)`` and ``h`` the
    ``r``-th terms, ``q_r`` is smooth at ``d_r``::

        q_r = (d_r - mu) det(I + J G) = (d_r - mu) P + Q,
        P = (1 + g'_11)(1 - g'_22) + g'_12^2,
        Q = h_11 (1 - g'_22) - h_22 (1 + g'_11) + 2 h_12 g'_12

    By Haynsworth inertia additivity the count is ``#(d > mu)`` where
    ``det(I + J G) > 0``; where it is negative, one more if
    ``g_11 + g_22 < 0`` and one fewer otherwise."""
    top = mu.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = d - mu[:, :, None]
        np.reciprocal(w, out=w)
        w[:, np.arange(top), np.arange(top)] = 0.0  # the pole q_r deflates
        g = w @ zz
        dg = np.square(w, out=w) @ zz
        g11, g22, g12 = g[..., 0], g[..., 1], g[..., 2]
        h11, h22, h12 = (zz[:, :top, c] for c in range(3))
        x = d[:top] - mu
        p = (1.0 + g11) * (1.0 - g22) + g12 * g12
        q = x * p + h11 * (1.0 - g22) - h22 * (1.0 + g11) + 2.0 * h12 * g12
        dp = dg[..., 0] * (1.0 - g22) - (1.0 + g11) * dg[..., 1] + 2.0 * g12 * dg[..., 2]
        slope = x * dp - p - h11 * dg[..., 1] - h22 * dg[..., 0] + 2.0 * h12 * dg[..., 2]
        sign = q * x  # the sign of det(I + J G)
        trace = g11 + g22 + (h11 + h22) / x
    count = np.searchsorted(-d, -mu)  # #(d > mu), d descending
    above = count + np.where(sign > 0.0, 0.0, np.where(trace < 0.0, 1.0, -1.0))
    return q, slope, np.where(np.isfinite(sign) & (sign != 0.0) & np.isfinite(trace), above, np.nan)


def _root_weights(fn: SpectralFunction, lam: np.ndarray) -> np.ndarray:
    """``phi_k = f_k(sqrt(lambda_k)) / sqrt(lambda_k)`` (0 where
    ``lambda_k <= 0``) for rows of descending eigenvalues, after
    :func:`_check_ties`."""
    root = np.sqrt(np.maximum(lam, 0.0))
    _check_ties(fn, lam, root)
    values = np.stack([fn.values(row) for row in root])
    return np.divide(values, root, out=np.zeros_like(root), where=lam > 0.0)


def _secular_entries(
    phi: np.ndarray, lam: np.ndarray, d: np.ndarray, a: np.ndarray, z1: np.ndarray, z2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped entries ``-sum_k phi_k (a^T x_k)(z1^T x_k)`` over the roots
    with ``phi_k != 0``, each unit vector ``x_k`` from the secular form of
    ``diag(d) + z1 z1^T - z2 z2^T`` (see :func:`downdated_entries`), and the
    mask of the positions left to :func:`_eigh_entries` (0 in the entries):
    those where such a root lies within ``_DEFLATION_RTOL`` times
    ``max(d_1, lambda_1)`` of some ``d_l``, or where ``I + J G`` is within
    ``_REPEATED_ROOT_TOL`` of 0 there, as at a repeated root, and leaves
    ``x_k`` undetermined.  The inertia count of :func:`_secular_roots`
    leaves no other root within ``tol`` of a simple one, but it cannot
    resolve a repeated root, whose computed copies can lie farther apart."""
    tol = _DEFLATION_RTOL * np.maximum(d[0], lam[:, 0])
    row, col = np.nonzero(phi)
    gap = d - lam[row, col][:, None]  # D - lambda, one row per needed root
    deflated = np.zeros(len(lam), dtype=bool)
    deflated[row[np.abs(gap).min(axis=1) < tol[row]]] = True
    keep = ~deflated[row]
    row, col, gap = row[keep], col[keep], gap[keep]
    a, z1, z2 = a[row], z1[row], z2[row]
    # (D - lambda) x = -Z J Z^T x: with c = J Z^T x, (I + J G) c = 0 for
    # G = Z^T (D - lambda)^{-1} Z, and x is proportional to (D - lambda)^{-1} Z c.
    w1, w2 = z1 / gap, z2 / gap
    g11 = np.einsum("nk,nk->n", z1, w1)
    g12 = np.einsum("nk,nk->n", z1, w2)
    g22 = np.einsum("nk,nk->n", z2, w2)
    # The null vector of the 2 x 2 matrix [[1 + g11, g12], [-g12, 1 - g22]],
    # read off its row of larger norm.
    first = (1.0 + g11) ** 2 >= (1.0 - g22) ** 2
    c1 = np.where(first, g12, 1.0 - g22)
    c2 = np.where(first, -1.0 - g11, g12)
    deflated[row[np.hypot(c1, c2) < _REPEATED_ROOT_TOL]] = True
    x = w1 * c1[:, None] + w2 * c2[:, None]
    terms = phi[row, col] * np.einsum("nk,nk->n", a, x) * np.einsum("nk,nk->n", z1, x)
    terms /= np.einsum("nk,nk->n", x, x)
    # bincount of no terms counts in integers.
    return -np.bincount(row, terms, minlength=len(lam)).astype(float, copy=False), deflated


def _eigh_entries(fn: SpectralFunction, gram: np.ndarray, a: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Unclamped entries from the full eigendecomposition of each downdate's
    Gram matrix ``gram``: the fallback of :func:`_secular_entries`."""
    lam, x = np.linalg.eigh(gram)
    lam, x = lam[:, ::-1], x[:, :, ::-1]
    phi = _root_weights(fn, lam)
    ax = (a[:, None, :] @ x)[:, 0, :]
    zx = (z1[:, None, :] @ x)[:, 0, :]
    return -np.sum(phi * ax * zx, axis=1)


def _check_ties(fn: SpectralFunction, lam: np.ndarray, root: np.ndarray) -> None:
    """Raise :class:`DegenerateSpectrumError` where a downdate has two positive
    eigenvalues closer than ``linalg.DEGENERACY_RTOL`` times its largest one
    and the map values their root differently at the two indices: the entry
    then depends on the basis ``eigh`` picks for the pair."""
    tol = linalg.DEGENERACY_RTOL * np.maximum(lam[:, :1], np.finfo(float).tiny)
    tied = (lam[:, :-1] - lam[:, 1:] < tol) & (lam[:, 1:] > tol)
    for row, k in np.argwhere(tied):
        merged = root[row].copy()
        merged[k + 1] = merged[k]
        values = fn.values(merged)
        if values[k] != values[k + 1]:
            raise DegenerateSpectrumError(
                f"singular values {k + 1} and {k + 2} of a one-count downdate coincide "
                f"(sigma={root[row, k]:.6g}) and the map values them differently"
            )


def _poisson_inputs(observed, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked counts ``y`` of a PURE or PUKLA estimate in ``mode``
    (``"approx"``, or ``"exact"`` up to ``n m = EXACT_DOWNDATE_CAP``), the
    mask of their nonzero entries and those counts, in ``np.argwhere`` order."""
    y = validate_counts(observed)
    if mode == "exact" and y.size > EXACT_DOWNDATE_CAP:
        raise CapacityError(
            f"exact one-count enumeration is guarded to n*m <= {EXACT_DOWNDATE_CAP}; "
            f"got {y.shape[0]}x{y.shape[1]}; use the Monte-Carlo approximation instead"
        )
    if mode not in ("exact", "approx"):
        raise ParameterError(f"mode must be 'exact' or 'approx', got {mode!r}")
    nonzero = y > 0
    return y, nonzero, y[nonzero]


def _poisson(kind: EstimatorKind, fn: SpectralFunction, fact, raw, y, nonzero, counts, directions) -> RiskEstimate:
    """PURE or PUKLA (``kind``) of the checked map ``fn``, whose unclamped
    estimate on ``fact`` is ``raw``, from the outputs of :func:`_poisson_inputs`.
    Its term is the mean of ``term(down)`` over samples ``down`` of ``f_ij(Y -
    e_i e_j^T)`` at the nonzero counts: every one-count downdate, exactly,
    when ``directions`` is ``None``; else ``f - delta * (J delta)`` per probe."""
    fhat = linalg.clamp(raw, fn.clamp_floor)
    if kind == "PURE":
        lead, scale = float(np.sum(fhat**2)), -2.0
        note = "estimates MSE minus the squared Frobenius norm of the signal"
        term = lambda down: float(np.sum(counts * down))
    else:
        lead, scale = float(np.sum(fhat)), -1.0
        note = "estimates MKLA plus sum_ij (X_ij - X_ij log X_ij)"
        log_floor = max(PUKLA_LOG_FLOOR, fn.clamp_floor or 0.0)
        term = lambda down: float(np.sum(counts * np.log(np.maximum(down, log_floor))))
    if directions is None:
        divergence = term(downdated_entries(fn, y, np.argwhere(nonzero), fact=fact))
    else:
        base = fhat[nonzero]
        divergence = _mean_stderr([term(base - p[nonzero]) for p in _probe_products(fn, fact, directions, raw)])
    return _risk_estimate(kind, lead, scale, divergence, note, exact=directions is None)


def _public_poisson(kind: EstimatorKind, observed, estimator, mode, samples, rng, fact) -> RiskEstimate:
    """PURE or PUKLA, every input checked and any probes drawn on this call."""
    y, nonzero, counts = _poisson_inputs(observed, mode)
    directions = probe_directions(y.shape, samples, rng) if mode == "approx" else None
    fn, fact, raw = _estimate(estimator, y, fact)
    return _poisson(kind, fn, fact, raw, y, nonzero, counts, directions)


def pure_poisson(
    observed: np.ndarray,
    estimator: SpectralFunction,
    *,
    mode: str = "exact",
    samples: int = 1,
    rng: Optional[np.random.Generator] = None,
    fact: Optional[SvdFactorization] = None,
) -> RiskEstimate:
    """Unbiased estimate of ``MSE - ||X||_F^2`` under Poisson noise.

    ``||f(Y)||_F^2 - 2 sum_ij y_ij f_ij(Y - e_i e_j^T)``.  ``mode="exact"``
    evaluates the estimator on every one-count downdate (guarded to small
    matrices); ``mode="approx"`` replaces each downdated entry by its
    first-order expansion probed along ``samples`` +-1 directions drawn from
    ``rng``.  ``fact``, the factorization of ``observed``, is computed once
    here when not given.
    """
    return _public_poisson("PURE", observed, estimator, mode, samples, rng, fact)


def pukla_poisson(
    observed: np.ndarray,
    estimator: SpectralFunction,
    *,
    mode: str = "exact",
    samples: int = 1,
    rng: Optional[np.random.Generator] = None,
    fact: Optional[SvdFactorization] = None,
) -> RiskEstimate:
    """Unbiased estimate (up to a signal-only constant) of the analysis
    Kullback-Leibler risk under Poisson noise.

    ``sum_ij f_ij(Y) - y_ij log f_ij(Y - e_i e_j^T)`` with the convention that
    ``y_ij = 0`` terms contribute nothing; log arguments are floored at
    :data:`PUKLA_LOG_FLOOR` (or the estimator's own clamp floor if larger).
    ``mode``, ``samples``, ``rng`` and ``fact`` are as in :func:`pure_poisson`.
    """
    return _public_poisson("PUKLA", observed, estimator, mode, samples, rng, fact)


VALID_OBJECTIVES = {
    "gaussian": ("sure",),
    "gamma": ("gsure", "sukls"),
    "poisson": ("pure", "pukla"),
}
DEFAULT_OBJECTIVES = {"gaussian": "sure", "gamma": "sukls", "poisson": "pukla"}


def resolve_objective(model: NoiseModel, objective: Optional[str] = None) -> str:
    """The risk objective to use for ``model``: the family default when it is
    None; :class:`ParameterError` for a name that is not exactly one the family
    defines (``SURE`` is not ``sure``, nor is ``""`` a name), and for GSURE or
    SUKLS under a Gamma shape ``L <= 2``, where neither estimate is defined."""
    objective = DEFAULT_OBJECTIVES[model.family] if objective is None else objective
    if objective not in VALID_OBJECTIVES[model.family]:
        raise ParameterError(
            f"objective {objective!r} is not defined for the {model.family} family; valid pairings: "
            + "; ".join(f"{k}: {', '.join(v)}" for k, v in VALID_OBJECTIVES.items())
        )
    if model.family == "gamma" and not model.shape > 2:
        raise ParameterError(f"objective {objective!r} requires L > 2, got {model.shape}")
    return objective


def make_risk_objective(
    observed: np.ndarray,
    fact: SvdFactorization,
    model: NoiseModel,
    objective: str,
    *,
    rng: Optional[np.random.Generator] = None,
    samples: int = 1,
    exact: bool = False,
) -> Callable[[SpectralFunction], RiskEstimate]:
    """Build a deterministic map from spectral functions to risk estimates:
    the score that a fit minimizes and that a CLI report gives.

    What depends on the observation alone is done once, here, so a fit that
    evaluates nothing still rejects a bad one: the objective is resolved,
    ``fact`` is checked against ``observed``, a Gamma observation is checked
    for positivity and its GSURE carrier computed, and a Poisson one is
    checked for counts and its nonzero counts read off.  A GSURE, SUKLS,
    PURE or PUKLA evaluation composes and clamps the estimate once, with the
    formulas of :func:`gsure_gamma`, :func:`sukls_gamma`, :func:`pure_poisson`,
    :func:`pukla_poisson` and their Monte-Carlo terms; PURE and PUKLA
    enumerate the downdates when ``exact`` (right for a report, too slow to
    minimize) and ``n m <= EXACT_DOWNDATE_CAP``.  SURE reads the spectrum
    alone and takes maps without a clamp floor only.  Monte-Carlo criteria
    draw their ``samples`` probes on the first evaluation that needs them
    and reuse them, so the objective is a fixed function, and one never
    evaluated draws nothing from ``rng``: GSURE and approximate PURE/PUKLA
    probe on every evaluation, SUKLS only once the clamp floor binds, since
    a clamped estimate has no closed form.
    """
    objective = resolve_objective(model, objective)
    y = np.asarray(observed, dtype=float)
    fact = _factorization(y, fact)
    s = fact.singular_values
    if model.family == "gamma":
        L = float(model.shape)
        validate_positive(y, "Gamma observations")
        carrier = _gsure_carrier(L, y) if objective == "gsure" else None
    elif model.family == "poisson":
        mode = "exact" if exact and y.size <= EXACT_DOWNDATE_CAP else "approx"
        y, nonzero, counts = _poisson_inputs(y, mode)
    directions: list[np.ndarray] = []

    def probes() -> list[np.ndarray]:
        if not directions:
            if rng is None:
                raise ParameterError(f"objective {objective!r} needs an rng for its probe directions")
            directions.extend(probe_directions(y.shape, samples, rng))
        return directions

    def evaluate(fn: SpectralFunction) -> RiskEstimate:
        values = _require_spectral(fn).values(s)
        if objective == "sure":
            if fn.clamp_floor is not None:
                raise ParameterError("SURE scores estimates without a clamp floor only")
            divergence = divergence_closed_form(fact, values, fn.derivs(s))
            return _sure(y.shape, _residual(fact, values), model.tau, divergence)
        raw = linalg.compose(fact, values)
        if objective in ("pure", "pukla"):
            probed = probes() if mode == "approx" else None
            return _poisson(objective.upper(), fn, fact, raw, y, nonzero, counts, probed)
        f = linalg.clamp(raw, fn.clamp_floor)
        if objective == "gsure":
            return _gsure(L, y, f, carrier, _theta_divergence(fn, fact, probes(), raw, L, f))
        if fn.clamp_floor is not None and np.any(raw < fn.clamp_floor):
            divergence = _probe_mean(fn, fact, probes(), raw)
        else:
            divergence = divergence_closed_form(fact, values, fn.derivs(s))
        return _sukls(L, y, _positive(f), divergence)

    return evaluate

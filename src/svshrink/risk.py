"""Unbiased risk estimates for spectral denoisers.

Covers the mean-squared-error estimate under Gaussian noise, its
natural-parameter analogue and the Kullback-Leibler synthesis estimate under
Gamma noise, and the Poisson estimates built from one-count downdates (exact
enumeration or a first-order Monte-Carlo approximation).  The degrees-of-
freedom term common to all of them is the divergence of the spectral map,
available in closed form or by Monte-Carlo trace probing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import CapacityError, DomainError, ParameterError
from .linalg import SpectralFunction, SvdFactorization
from .models import validate_counts

EXACT_DOWNDATE_CAP = 10_000  # largest n*m for exact one-count enumerations
_DOWNDATE_BATCH = 256

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
        if not math.isfinite(self.value):
            raise DomainError(f"risk estimate is not finite: {self.value}")
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
    """
    s = fact.singular_values
    f = np.asarray(shrink_values, dtype=float)
    d = np.asarray(shrink_derivs, dtype=float)
    if f.shape != s.shape or d.shape != s.shape:
        raise DomainError("shrink_values and shrink_derivs must match the singular values")
    if fact.tie_mask.any():
        linalg.check_distinct(fact, f, d)

    ratio = linalg._safe_ratio(f, s)
    total = abs(fact.m - fact.n) * float(ratio.sum()) + float(d.sum())
    total += 2.0 * float(f @ fact.pair_sums)
    return total


def rademacher(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """A +-1 probe direction: zero mean, unit variance, independent entries."""
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def probe_directions(
    shape: tuple[int, int],
    samples: int,
    rng: Optional[np.random.Generator],
    directions: Optional[Sequence[np.ndarray]] = None,
) -> list[np.ndarray]:
    """The probe directions of a Monte-Carlo estimate: ``directions`` when
    given, else ``samples`` Rademacher draws from ``rng``.

    Raises :class:`DomainError` when there would be no probe (an average
    over none is NaN) or no rng to draw from.
    """
    if directions is None:
        if samples < 1:
            raise DomainError("samples must be >= 1")
        if rng is None:
            raise DomainError("an rng is required when directions are not supplied")
        return [rademacher(shape, rng) for _ in range(samples)]
    directions = list(directions)
    if not directions:
        raise DomainError("at least one probe direction is required")
    return directions


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


def _estimate(
    estimator: Union[SpectralFunction, Callable[[np.ndarray], np.ndarray]],
    matrix: np.ndarray,
    fact: Optional[SvdFactorization],
) -> tuple[np.ndarray, Optional[SvdFactorization]]:
    """The estimate at ``matrix`` and, for a spectral estimator, the
    factorization it was built from."""
    if not isinstance(estimator, SpectralFunction):
        return estimator(matrix), None
    fact = _factorization(matrix, fact)
    return estimator.apply_to_factorization(fact), fact


def _jacobian_probe(
    apply: Union[SpectralFunction, Callable[[np.ndarray], np.ndarray]],
    matrix: np.ndarray,
    fact: Optional[SvdFactorization],
    delta: np.ndarray,
    fd_step: float,
) -> np.ndarray:
    """Jacobian-vector product of ``apply`` at ``matrix`` along ``delta``."""
    if isinstance(apply, SpectralFunction):
        return apply.derivative_probe(fact, delta)
    plus = apply(matrix + fd_step * delta)
    minus = apply(matrix - fd_step * delta)
    return (plus - minus) / (2.0 * fd_step)


def mc_divergence(
    apply: Union[SpectralFunction, Callable[[np.ndarray], np.ndarray]],
    matrix: np.ndarray,
    samples: int,
    rng: Optional[np.random.Generator] = None,
    *,
    directions: Optional[Sequence[np.ndarray]] = None,
    weights: Optional[np.ndarray] = None,
    fd_step: float = 1e-6,
    fact: Optional[SvdFactorization] = None,
) -> MonteCarloDivergence:
    """Monte-Carlo divergence of a matrix map by random trace probing.

    Averages ``trace(delta^T (dF/dY) delta)`` over +-1 directions, which is
    unbiased for the divergence because off-diagonal Jacobian terms cancel in
    expectation.  Spectral maps use the exact Jacobian-vector product; any
    other callable is probed by central finite differences.

    Parameters
    ----------
    weights : np.ndarray, optional
        Entrywise weights ``a_ij``; the estimate then targets
        ``sum_ij a_ij dF_ij / dY_ij`` instead of the plain divergence.
    directions : sequence of np.ndarray, optional
        Explicit probe directions (overrides ``samples``/``rng``); useful for
        full enumeration and for freezing an objective during optimization.
    fact : SvdFactorization, optional
        Factorization of ``matrix``, used by a spectral map; it is computed
        once here when not given.
    """
    matrix = np.asarray(matrix, dtype=float)
    directions = probe_directions(matrix.shape, samples, rng, directions)
    if isinstance(apply, SpectralFunction):
        fact = _factorization(matrix, fact)
    probes = []
    for delta in directions:
        dd = _jacobian_probe(apply, matrix, fact, delta, fd_step)
        term = delta * dd if weights is None else weights * delta * dd
        probes.append(float(np.sum(term)))
    probes = np.asarray(probes)
    nprobe = len(probes)
    stderr = float(np.std(probes, ddof=1) / np.sqrt(nprobe)) if nprobe > 1 else None
    return MonteCarloDivergence(float(np.mean(probes)), stderr, nprobe)


def _divergence_fields(divergence) -> tuple[float, DivergenceKind, Optional[int], Optional[float]]:
    if isinstance(divergence, MonteCarloDivergence):
        return divergence.value, "monte_carlo", divergence.samples, divergence.stderr
    return float(divergence), "closed_form", None, None


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
    return _sure(y.shape, float(np.sum((est - y) ** 2)), tau, divergence)


def sure_gaussian_spectral(
    fact: SvdFactorization,
    shrink_values: np.ndarray,
    tau: float,
    divergence: Union[float, MonteCarloDivergence],
) -> RiskEstimate:
    """:func:`sure_gaussian` of the unclamped spectral estimate
    ``sum_k f_k u_k v_k^T`` of the factorized observation, without forming it.

    The singular vectors are orthonormal and the thin SVD holds all of ``Y``,
    so ``||estimate - Y||_F^2 = sum_k (f_k - sigma_k)^2``: O(k) instead of
    O(n m k).  Equal to the entrywise value up to floating-point rounding.
    """
    f = np.asarray(shrink_values, dtype=float)
    if f.shape != fact.singular_values.shape:
        raise DomainError("shrink_values must match the singular values")
    residual = float(np.sum((f - fact.singular_values) ** 2))
    return _sure((fact.n, fact.m), residual, tau, divergence)


def _sure(
    shape: tuple[int, int],
    residual: float,
    tau: float,
    divergence: Union[float, MonteCarloDivergence],
) -> RiskEstimate:
    """SURE from the squared residual ``||estimate - Y||_F^2``."""
    if not tau > 0:
        raise ParameterError("tau must be positive")
    div, kind, samples, dstderr = _divergence_fields(divergence)
    n, m = shape
    value = -n * m * tau**2 + residual + 2.0 * tau**2 * div
    stderr = 2.0 * tau**2 * dstderr if dstderr is not None else None
    return RiskEstimate(value, "SURE", kind, samples, stderr, offset_note="estimates the MSE itself")


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
    L = float(shape)
    if L <= 2:
        raise ParameterError(f"the natural-parameter risk estimate requires L > 2, got {L}")
    y = np.asarray(observed, dtype=float)
    f = np.asarray(estimate, dtype=float)
    if y.shape != f.shape:
        raise DomainError("estimate must match the observation shape")
    if np.any(y <= 0):
        raise DomainError("Gamma observations must be positive")
    if np.any(f <= 0):
        raise DomainError("the spectral estimate must be positive entrywise (apply a clamp floor)")
    div, kind, samples, dstderr = _divergence_fields(theta_divergence)
    value = float(
        np.sum(L**2 / f**2 - 2.0 * L * (L - 1.0) / (y * f) + (L - 1.0) * (L - 2.0) / y**2)
    )
    value += 2.0 * div
    stderr = 2.0 * dstderr if dstderr is not None else None
    return RiskEstimate(
        value, "GSURE", kind, samples, stderr,
        offset_note="estimates the MSE of the natural parameter eta(X)",
    )


def mc_theta_divergence_gamma(
    spectral_fn: SpectralFunction,
    matrix: np.ndarray,
    shape: float,
    samples: int,
    rng: Optional[np.random.Generator] = None,
    *,
    directions: Optional[Sequence[np.ndarray]] = None,
    fact: Optional[SvdFactorization] = None,
) -> MonteCarloDivergence:
    """Monte-Carlo estimate of the natural-parameter divergence for Gamma.

    Probes ``sum_ij (L / f_ij^2) df_ij/dY_ij`` with entrywise weights
    ``L / f_ij^2`` applied to the divergence trace estimator.  ``fact``, the
    factorization of ``matrix``, is computed once here when not given.
    """
    matrix = np.asarray(matrix, dtype=float)
    directions = probe_directions(matrix.shape, samples, rng, directions)
    f, fact = _estimate(spectral_fn, matrix, fact)
    if np.any(f <= 0):
        raise DomainError("the spectral estimate must be positive entrywise (apply a clamp floor)")
    weights = float(shape) / f**2
    return mc_divergence(
        spectral_fn, matrix, samples, directions=directions, weights=weights, fact=fact
    )


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
    L = float(shape)
    if L <= 2:
        raise ParameterError(f"the synthesis KL risk estimate requires L > 2, got {L}")
    y = np.asarray(observed, dtype=float)
    f = np.asarray(estimate, dtype=float)
    if y.shape != f.shape:
        raise DomainError("estimate must match the observation shape")
    if np.any(y <= 0):
        raise DomainError("Gamma observations must be positive")
    if np.any(f <= 0):
        raise DomainError("the spectral estimate must be positive entrywise (apply a clamp floor)")
    div, kind, samples, dstderr = _divergence_fields(divergence)
    n, m = y.shape
    value = float(np.sum((L - 1.0) * f / y - L * np.log(f))) - L * n * m + div
    return RiskEstimate(
        value, "SUKLS", kind, samples, dstderr,
        offset_note="estimates MKLS minus sum_ij A(theta_ij)",
    )


def _spectral_downdated_entries(
    spectral_fn: SpectralFunction,
    matrix: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """``f_ij(Y - e_i e_j^T)`` for the requested positions, via batched SVDs."""
    n, m = matrix.shape
    out = np.empty(len(positions))
    for start in range(0, len(positions), _DOWNDATE_BATCH):
        chunk = positions[start : start + _DOWNDATE_BATCH]
        stack = np.broadcast_to(matrix, (len(chunk), n, m)).copy()
        stack[np.arange(len(chunk)), chunk[:, 0], chunk[:, 1]] -= 1.0
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        values = np.stack([np.asarray(spectral_fn.values_fn(row), dtype=float) for row in s])
        rows = u[np.arange(len(chunk)), chunk[:, 0], :]
        cols = vt[np.arange(len(chunk)), :, chunk[:, 1]]
        entries = np.sum(values * rows * cols, axis=1)
        if spectral_fn.clamp_floor is not None:
            entries = np.maximum(entries, spectral_fn.clamp_floor)
        out[start : start + len(chunk)] = entries
    return out


def downdated_entries(
    estimator: Union[SpectralFunction, Callable[[np.ndarray], np.ndarray]],
    matrix: np.ndarray,
    positions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Entries ``f_ij(Y - e_i e_j^T)`` of the estimator on one-count downdates.

    ``positions`` is an ``(p, 2)`` integer array of 0-based entry locations;
    all ``n * m`` positions are used when omitted.  The result is returned in
    the order of ``positions``.
    """
    matrix = np.asarray(matrix, dtype=float)
    n, m = matrix.shape
    if positions is None:
        positions = np.argwhere(np.ones((n, m), dtype=bool))
    positions = np.asarray(positions, dtype=int)
    if isinstance(estimator, SpectralFunction):
        return _spectral_downdated_entries(estimator, matrix, positions)
    out = np.empty(len(positions))
    for idx, (i, j) in enumerate(positions):
        downdated = matrix.copy()
        downdated[i, j] -= 1.0
        out[idx] = estimator(downdated)[i, j]
    return out


def _guard_exact_size(matrix: np.ndarray) -> None:
    n, m = matrix.shape
    if n * m > EXACT_DOWNDATE_CAP:
        raise CapacityError(
            f"exact one-count enumeration is guarded to n*m <= {EXACT_DOWNDATE_CAP}; "
            f"got {n}x{m}; use the Monte-Carlo approximation instead"
        )


def pure_poisson(
    observed: np.ndarray,
    estimator: Union[SpectralFunction, Callable[[np.ndarray], np.ndarray]],
    *,
    mode: str = "exact",
    samples: int = 1,
    rng: Optional[np.random.Generator] = None,
    directions: Optional[Sequence[np.ndarray]] = None,
    fact: Optional[SvdFactorization] = None,
) -> RiskEstimate:
    """Unbiased estimate of ``MSE - ||X||_F^2`` under Poisson noise.

    ``mode="exact"`` evaluates the estimator on every one-count downdate
    (guarded to small matrices); ``mode="approx"`` replaces each downdated
    entry by its first-order expansion probed along +-1 directions, which
    requires a spectral estimator.  ``fact``, the factorization of
    ``observed``, is computed once here for a spectral estimator when not
    given.
    """
    y = validate_counts(observed)
    if mode == "approx":
        directions = _approx_directions(estimator, y, samples, rng, directions)
    elif mode != "exact":
        raise ParameterError(f"mode must be 'exact' or 'approx', got {mode!r}")
    fhat, fact = _estimate(estimator, y, fact)
    norm_sq = float(np.sum(fhat**2))
    nonzero = np.argwhere(y > 0)

    if mode == "exact":
        _guard_exact_size(y)
        if len(nonzero) == 0:
            cross = 0.0
        else:
            down = downdated_entries(estimator, y, nonzero)
            cross = float(np.sum(y[nonzero[:, 0], nonzero[:, 1]] * down))
        return RiskEstimate(
            norm_sq - 2.0 * cross, "PURE", "exact",
            offset_note="estimates MSE minus the squared Frobenius norm of the signal",
        )

    crosses = []
    for delta in directions:
        dd = estimator.derivative_probe(fact, delta)
        crosses.append(float(np.sum(y * (fhat - delta * dd))))
    crosses = np.asarray(crosses)
    value = norm_sq - 2.0 * float(np.mean(crosses))
    stderr = (
        2.0 * float(np.std(crosses, ddof=1) / np.sqrt(len(crosses))) if len(crosses) > 1 else None
    )
    return RiskEstimate(
        value, "PURE", "monte_carlo", len(crosses), stderr,
        offset_note="estimates MSE minus the squared Frobenius norm of the signal",
    )


def _approx_directions(estimator, y, samples, rng, directions) -> list[np.ndarray]:
    """The probes of a first-order Poisson estimate, which needs a spectral
    estimator."""
    if not isinstance(estimator, SpectralFunction):
        raise ParameterError("the first-order approximation requires a spectral estimator")
    return probe_directions(y.shape, samples, rng, directions)


def pukla_poisson(
    observed: np.ndarray,
    estimator: Union[SpectralFunction, Callable[[np.ndarray], np.ndarray]],
    *,
    mode: str = "exact",
    samples: int = 1,
    rng: Optional[np.random.Generator] = None,
    directions: Optional[Sequence[np.ndarray]] = None,
    log_floor: float = 1e-6,
    fact: Optional[SvdFactorization] = None,
) -> RiskEstimate:
    """Unbiased estimate (up to a signal-only constant) of the analysis
    Kullback-Leibler risk under Poisson noise.

    ``sum_ij f_ij(Y) - y_ij log f_ij(Y - e_i e_j^T)`` with the convention that
    ``y_ij = 0`` terms contribute nothing; log arguments are floored at
    ``log_floor`` (or the estimator's own clamp floor if larger).  ``mode``
    and ``fact`` are as in :func:`pure_poisson`.
    """
    y = validate_counts(observed)
    if mode == "approx":
        directions = _approx_directions(estimator, y, samples, rng, directions)
    elif mode != "exact":
        raise ParameterError(f"mode must be 'exact' or 'approx', got {mode!r}")
    if isinstance(estimator, SpectralFunction) and estimator.clamp_floor is not None:
        log_floor = max(log_floor, estimator.clamp_floor)
    fhat, fact = _estimate(estimator, y, fact)
    lead = float(np.sum(fhat))
    nonzero = np.argwhere(y > 0)
    counts = y[nonzero[:, 0], nonzero[:, 1]] if len(nonzero) else np.zeros(0)
    note = "estimates MKLA plus sum_ij (X_ij - X_ij log X_ij)"

    if mode == "exact":
        _guard_exact_size(y)
        if len(nonzero) == 0:
            return RiskEstimate(lead, "PUKLA", "exact", offset_note=note)
        down = np.maximum(downdated_entries(estimator, y, nonzero), log_floor)
        value = lead - float(np.sum(counts * np.log(down)))
        return RiskEstimate(value, "PUKLA", "exact", offset_note=note)

    terms = []
    for delta in directions:
        dd = estimator.derivative_probe(fact, delta)
        approx = np.maximum(fhat - delta * dd, log_floor)
        if len(nonzero) == 0:
            terms.append(0.0)
        else:
            logs = np.log(approx[nonzero[:, 0], nonzero[:, 1]])
            terms.append(float(np.sum(counts * logs)))
    terms = np.asarray(terms)
    value = lead - float(np.mean(terms))
    stderr = float(np.std(terms, ddof=1) / np.sqrt(len(terms))) if len(terms) > 1 else None
    return RiskEstimate(value, "PUKLA", "monte_carlo", len(terms), stderr, offset_note=note)

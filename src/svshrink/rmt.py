"""Asymptotic (large-dimension) reference formulas for the spiked model.

With noise standard deviation ``1/sqrt(m)`` and aspect ratio ``n/m -> c`` in
(0, 1], the noise singular values fill ``[1 - sqrt(c), 1 + sqrt(c)]`` and a
signal spike ``sigma > c^(1/4)`` sends an observed singular value to
``rho(sigma)`` above the bulk edge.  These scalar maps provide the oracles that finite-sample
estimators are verified against: the spike-location map and its inverse, the
Cauchy transform of the limiting spectral distribution, the optimal
shrinkers, and the limits of the risk-estimate and degrees-of-freedom terms.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def _check_c(c: float) -> float:
    if not 0 < c <= 1:
        raise DomainError(f"aspect ratio c must be in (0, 1], got {c}")
    return float(c)


def bulk_edge(c: float) -> float:
    """Upper bulk edge ``1 + sqrt(c)``."""
    return 1.0 + np.sqrt(_check_c(c))


def rho(sigma, c: float):
    """Asymptotic observed location of a spike:
    ``sqrt((1 + sigma^2)(c + sigma^2) / sigma^2)``.

    Always at least the bulk edge, with equality exactly at the
    detectability threshold ``sigma = c^(1/4)``, and strictly increasing
    above it.  Only there does it describe the observed singular value;
    weaker spikes surface at the bulk edge itself.
    """
    c = _check_c(c)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise DomainError("sigma must be positive")
    out = np.sqrt((1.0 + sigma**2) * (c + sigma**2) / sigma**2)
    return float(out) if out.ndim == 0 else out


def sigma_from_rho(y, c: float):
    """Invert the spike-location map above the bulk edge via
    ``1/sigma^2 = (y^2 - (c+1) - sqrt((y^2 - (c+1))^2 - 4c)) / (2c)``."""
    c = _check_c(c)
    y = np.asarray(y, dtype=float)
    if np.any(y <= bulk_edge(c)):
        raise DomainError(f"the inverse is defined for y > 1 + sqrt(c) = {bulk_edge(c):.6g}")
    t = y**2 - (c + 1.0)
    inv_sq = (t - np.sqrt(t**2 - 4.0 * c)) / (2.0 * c)
    out = 1.0 / np.sqrt(inv_sq)
    return float(out) if out.ndim == 0 else out


def mp_density(lam, c: float):
    """Density of the limiting squared-singular-value distribution on
    ``[(1 - sqrt(c))^2, (1 + sqrt(c))^2]``."""
    c = _check_c(c)
    lam = np.asarray(lam, dtype=float)
    lo, hi = (1.0 - np.sqrt(c)) ** 2, (1.0 + np.sqrt(c)) ** 2
    inside = (lam > lo) & (lam < hi)
    out = np.zeros_like(lam)
    out[inside] = np.sqrt((hi - lam[inside]) * (lam[inside] - lo)) / (2.0 * np.pi * c * lam[inside])
    return float(out) if out.ndim == 0 else out


def mp_cauchy(z, c: float):
    """Cauchy (Stieltjes) transform of the limiting spectral distribution on
    the real branch right of the bulk:
    ``(z - (1 - c) - sqrt((z - (c+1))^2 - 4c)) / (2 c z)``.

    Satisfies ``mp_cauchy(rho(sigma)^2, c) = (1 + 1/sigma^2) / rho(sigma)^2``
    for detectable spikes.
    """
    c = _check_c(c)
    z = np.asarray(z, dtype=float)
    hi = (1.0 + np.sqrt(c)) ** 2
    if np.any(z <= hi):
        raise DomainError(f"z must lie right of the bulk support, z > {hi:.6g}")
    out = (z - (1.0 - c) - np.sqrt((z - (c + 1.0)) ** 2 - 4.0 * c)) / (2.0 * c * z)
    return float(out) if out.ndim == 0 else out


def shrinker_gd(y, c: float):
    """Optimal shrinker as a function of the *observed* singular value:
    ``sqrt((y^2 - (c+1))^2 - 4c) / y`` above the bulk edge, else 0."""
    c = _check_c(c)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("observed singular values must be nonnegative")
    edge = bulk_edge(c)
    t = y**2 - (c + 1.0)
    disc = np.maximum(t**2 - 4.0 * c, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(y > edge, np.sqrt(disc) / np.where(y == 0.0, 1.0, y), 0.0)
    return float(val) if val.ndim == 0 else val


def shrinker_sigma(sigma, c: float):
    """Optimal shrinker as a function of the *true* spike:
    ``(sigma^4 - c) / (sigma sqrt((1 + sigma^2)(c + sigma^2)))`` above the
    detectability threshold, else 0."""
    c = _check_c(c)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise DomainError("sigma must be positive")
    val = np.where(
        sigma > c**0.25,
        (sigma**4 - c) / (sigma * np.sqrt((1.0 + sigma**2) * (c + sigma**2))),
        0.0,
    )
    return float(val) if val.ndim == 0 else val


def asymptotic_optimal_weight(sigma, c: float):
    """Limit of the data-driven weight for a detectable spike:
    ``1 - (sigma^2 (1 + c) + 2c) / (sigma^2 rho(sigma)^2)``.

    Multiplying by ``rho(sigma)`` recovers the optimal shrinker.
    """
    c = _check_c(c)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= c**0.25):
        raise DomainError(f"the weight limit needs sigma > c^(1/4) = {c**0.25:.6g}")
    r2 = rho(sigma, c) ** 2
    out = 1.0 - (sigma**2 * (1.0 + c) + 2.0 * c) / (sigma**2 * r2)
    return float(out) if np.ndim(out) == 0 else out


def _spike_terms(f_values, sigmas, c: float) -> tuple:
    """The checked ``(c, f, sigmas, rho(sigmas))`` of the spike limits: every
    spike above the detectability threshold, one value ``f_k`` per spike."""
    c = _check_c(c)
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if np.any(sigmas <= c**0.25):
        raise DomainError(f"all spikes must exceed c^(1/4) = {c**0.25:.6g}")
    f = np.atleast_1d(np.asarray(f_values, dtype=float))
    if f.shape != sigmas.shape:
        raise DomainError("f_values must align with sigmas")
    return c, f, sigmas, rho(sigmas, c)


def asymptotic_sure(f_values, sigmas, c: float) -> float:
    """Almost-sure limit of the estimator-dependent part of the Gaussian risk
    estimate for a shrinker taking value ``f_k`` at ``rho(sigma_k)``:
    ``sum_k (f_k - rho_k)^2 + 2 f_k (sigma_k^2 (1+c) + 2c) / (sigma_k^2 rho_k)``.

    The per-index quadratic is minimized by the optimal shrinker value.
    """
    c, f, sigmas, r = _spike_terms(f_values, sigmas, c)
    bracket = (sigmas**2 * (1.0 + c) + 2.0 * c) / (sigmas**2 * r)
    return float(np.sum((f - r) ** 2 + 2.0 * f * bracket))


def asymptotic_dof(f_values, sigmas, c: float) -> float:
    """Limit of the degrees of freedom per column dimension:
    ``sum_k (f_k / rho_k) (1 + c + 2c / sigma_k^2)``.

    With ``f_k = rho_k`` (plain truncation) each term is at most
    ``(1 + sqrt(c))^2``, which is what justifies the active-set penalty.
    """
    c, f, sigmas, r = _spike_terms(f_values, sigmas, c)
    return float(np.sum(f / r * (1.0 + c + 2.0 * c / sigmas**2)))

"""Shared test utilities: synthetic signals and independent oracles."""

from __future__ import annotations

import math

import numpy as np

from svshrink import linalg, matrixio, rmt, risk
from svshrink.errors import DegenerateSpectrumError, DomainError, NumericalError


def write_matrix_binary(path, matrix: np.ndarray) -> None:
    """Write ``matrix`` as an SSMX file: the magic, ``n`` and ``m`` as
    little-endian u64, then the entries as little-endian f64, row-major."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n, m = matrix.shape
    header = matrixio.BINARY_MAGIC + n.to_bytes(8, "little") + m.to_bytes(8, "little")
    path.write_bytes(header + np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def mp_density(lam, c: float):
    """Density of the limiting squared-singular-value distribution on
    ``[(1 - sqrt(c))^2, (1 + sqrt(c))^2]``: the quadrature oracle for
    :func:`svshrink.rmt.mp_cauchy`."""
    lo, hi = (1.0 - np.sqrt(c)) ** 2, (1.0 + np.sqrt(c)) ** 2
    if not lo < lam < hi:
        return 0.0
    return np.sqrt((hi - lam) * (lam - lo)) / (2.0 * np.pi * c * lam)


def asymptotic_sure(f_values, sigmas, c: float) -> float:
    """Almost-sure limit of the estimator-dependent part of the Gaussian risk
    estimate for a shrinker taking value ``f_k`` at ``rho(sigma_k)``:
    ``sum_k (f_k - rho_k)^2 + 2 f_k (sigma_k^2 (1+c) + 2c) / (sigma_k^2 rho_k)``.
    Its per-index minimizer is the optimal shrinker value."""
    f = np.asarray(f_values, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    r = rmt.rho(sigmas, c)
    bracket = (sigmas**2 * (1.0 + c) + 2.0 * c) / (sigmas**2 * r)
    return float(np.sum((f - r) ** 2 + 2.0 * f * bracket))


def quadratic_profile(n: int) -> np.ndarray:
    """Unit-norm positive vector with entries proportional to
    ``1 - (i/n - 1/2)^2``, i = 1..n: the first column of the
    ``quadratic_profile`` recipe."""
    t = np.arange(1, n + 1) / n
    p = 1.0 - (t - 0.5) ** 2
    return p / np.linalg.norm(p)


def rank_one_positive(n: int, m: int, scale: float) -> np.ndarray:
    """Positive rank-one signal with unit-norm quadratic-profile vectors."""
    return scale * np.outer(quadratic_profile(n), quadratic_profile(m))


def spiked_signal(n: int, m: int, sigmas, rng: np.random.Generator) -> np.ndarray:
    """Low-rank signal with seeded random orthonormal singular vectors."""
    sigmas = np.asarray(sigmas, dtype=float)
    r = len(sigmas)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return (u * sigmas) @ v.T


def apply_spectral(matrix: np.ndarray, values_fn) -> np.ndarray:
    """Evaluate a per-singular-value map on a matrix (independent recompute)."""
    fact = linalg.svd(matrix)
    return linalg.compose(fact, values_fn(fact.singular_values))


def fd_divergence(values_fn, matrix: np.ndarray, step: float = 1e-6) -> float:
    """Entrywise central-difference divergence oracle: sum_ij dF_ij/dY_ij."""
    n, m = matrix.shape
    total = 0.0
    for i in range(n):
        for j in range(m):
            bump = np.zeros_like(matrix)
            bump[i, j] = step
            plus = apply_spectral(matrix + bump, values_fn)[i, j]
            minus = apply_spectral(matrix - bump, values_fn)[i, j]
            total += (plus - minus) / (2.0 * step)
    return total


def grid_argmin(fn, lo: float, hi: float, step: float) -> float:
    """Dense grid argmin oracle for scalar objectives."""
    grid = np.arange(lo, hi + step / 2, step)
    values = np.array([fn(t) for t in grid])
    return float(grid[np.argmin(values)])


def svd_downdated_entries(fn: linalg.SpectralFunction, matrix: np.ndarray, positions) -> np.ndarray:
    """Reference one-count downdates ``f_ij(Y - e_i e_j^T)``: one full SVD of
    each downdated matrix, batched, read at entry ``(i, j)`` and clamped."""
    matrix = np.asarray(matrix, dtype=float)
    n, m = matrix.shape
    positions = np.asarray(positions, dtype=int).reshape(-1, 2)
    out = np.empty(len(positions))
    for start in range(0, len(positions), 256):
        chunk = positions[start : start + 256]
        stack = np.broadcast_to(matrix, (len(chunk), n, m)).copy()
        stack[np.arange(len(chunk)), chunk[:, 0], chunk[:, 1]] -= 1.0
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        values = np.stack([fn.values(row) for row in s])
        rows = u[np.arange(len(chunk)), chunk[:, 0], :]
        cols = vt[np.arange(len(chunk)), :, chunk[:, 1]]
        out[start : start + len(chunk)] = linalg.clamp(np.sum(values * rows * cols, axis=1), fn.clamp_floor)
    return out


def derivative_probe(fn: linalg.SpectralFunction, fact, delta, free=None) -> np.ndarray:
    """Reference Jacobian-vector product of a (possibly clamped) spectral map:
    values and derivatives evaluated per call, the clamp's derivative 0
    outside ``free`` (composed here when not given)."""
    s = fact.singular_values
    dd = linalg.directional_derivative(fact, fn.values(s), fn.derivs(s), delta)
    if fn.clamp_floor is not None:
        if free is None:
            free = linalg.compose(fact, fn.values(s)) >= fn.clamp_floor
        dd = np.where(free, dd, 0.0)
    return dd


# -- the Gaussian SURE chain with its per-call overhead: each array converted
# and masked on every call, and each sum through np.sum ----------------------


def reference_safe_ratio(values: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """``f_k / sigma_k`` with the 0/0 -> 0 convention, the zero mask built on
    every call."""
    num = np.asarray(values, dtype=float)
    den = np.asarray(sigmas, dtype=float)
    zero = den == 0.0
    if zero.any():
        bad = zero & (num != 0.0)
        if bad.any():
            k = int(np.flatnonzero(bad)[0]) + 1
            raise DegenerateSpectrumError(
                f"singular value {k} is zero but the spectral map does not vanish there"
            )
        den = np.where(zero, 1.0, den)
    return num / den


def reference_divergence_closed_form(fact, shrink_values, shrink_derivs) -> float:
    """The closed-form divergence, reading the tie mask on every call; the
    ``|m - n|`` term computed only for non-square shapes, with overflow
    warnings off."""
    s = fact.singular_values
    f = np.asarray(shrink_values, dtype=float)
    d = np.asarray(shrink_derivs, dtype=float)
    if f.shape != s.shape or d.shape != s.shape:
        raise DomainError("shrink_values and shrink_derivs must match the singular values")
    if fact.tie_mask.any():
        linalg.check_distinct(fact, f, d)

    total = float(d.sum())
    if fact.m != fact.n:
        with np.errstate(over="ignore", invalid="ignore"):
            term = abs(fact.m - fact.n) * float(reference_safe_ratio(f, s).sum())
        if not math.isfinite(term):
            raise NumericalError(
                f"the divergence term |m - n| sum_k f_k / sigma_k is not finite: the least "
                f"singular value {s[-1]:.6g} is too small for the map's values"
            )
        total = term + total
    total += 2.0 * float(f @ fact.pair_sums)
    return total


def reference_sure_gaussian_spectral(fact, shrink_values, tau, divergence) -> risk.RiskEstimate:
    """Gaussian SURE of the unclamped spectral estimate from the spectrum."""
    f = np.asarray(shrink_values, dtype=float)
    if f.shape != fact.singular_values.shape:
        raise DomainError("shrink_values must match the singular values")
    residual = float(np.sum((f - fact.singular_values) ** 2))
    return risk._sure((fact.n, fact.m), residual, tau, divergence)


def reference_sure_gaussian(observed, estimate, tau, divergence) -> risk.RiskEstimate:
    """Gaussian SURE of an n x m estimate."""
    y = np.asarray(observed, dtype=float)
    est = np.asarray(estimate, dtype=float)
    if y.shape != est.shape:
        raise DomainError("estimate must match the observation shape")
    return risk._sure(y.shape, float(np.sum((est - y) ** 2)), tau, divergence)


def reference_soft_threshold_derivs(sigmas: np.ndarray, lam: float) -> np.ndarray:
    """1 above the threshold, 0 below, 1/2 at an exact tie."""
    out = np.where(sigmas > lam, 1.0, 0.0)
    out[sigmas == lam] = 0.5
    return out

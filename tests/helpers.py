"""Shared test utilities: synthetic signals and independent oracles."""

from __future__ import annotations

import numpy as np

from svshrink import linalg


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

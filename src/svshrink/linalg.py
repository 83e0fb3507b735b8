"""SVD with a reproducible sign convention, spectral reconstruction, and the
directional derivative (Jacobian-vector product) of spectral matrix maps.

A *spectral map* keeps the singular vectors of a matrix and replaces each
singular value ``sigma_k`` by ``f_k(sigma_k)``.  Everything downstream
(risk estimation, weight fitting) is built on the three primitives here:
``svd``, ``compose`` and ``directional_derivative``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateSpectrumError, DomainError, NumericalError

# Pairs (k, l) with |sigma_k^2 - sigma_l^2| below this fraction of sigma_1^2
# are treated as ties: the pair-interaction formulas are numerically singular
# there even though they hold almost everywhere under continuous noise.
DEGENERACY_RTOL = 1e-12

# Default entrywise lower bound of Gamma and Poisson estimates, which must
# stay positive for their likelihoods and risk estimates.
DEFAULT_CLAMP_FLOOR = 1e-6

# The largest float whose square is finite, about 1.34e154.  The tie and pair
# caches and the SURE residual square the singular values, and the Gaussian
# risk estimates and weights square tau.
LARGEST_SQUARE_ROOT = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``Y = U diag(s) V^T`` with descending singular values.

    Attributes
    ----------
    singular_values : np.ndarray
        Shape ``(k,)`` with ``k = min(n, m)``, sorted descending, all >= 0.
    left_vectors : np.ndarray
        Shape ``(n, k)``; orthonormal columns.
    right_vectors : np.ndarray
        Shape ``(m, k)``; orthonormal columns (``V``, not ``V^T``).

    The sign convention fixes each pair ``(u_k, v_k)`` so that the
    largest-magnitude entry of ``u_k`` is positive (ties broken by the lowest
    row index); ``v_k`` is flipped jointly.  This makes repeated
    factorizations of the same matrix bitwise identical.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        s = self.singular_values
        if s.ndim != 1 or len(s) != min(self.n, self.m):
            raise DomainError("singular_values must be a 1-D array of length min(n, m)")
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise DomainError("singular values must be nonnegative and sorted descending")

    @property
    def n(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def m(self) -> int:
        return self.right_vectors.shape[0]

    @property
    def rank_bound(self) -> int:
        """min(n, m), the number of stored singular triplets."""
        return len(self.singular_values)

    @cached_property
    def tie_mask(self) -> np.ndarray:
        """Read-only boolean vector, shape ``(k,)``: entry ``k`` is set when
        ``sigma_k`` is tied with another singular value, i.e.
        ``|sigma_k^2 - sigma_l^2| < 1e-12 sigma_1^2`` for some ``l != k``.

        The values are sorted, so an index tied with any other is tied with a
        neighbour, and comparing neighbours finds every tied index in O(k).
        Computed on first use and kept for the factorization's lifetime.
        """
        sq = self.singular_values**2
        close = np.abs(np.diff(sq)) < _tie_tolerance(self.singular_values)
        mask = np.zeros(len(sq), dtype=bool)
        mask[:-1] |= close
        mask[1:] |= close
        return _read_only(mask)

    @cached_property
    def has_ties(self) -> bool:
        """Whether any singular value is tied with another (any entry of
        :attr:`tie_mask` is set): read once per factorization, so the
        per-evaluation formulas skip :func:`check_distinct` with one test."""
        return bool(self.tie_mask.any())

    @cached_property
    def pair_sums(self) -> np.ndarray:
        """Read-only vector, shape ``(k,)``, of the pair sums
        ``P_k = sum_{l != k} sigma_k / (sigma_k^2 - sigma_l^2)`` over untied
        pairs (tied pairs and ``l = k`` contribute 0).

        ``P`` carries every pair interaction of the spectral-map divergence
        (:func:`svshrink.risk.divergence_closed_form`) and of the Gaussian
        weight formula, and depends on the singular values alone.  Computed
        on first use in O(k^2) and kept for the factorization's lifetime.
        """
        s = self.singular_values
        sq = s**2
        diff = sq[:, None] - sq[None, :]
        tied = np.abs(diff) < _tie_tolerance(s)  # includes the diagonal
        pair = np.where(tied, 0.0, s[:, None] / np.where(tied, 1.0, diff))
        return _read_only(pair.sum(axis=1))

    def transposed(self) -> "SvdFactorization":
        """Factorization of ``Y^T`` (swap the singular-vector roles)."""
        return SvdFactorization(self.singular_values, self.right_vectors, self.left_vectors)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def svd(matrix: np.ndarray) -> SvdFactorization:
    """Thin SVD with the package-wide deterministic sign convention.

    Raises
    ------
    DomainError
        If the input is not a finite 2-D array.
    NumericalError
        If the underlying decomposition fails to converge, or the largest
        singular value of the finite input is not finite or has no finite
        square (it exceeds :data:`LARGEST_SQUARE_ROOT`).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DomainError(f"matrix must be a 2-D array with positive dimensions, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must all be finite")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if not (np.isfinite(s).all() and s[0] <= LARGEST_SQUARE_ROOT):
        raise NumericalError(
            f"the largest singular value {s[0]:g} exceeds {LARGEST_SQUARE_ROOT:.4g}, "
            "the largest whose square is finite in double precision"
        )
    v = vt.T
    u, v = _apply_sign_convention(u, v)
    return SvdFactorization(s, u, v)


def _apply_sign_convention(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-|entry| of each left vector made positive; np.argmax breaks ties
    # at the lowest index.  The right vector flips jointly.
    anchor = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[anchor, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, v * signs


def compose(fact: SvdFactorization, spectral_values: np.ndarray) -> np.ndarray:
    """Assemble ``sum_k f_k u_k v_k^T`` from per-index values ``f_k``."""
    vals = np.asarray(spectral_values, dtype=float)
    if vals.shape != fact.singular_values.shape:
        raise DomainError("spectral values must match the number of singular values")
    return (fact.left_vectors * vals) @ fact.right_vectors.T


def clamp(raw: np.ndarray, clamp_floor: Optional[float]) -> np.ndarray:
    """Every entry of the unclamped estimate ``raw`` raised to at least
    ``clamp_floor``; ``raw`` itself when there is no floor."""
    return raw if clamp_floor is None else np.maximum(raw, clamp_floor)


def reconstruct(fact: SvdFactorization, fn: SpectralFunction) -> np.ndarray:
    """The estimate of the spectral estimator ``fn`` at the factorized
    observation: ``sum_k f_k(sigma_k) u_k v_k^T``, clamped at
    ``fn.clamp_floor`` when one is set."""
    return clamp(compose(fact, fn.values(fact.singular_values)), fn.clamp_floor)


def _tie_tolerance(sigmas: np.ndarray) -> float:
    top = sigmas[0] ** 2 if len(sigmas) else 0.0
    return DEGENERACY_RTOL * max(top, np.finfo(float).tiny)


def check_distinct(
    fact: SvdFactorization,
    values: np.ndarray,
    derivs: Optional[np.ndarray] = None,
) -> None:
    """Verify the pairwise separation needed by the spectral-derivative formulas.

    A near-tie ``|sigma_k^2 - sigma_l^2| < 1e-12 sigma_1^2`` is harmless only
    when the map vanishes identically on the tied pair (both values and, when
    given, both derivatives zero), e.g. a thresholded tail of an exactly
    low-rank matrix.  Any other near-tie raises
    :class:`DegenerateSpectrumError` naming the first offending pair (1-based,
    in row-major order of the pair matrix).

    Reads the factorization's cached :attr:`SvdFactorization.tie_mask`; the
    pair matrix is built only to name a pair that is about to be reported.
    Callers skip the call when ``fact.has_ties`` is false.
    """
    inert = np.asarray(values) == 0.0
    if derivs is not None:
        inert &= np.asarray(derivs) == 0.0
    if not np.any(fact.tie_mask & ~inert):
        return
    s = fact.singular_values
    sq = s**2
    tied = np.abs(sq[:, None] - sq[None, :]) < _tie_tolerance(s)
    np.fill_diagonal(tied, False)
    i, j = np.argwhere(tied & ~(inert[:, None] & inert[None, :]))[0]
    raise DegenerateSpectrumError(
        f"singular values {min(i, j) + 1} and {max(i, j) + 1} coincide to working "
        f"precision (sigma={s[i]:.6g} vs {s[j]:.6g}); spectral-derivative "
        "formulas are singular at ties"
    )


def _map_arrays(fact: SvdFactorization, shrink_values, shrink_derivs) -> tuple[np.ndarray, np.ndarray]:
    """``f_k(sigma_k)`` and ``f_k'(sigma_k)`` as float arrays, after checking
    that they match the singular values and pass :func:`check_distinct`."""
    f = np.asarray(shrink_values, dtype=float)
    d = np.asarray(shrink_derivs, dtype=float)
    if f.shape != fact.singular_values.shape or d.shape != fact.singular_values.shape:
        raise DomainError("shrink_values and shrink_derivs must match the singular values")
    if fact.has_ties:
        check_distinct(fact, f, d)
    return f, d


def _safe_ratio(values: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """``f_k / sigma_k`` for float arrays of values and of descending singular
    values, with the 0/0 -> 0 convention for collapsed components."""
    if len(sigmas) and sigmas[-1] != 0.0:  # the least value is last: none is zero
        return values / sigmas
    zero = sigmas == 0.0
    bad = zero & (values != 0.0)
    if bad.any():
        k = int(np.flatnonzero(bad)[0]) + 1
        raise DegenerateSpectrumError(
            f"singular value {k} is zero but the spectral map does not vanish there"
        )
    return values / np.where(zero, 1.0, sigmas)  # values are 0 there, so the ratio is 0


def directional_derivative(
    fact: SvdFactorization,
    shrink_values: np.ndarray,
    shrink_derivs: np.ndarray,
    delta: np.ndarray,
) -> np.ndarray:
    """Jacobian-vector product of a spectral map at ``Y`` in direction ``delta``.

    Parameters
    ----------
    fact : SvdFactorization
        Factorization of the base matrix ``Y``.
    shrink_values, shrink_derivs : np.ndarray
        ``f_k(sigma_k)`` and ``f_k'(sigma_k)`` for each stored singular value.
    delta : np.ndarray
        Perturbation direction, same shape as ``Y``.

    Returns
    -------
    np.ndarray
        ``(d f(Y) / dY) . delta``, same shape as ``Y``.

    Notes
    -----
    The derivative decomposes in the singular basis into a diagonal part
    driven by ``f'``, symmetric and antisymmetric couplings between distinct
    singular values with denominators ``sigma_i -+ sigma_j``, and, for
    rectangular matrices, a residual block scaled by ``f_k / sigma_k``.
    Singular values tied to working precision make those denominators blow
    up, hence the distinctness guard.

    Only the map's support ``A = {k : f_k != 0 or f_k' != 0}`` enters: the
    coupling of two indices outside ``A`` is 0, and so is their residual
    block.  The product therefore needs only rows ``A`` and columns ``A`` of
    the coupling block ``U^T delta V``, at a cost of
    O(n m |A| + (n + m) k |A|) with ``k = min(n, m)``; at full support that is
    the dense product's O(n m k).
    """
    n, m = fact.n, fact.m
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (n, m):
        raise DomainError(f"delta must have shape {(n, m)}, got {delta.shape}")
    if n > m:
        return directional_derivative(
            fact.transposed(), shrink_values, shrink_derivs, delta.T
        ).T

    s = fact.singular_values
    f, d = _map_arrays(fact, shrink_values, shrink_derivs)
    inside = (f != 0.0) | (d != 0.0)  # the support A, as a mask
    full = inside.all()
    a = np.flatnonzero(inside)
    u, v = fact.left_vectors, fact.right_vectors
    ua, va = (u, v) if full else (u[:, a], v[:, a])  # no copies at full support
    fa, sa = f[a], s[a]

    rows = ua.T @ delta  # rows A of U^T delta, (|A|, m)
    dbar_rows = rows @ v  # rows A of the coupling block, (|A|, k)
    # Columns A of the block, transposed.
    dbar_cols = dbar_rows.T if full else (u.T @ (delta @ va)).T
    sym = 0.5 * (dbar_rows + dbar_cols)
    asym = 0.5 * (dbar_rows - dbar_cols)

    # A tied pair passed the check only if f vanishes on both indices, so its
    # couplings below are 0 without special-casing.  The diagonal is set last.
    sdiff = sa[:, None] - s[None, :]
    ssum = sa[:, None] + s[None, :]
    m_diff = np.divide(fa[:, None] - f[None, :], sdiff, out=np.zeros_like(sdiff), where=sdiff != 0.0)
    m_sum = np.divide(fa[:, None] + f[None, :], ssum, out=np.zeros_like(ssum), where=ssum != 0.0)

    # Rows A of the core; its columns A outside rows A follow from the pair
    # symmetry, with the antisymmetric part changing sign.
    core_rows = sym * m_diff + asym * m_sum
    diag = (np.arange(len(a)), a)
    core_rows[diag] = dbar_rows[diag] * d[a]
    block = core_rows @ v.T
    if n < m:
        # Couplings with the null right-singular directions reduce to f_k/sigma_k.
        block += _safe_ratio(f, s)[a][:, None] * (rows - dbar_rows @ v.T)
    out = ua @ block
    if not full:
        core_cols = np.where(inside, 0.0, sym * m_diff - asym * m_sum)
        out += (u @ core_cols.T) @ va.T
    return out


@dataclass(frozen=True)
class SpectralFunction:
    """A per-singular-value map packaged with its derivative.

    ``values_fn`` and ``derivs_fn`` receive the full descending vector of
    singular values and return same-length arrays ``f_k(sigma_k)`` and
    ``f_k'(sigma_k)``.  ``clamp_floor``, when set, applies ``max(., floor)``
    entrywise to the assembled matrix.
    """

    values_fn: Callable[[np.ndarray], np.ndarray]
    derivs_fn: Callable[[np.ndarray], np.ndarray]
    clamp_floor: Optional[float] = None

    def __post_init__(self):
        if self.clamp_floor is not None and not 0 < self.clamp_floor < np.inf:
            raise DomainError("clamp_floor must be positive and finite when given")

    def values(self, sigmas: np.ndarray) -> np.ndarray:
        return np.asarray(self.values_fn(np.asarray(sigmas, dtype=float)), dtype=float)

    def derivs(self, sigmas: np.ndarray) -> np.ndarray:
        return np.asarray(self.derivs_fn(np.asarray(sigmas, dtype=float)), dtype=float)

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        return reconstruct(svd(matrix), self)


def soft_threshold_values(sigmas: np.ndarray, lam: float) -> np.ndarray:
    return np.maximum(sigmas - lam, 0.0)


def soft_threshold_derivs(sigmas: np.ndarray, lam: float) -> np.ndarray:
    # 1 above the threshold, 0 below; an exact float tie takes the symmetric
    # subgradient 1/2 so that central-difference probes of the kink agree.
    out = (sigmas > lam).astype(float)
    out[sigmas == lam] = 0.5
    return out


def is_integer(value) -> bool:
    """Whether ``value`` is an integer or an integral float (``2.0`` counts, a bool does not)."""
    if isinstance(value, float):
        return value.is_integer()
    return hasattr(value, "__index__") and not isinstance(value, bool)


def check_threshold(lam: float) -> None:
    """Raise :class:`DomainError` for a negative soft threshold; a NaN passes,
    and its map is NaN wherever it is evaluated."""
    if lam < 0:
        raise DomainError("soft threshold must be nonnegative")


def soft_threshold_function(lam: float, clamp_floor: Optional[float] = None) -> SpectralFunction:
    check_threshold(lam)
    return SpectralFunction(
        lambda s: soft_threshold_values(s, lam),
        lambda s: soft_threshold_derivs(s, lam),
        clamp_floor,
    )


def weights_function(weights: np.ndarray, clamp_floor: Optional[float] = None) -> SpectralFunction:
    """Per-index weighting ``f_k(sigma_k) = w_k sigma_k``, one weight in
    [0, 1] per singular value (weight 0 drops the index)."""
    w = np.array(weights, dtype=float)  # a copy: the map stays fixed
    if w.ndim != 1:
        raise DomainError(f"weights must be a 1-D array, got shape {w.shape}")
    outside = np.flatnonzero(~((w >= 0.0) & (w <= 1.0)))
    if outside.size:
        k = outside[0]
        raise DomainError(f"weight for index {k + 1} is {w[k]}, outside [0, 1]")

    def values(sigmas: np.ndarray) -> np.ndarray:
        if sigmas.shape != w.shape:
            raise DomainError(f"{len(w)} weights given for {len(sigmas)} singular values")
        return w * sigmas

    return SpectralFunction(values, lambda sigmas: w.copy(), clamp_floor)

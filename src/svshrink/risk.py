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
checked map, factorization and unclamped estimate.

The exact enumeration reuses the observation's factorization: with
``n <= m``, the downdate ``Y - e_i e_j^T`` rotated by ``U`` has the Gram
matrix ``S^2 + z1 z1^T - z2 z2^T`` (``a = U^T e_i``, ``z2 = S V^T e_j``,
``z1 = a - z2``), so each downdated entry comes from the eigenvalues of a
``k x k`` symmetric matrix and one O(k) secular vector per root the map keeps,
instead of an ``n x m`` SVD; a full eigendecomposition runs only where a kept
root deflates, and a tall ``Y`` is handled as ``Y^T`` (see
:func:`downdated_entries`).

Estimators are :class:`~svshrink.linalg.SpectralFunction` maps (anything else is
a :class:`ParameterError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import CapacityError, DegenerateSpectrumError, DomainError, NumericalError, ParameterError
from .linalg import SpectralFunction, SvdFactorization
from .models import validate_counts, validate_positive

EXACT_DOWNDATE_CAP = 10_000  # largest n*m for exact one-count enumerations
_DOWNDATE_BATCH = 256
_DEFLATION_RTOL = 1e-10  # a downdate root this close to a pole or another root goes to eigh
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
    The first term is computed only when ``m != n``; where a tiny singular
    value makes it overflow, :class:`NumericalError` is raised.
    """
    s = fact.singular_values
    f = np.asarray(shrink_values, dtype=float)
    d = np.asarray(shrink_derivs, dtype=float)
    if f.shape != s.shape or d.shape != s.shape:
        raise DomainError("shrink_values and shrink_derivs must match the singular values")
    if fact.has_ties:
        linalg.check_distinct(fact, f, d)
    total = float(d.sum())
    if fact.m != fact.n:
        with np.errstate(over="ignore", invalid="ignore"):
            term = abs(fact.m - fact.n) * float(linalg._safe_ratio(f, s).sum())
        if not math.isfinite(term):
            raise NumericalError(
                f"the divergence term |m - n| sum_k f_k / sigma_k is not finite: the least "
                f"singular value {s[-1]:.6g} is too small for the map's values"
            )
        total = term + total
    return total + 2.0 * float(f @ fact.pair_sums)


def rademacher(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """A +-1 probe direction: independent entries, +1 or -1 with equal odds."""
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


def _estimate(fn, matrix, fact, raw=None) -> tuple[SpectralFunction, SvdFactorization, np.ndarray]:
    """The checked spectral map ``fn``, the factorization of ``matrix`` it is
    evaluated on and its unclamped estimate ``sum_k f_k u_k v_k^T``: ``raw``
    when given, checked against the shape, else composed here."""
    fn = _require_spectral(fn)
    fact = _factorization(matrix, fact)
    if raw is None:
        return fn, fact, linalg.compose(fact, fn.values(fact.singular_values))
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (fact.n, fact.m):
        raise DomainError(
            f"the unclamped estimate has shape {raw.shape}, expected {(fact.n, fact.m)}"
        )
    return fn, fact, raw


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
    directions: Optional[Sequence[np.ndarray]] = None,
    fact: Optional[SvdFactorization] = None,
    raw: Optional[np.ndarray] = None,
) -> MonteCarloDivergence:
    """Monte-Carlo divergence of a spectral map by random trace probing.

    Averages ``trace(delta^T (dF/dY) delta)`` over +-1 directions, which is
    unbiased for the divergence because off-diagonal Jacobian terms cancel in
    expectation.

    Parameters
    ----------
    directions : sequence of np.ndarray, optional
        Explicit probe directions (overrides ``samples``/``rng``); useful for
        full enumeration and for freezing an objective during optimization.
    fact, raw : optional
        The factorization of ``matrix`` and the unclamped estimate of the
        map; each is computed once here when not given.
    """
    matrix = np.asarray(matrix, dtype=float)
    directions = probe_directions(matrix.shape, samples, rng, directions)
    fn, fact, raw = _estimate(apply, matrix, fact, raw)
    return _mean_stderr([float(np.sum(p)) for p in _probe_products(fn, fact, directions, raw)])


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
    residual = float(((f - fact.singular_values) ** 2).sum())
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
    n, m = shape
    return _risk_estimate(
        "SURE", -n * m * tau**2 + residual, 2.0 * tau**2, divergence, "estimates the MSE itself"
    )


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
    if np.any(f <= 0):
        raise DomainError("the spectral estimate must be positive entrywise (apply a clamp floor)")
    return L, y, f


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
    lead = float(
        np.sum(L**2 / f**2 - 2.0 * L * (L - 1.0) / (y * f) + (L - 1.0) * (L - 2.0) / y**2)
    )
    return _risk_estimate(
        "GSURE", lead, 2.0, theta_divergence, "estimates the MSE of the natural parameter eta(X)"
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
    raw: Optional[np.ndarray] = None,
) -> MonteCarloDivergence:
    """Monte-Carlo estimate of the natural-parameter divergence for Gamma.

    Probes ``sum_ij (L / f_ij^2) df_ij/dY_ij`` by averaging
    ``sum_ij (L / f_ij^2) delta_ij (J delta)_ij`` over +-1 directions, as
    :func:`mc_divergence` averages ``sum_ij delta_ij (J delta)_ij``.  ``fact``,
    the factorization of ``matrix``, and ``raw``, the unclamped estimate, are
    computed once here when not given.
    """
    matrix = np.asarray(matrix, dtype=float)
    directions = probe_directions(matrix.shape, samples, rng, directions)
    fn, fact, raw = _estimate(spectral_fn, matrix, fact, raw)
    f = linalg.clamp(raw, fn.clamp_floor)
    if np.any(f <= 0):
        raise DomainError("the spectral estimate must be positive entrywise (apply a clamp floor)")
    weights = float(shape) / f**2
    return _mean_stderr([float(np.sum(weights * p)) for p in _probe_products(fn, fact, directions, raw)])


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
    n, m = y.shape
    lead = float(np.sum((L - 1.0) * f / y - L * np.log(f))) - L * n * m
    return _risk_estimate("SUKLS", lead, 1.0, divergence, "estimates MKLS minus sum_ij A(theta_ij)")


def downdated_entries(
    estimator: SpectralFunction,
    matrix: np.ndarray,
    positions: Optional[np.ndarray] = None,
    *,
    fact: Optional[SvdFactorization] = None,
) -> np.ndarray:
    """Entries ``f_ij(Y - e_i e_j^T)`` of the estimator on one-count downdates,
    each from a ``k x k`` symmetric eigenproblem on the factorization of ``Y``.

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

    One batched ``eigvalsh`` per chunk of positions replaces an ``n x m`` SVD
    per position, and only the roots with ``phi_k != 0`` need a vector.  With
    ``D = S^2``, ``Z = [z1 z2]`` and ``J = diag(1, -1)``, the Gram matrix is
    ``D + Z J Z^T``; for a root ``lambda`` not equal to any ``d_l``, let
    ``G = Z^T (D - lambda)^{-1} Z`` (2 x 2) and ``c`` the null vector of
    ``I + J G``, read off its row of larger norm.  Then::

        x = (D - lambda)^{-1} Z c,  normalized

    in O(k) per root.  Near a pole the formula loses accuracy, and at a
    repeated root the vector is not determined (deflation; Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 15(4), 1994).  So a position where such a
    root lies within ``1e-10`` times ``max(d_1, lambda_1)`` of some ``d_l``
    or of a neighbouring root is solved by a full batched ``eigh`` instead;
    this covers, for example, the equal-value ties of a soft threshold.

    The map must vanish at 0, with ``f_k(sigma) = O(sigma)`` near 0, as
    soft thresholds and weight maps do: a zero singular value of ``Y'``
    drops out of the sum, and ``phi_k`` stays bounded for a tiny one.  A map
    with ``f_k(0) != 0`` (the oracle and asymptotic shrinkers' fixed values)
    raises :class:`ParameterError`.

    At a tie of two positive singular values of ``Y'`` the entry is defined
    only when the map gives both indices the same value there, as a soft
    threshold does; otherwise :class:`DegenerateSpectrumError` is raised.

    ``positions`` is an ``(p, 2)`` integer array of 0-based entry locations;
    all ``n * m`` positions are used when omitted.  The result is returned in
    the order of ``positions``.  ``fact``, the factorization of ``matrix``,
    is computed once here when not given.
    """
    fn = _require_spectral(estimator)
    matrix = np.asarray(matrix, dtype=float)
    n, m = matrix.shape
    if positions is None:
        positions = np.argwhere(np.ones((n, m), dtype=bool))
    positions = np.asarray(positions, dtype=int)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise DomainError(f"positions must be a (p, 2) array, got shape {positions.shape}")
    fact = _factorization(matrix, fact)
    if np.any(fn.values(np.zeros(fact.rank_bound)) != 0.0):
        raise ParameterError("one-count downdates need a spectral map that vanishes at 0")
    if n > m:
        fact, positions = fact.transposed(), positions[:, ::-1]
    s = fact.singular_values
    left, scaled_right = fact.left_vectors, fact.right_vectors * s
    out = np.empty(len(positions))
    for start in range(0, len(positions), _DOWNDATE_BATCH):
        chunk = positions[start : start + _DOWNDATE_BATCH]
        entries = _downdated_chunk(fn, s, left[chunk[:, 0]], scaled_right[chunk[:, 1]])
        out[start : start + len(chunk)] = linalg.clamp(entries, fn.clamp_floor)
    return out


def _downdated_chunk(fn: SpectralFunction, s: np.ndarray, a: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Unclamped ``f_ij(Y - e_i e_j^T)`` for a chunk of positions, given the
    rows ``a = U^T e_i`` and ``z2 = S V^T e_j`` (one row per position).  Its
    ``p x k x k`` Gram buffer is freed on return, before the next chunk's."""
    z1 = a - z2
    z = np.stack([z1, z2], axis=2)
    gram = z @ (z * [1.0, -1.0]).transpose(0, 2, 1)  # Z J Z^T, one p x k x k buffer
    diagonal = np.arange(len(s))
    d = s**2
    gram[:, diagonal, diagonal] += d
    lam = np.linalg.eigvalsh(gram)[:, ::-1]  # descending, as fn.values expects
    entries, deflated = _secular_entries(_root_weights(fn, lam), lam, d, a, z1, z2)
    if deflated.any():
        entries[deflated] = _eigh_entries(fn, gram[deflated], a[deflated], z1[deflated])
    return entries


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
    ``max(d_1, lambda_1)`` of some ``d_l`` or of a neighbouring root."""
    tol = _DEFLATION_RTOL * np.maximum(d[0], lam[:, 0])
    needed = phi != 0.0
    near_root = (lam[:, :-1] - lam[:, 1:] < tol[:, None]) & (needed[:, :-1] | needed[:, 1:])
    deflated = near_root.any(axis=1)
    row, col = np.nonzero(needed)
    gap = d - lam[row, col][:, None]  # D - lambda, one row per needed root
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


def _poisson_downdates(
    observed, fn: SpectralFunction, mode: str, samples, rng, directions, fact, term
) -> tuple[np.ndarray, Union[float, MonteCarloDivergence]]:
    """What PURE and PUKLA share: the estimate ``f(Y)`` and the mean of
    ``term(y, down)`` over samples ``down`` of ``f_ij(Y - e_i e_j^T)`` at the
    nonzero counts ``y``.  ``mode="exact"`` gives one sample, evaluated on
    every one-count downdate (guarded to small matrices), and its term as a
    float; ``mode="approx"`` gives one first-order sample ``f - delta *
    (J delta)`` per probe direction, and the mean as a
    :class:`MonteCarloDivergence`."""
    y = validate_counts(observed)
    if mode == "approx":
        directions = probe_directions(y.shape, samples, rng, directions)
    elif mode == "exact":
        n, m = y.shape
        if n * m > EXACT_DOWNDATE_CAP:
            raise CapacityError(
                f"exact one-count enumeration is guarded to n*m <= {EXACT_DOWNDATE_CAP}; "
                f"got {n}x{m}; use the Monte-Carlo approximation instead"
            )
    else:
        raise ParameterError(f"mode must be 'exact' or 'approx', got {mode!r}")
    fn, fact, raw = _estimate(fn, y, fact)
    fhat = linalg.clamp(raw, fn.clamp_floor)
    nonzero = y > 0  # a boolean mask reads the entries in the order np.argwhere lists them
    counts = y[nonzero]
    if mode == "exact":
        return fhat, term(counts, downdated_entries(fn, y, np.argwhere(nonzero), fact=fact))
    base = fhat[nonzero]
    products = _probe_products(fn, fact, directions, raw)
    return fhat, _mean_stderr([term(counts, base - p[nonzero]) for p in products])


def pure_poisson(
    observed: np.ndarray,
    estimator: SpectralFunction,
    *,
    mode: str = "exact",
    samples: int = 1,
    rng: Optional[np.random.Generator] = None,
    directions: Optional[Sequence[np.ndarray]] = None,
    fact: Optional[SvdFactorization] = None,
) -> RiskEstimate:
    """Unbiased estimate of ``MSE - ||X||_F^2`` under Poisson noise.

    ``||f(Y)||_F^2 - 2 sum_ij y_ij f_ij(Y - e_i e_j^T)``.  ``mode="exact"``
    evaluates the estimator on every one-count downdate (guarded to small
    matrices); ``mode="approx"`` replaces each downdated entry by its
    first-order expansion probed along +-1 directions.  ``fact``, the
    factorization of ``observed``, is computed once here when not given.
    """
    cross = lambda counts, down: float(np.sum(counts * down))
    fhat, crosses = _poisson_downdates(observed, estimator, mode, samples, rng, directions, fact, cross)
    return _risk_estimate(
        "PURE", float(np.sum(fhat**2)), -2.0, crosses,
        "estimates MSE minus the squared Frobenius norm of the signal", exact=mode == "exact",
    )


def pukla_poisson(
    observed: np.ndarray,
    estimator: SpectralFunction,
    *,
    mode: str = "exact",
    samples: int = 1,
    rng: Optional[np.random.Generator] = None,
    directions: Optional[Sequence[np.ndarray]] = None,
    fact: Optional[SvdFactorization] = None,
) -> RiskEstimate:
    """Unbiased estimate (up to a signal-only constant) of the analysis
    Kullback-Leibler risk under Poisson noise.

    ``sum_ij f_ij(Y) - y_ij log f_ij(Y - e_i e_j^T)`` with the convention that
    ``y_ij = 0`` terms contribute nothing; log arguments are floored at
    :data:`PUKLA_LOG_FLOOR` (or the estimator's own clamp floor if larger).
    ``mode`` and ``fact`` are as in :func:`pure_poisson`.
    """
    def log_term(counts, down):  # the floor is read once the map is known to be spectral
        log_floor = max(PUKLA_LOG_FLOOR, estimator.clamp_floor or 0.0)
        return float(np.sum(counts * np.log(np.maximum(down, log_floor))))

    fhat, logs = _poisson_downdates(observed, estimator, mode, samples, rng, directions, fact, log_term)
    return _risk_estimate(
        "PUKLA", float(np.sum(fhat)), -1.0, logs,
        "estimates MKLA plus sum_ij (X_ij - X_ij log X_ij)", exact=mode == "exact",
    )

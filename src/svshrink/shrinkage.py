"""Data-driven selection of spectral-estimator parameters.

The estimators keep the observation's singular vectors and modify its
singular values: hard truncation, soft thresholding, or per-index weighting.
The fits here return parameters, a soft threshold or a weight vector, and
:func:`svshrink.experiments.fit_estimator` turns them into a
:class:`~svshrink.linalg.SpectralFunction`.  Weights are chosen by
minimizing an unbiased risk estimate: a closed form under Gaussian noise,
rank-one closed forms for the Gamma synthesis-KL and Poisson analysis-KL
criteria, and a greedy per-coordinate bounded search for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from . import linalg, metrics, risk
from .errors import (
    DegenerateSpectrumError, DomainError, NumericalError, ParameterError, SvshrinkError,
)
from .linalg import SpectralFunction, SvdFactorization
from .models import NoiseModel, validate_counts

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
        active = tuple(range(1, fact.rank_bound + 1))
    else:
        active = tuple(sorted(set(int(k) for k in active_set)))
    if active and (active[0] < 1 or active[-1] > fact.rank_bound):
        raise DomainError("active-set indices out of range")
    idx = np.asarray(active, dtype=int) - 1
    sk = s[idx]
    zero = np.flatnonzero(sk == 0.0)
    if zero.size:
        k = active[zero[0]]
        raise DegenerateSpectrumError(f"singular value {k} is zero; weight formula undefined")
    _check_untied(fact, idx)
    factor = 1.0 + abs(fact.m - fact.n) + 2.0 * sk * fact.pair_sums[idx]
    weights = np.zeros(fact.rank_bound)
    weights[idx] = np.clip(1.0 - tau**2 / sk**2 * factor, 0.0, 1.0)
    return weights


def _check_untied(fact: SvdFactorization, idx: np.ndarray) -> None:
    """Raise :class:`DegenerateSpectrumError` naming the pair when a singular
    value at a 0-based index in ``idx`` is tied with another."""
    if fact.tie_mask[idx].any():
        used = np.zeros(fact.rank_bound)
        used[idx] = 1.0
        linalg.check_distinct(fact, used)


def weight1_gamma_sukls(
    observed: np.ndarray,
    fact: SvdFactorization,
    shape: float,
    active_set: Optional[Iterable[int]] = None,
) -> float:
    """Closed-form leading weight minimizing the Gamma synthesis-KL estimate.

    Requires strictly positive observations (which make the leading singular
    vectors positive, hence a positive rank-one estimate) and ``L > 2``.
    Returns 0 when index 1 is not in the active set.
    """
    L = float(shape)
    if L <= 2:
        raise ParameterError(f"the synthesis KL closed form requires L > 2, got {L}")
    y = np.asarray(observed, dtype=float)
    if np.any(y <= 0):
        raise DomainError("all observations must be strictly positive")
    if active_set is not None and 1 not in set(int(k) for k in active_set):
        return 0.0
    n, m = y.shape
    rank1 = fact.singular_values[0] * np.outer(fact.left_vectors[:, 0], fact.right_vectors[:, 0])
    bracket = (L - 1.0) / (L * m * n) * float(np.sum(rank1 / y))
    _check_untied(fact, np.array([0]))
    s1 = fact.singular_values[0]
    bracket += (1.0 + abs(m - n) + 2.0 * s1 * fact.pair_sums[0]) / (L * m * n)
    if bracket <= 0:
        return 1.0
    return float(np.clip(1.0 / bracket, 0.0, 1.0))


def weight1_poisson_pukla(
    observed: np.ndarray,
    fact: SvdFactorization,
    active_set: Optional[Iterable[int]] = None,
) -> float:
    """Closed-form leading weight minimizing the Poisson analysis-KL estimate:
    ``min(1, sum Y / sum Xhat1)`` gated by the active set."""
    y = validate_counts(observed)
    if active_set is not None and 1 not in set(int(k) for k in active_set):
        return 0.0
    rank1_total = fact.singular_values[0] * float(
        np.sum(fact.left_vectors[:, 0]) * np.sum(fact.right_vectors[:, 0])
    )
    if rank1_total == 0.0:
        raise DomainError("the rank-one estimate sums to zero; the weight ratio is undefined")
    return float(np.clip(float(np.sum(y)) / rank1_total, 0.0, 1.0))


def weight1_poisson_pure_exact(observed: np.ndarray, fact: Optional[SvdFactorization] = None) -> float:
    """Leading weight minimizing the exact Poisson MSE estimate.

    Enumerates the rank-one component of every one-count downdate, so it is
    guarded to small matrices; it serves as the small-matrix reference for
    the Monte-Carlo fitting path.
    """
    y = validate_counts(observed)
    risk._guard_exact_size(y)
    if fact is None:
        fact = linalg.svd(y)
    top = fact.singular_values[0]
    if top == 0.0:
        return 0.0
    nonzero = np.argwhere(y > 0)
    if len(nonzero) == 0:
        return 0.0
    leading = np.zeros(fact.rank_bound)
    leading[0] = 1.0
    down = risk.downdated_entries(linalg.weights_function(leading), y, nonzero)
    total = float(np.sum(y[nonzero[:, 0], nonzero[:, 1]] * down))
    return float(np.clip(total / top**2, 0.0, 1.0))


def minimize_bounded(
    fn: Callable[[float], float],
    lower: float,
    upper: float,
    xatol: float = BOUNDED_XATOL,
    maxiter: int = BOUNDED_MAXITER,
) -> float:
    """Bounded scalar minimization (golden section with parabolic steps).

    Raises :class:`NumericalError` when the search stops without reaching
    ``xatol`` (e.g. after ``maxiter`` iterations), instead of returning the
    last iterate.
    """
    res = minimize_scalar(
        fn, bounds=(lower, upper), method="bounded",
        options={"xatol": xatol, "maxiter": maxiter},
    )
    if not res.success:
        raise NumericalError(
            f"bounded minimization on [{lower:.6g}, {upper:.6g}] did not converge after "
            f"{res.nit} iterations (maxiter={maxiter}, xatol={xatol:g}): {res.message}"
        )
    return float(res.x)


VALID_OBJECTIVES = {
    "gaussian": ("sure",),
    "gamma": ("gsure", "sukls"),
    "poisson": ("pure", "pukla"),
}
DEFAULT_OBJECTIVES = {"gaussian": "sure", "gamma": "sukls", "poisson": "pukla"}


def resolve_objective(model: NoiseModel, objective: Optional[str] = None) -> str:
    """The risk objective to use for ``model``: the family default when none is
    given; :class:`ParameterError` for a pairing the family does not define."""
    objective = (objective or DEFAULT_OBJECTIVES[model.family]).lower()
    if objective not in VALID_OBJECTIVES[model.family]:
        raise ParameterError(
            f"objective {objective!r} is not defined for the {model.family} family; valid pairings: "
            + "; ".join(f"{k}: {', '.join(v)}" for k, v in VALID_OBJECTIVES.items())
        )
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
) -> Callable[[SpectralFunction], risk.RiskEstimate]:
    """Build a deterministic map from spectral functions to risk estimates.

    Monte-Carlo criteria draw their ``samples`` probe directions once, here,
    and reuse them for every evaluation, so the returned objective is a fixed
    function suitable for bounded minimization.  SURE and SUKLS use the
    closed-form divergence; they draw their probes only when an evaluation
    finds the clamp floor active, since a clamped estimate has no closed form.
    SURE of a map without a clamp floor is scored from the spectrum alone
    (:func:`risk.sure_gaussian_spectral`), with no n x m matrix formed.
    ``exact=True`` scores PURE and PUKLA by exact one-count enumeration when
    ``n m <= EXACT_DOWNDATE_CAP``: too slow to minimize, right for reporting
    one fit.  Every evaluation reuses ``fact``; none factors ``observed``
    again.
    """
    objective = resolve_objective(model, objective)
    y = np.asarray(observed, dtype=float)
    poisson_mode = "exact" if exact and y.size <= risk.EXACT_DOWNDATE_CAP else "approx"
    directions: list[np.ndarray] = []

    def probes() -> list[np.ndarray]:
        if not directions:
            if rng is None:
                raise ParameterError(
                    f"objective {objective!r} needs an rng for its probe directions"
                )
            directions.extend(risk.probe_directions(y.shape, samples, rng))
        return directions

    if objective == "gsure" or (objective in ("pure", "pukla") and poisson_mode == "approx"):
        probes()

    def closed_or_probed_divergence(fn: SpectralFunction, raw: np.ndarray):
        if fn.clamp_floor is not None and np.any(raw < fn.clamp_floor):
            return risk.mc_divergence(fn, y, samples, directions=probes(), fact=fact, raw=raw)
        s = fact.singular_values
        return risk.divergence_closed_form(fact, fn.values(s), fn.derivs(s))

    def evaluate(fn: SpectralFunction) -> risk.RiskEstimate:
        if objective == "pure":
            return risk.pure_poisson(y, fn, mode=poisson_mode, directions=directions, fact=fact)
        if objective == "pukla":
            return risk.pukla_poisson(y, fn, mode=poisson_mode, directions=directions, fact=fact)
        if objective == "sure" and fn.clamp_floor is None:
            s = fact.singular_values
            values = fn.values(s)
            div = risk.divergence_closed_form(fact, values, fn.derivs(s))
            return risk.sure_gaussian_spectral(fact, values, model.tau, div)
        # One compose per evaluation: the clamped estimate and the entries
        # the floor holds fixed both follow from the unclamped one.
        raw = linalg.compose(fact, fn.values(fact.singular_values))
        estimate = linalg.clamp(raw, fn.clamp_floor)
        if objective == "gsure":
            theta_div = risk.mc_theta_divergence_gamma(
                fn, y, model.shape, samples, directions=directions, fact=fact, raw=raw
            )
            return risk.gsure_gamma(y, estimate, model.shape, theta_div)
        div = closed_or_probed_divergence(fn, raw)
        if objective == "sure":
            return risk.sure_gaussian(y, estimate, model.tau, div)
        return risk.sukls_gamma(y, estimate, model.shape, div)

    return evaluate


def optimize_weights_greedy(
    observed: np.ndarray,
    model: NoiseModel,
    objective: str,
    active_set: Iterable[int],
    *,
    clamp_floor: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    samples: int = 1,
    fact: Optional[SvdFactorization] = None,
) -> np.ndarray:
    """Greedy per-coordinate weight optimization.

    One sweep over the active indices in ascending order; each weight is
    replaced by the bounded minimizer of the risk estimate over [0, 1] with
    the other weights held fixed.  Returns the weight vector, shape
    ``(min(n, m),)``, with weight zero at every inactive index.
    """
    y = np.asarray(observed, dtype=float)
    if fact is None:
        fact = linalg.svd(y)
    active = tuple(sorted(set(int(k) for k in active_set)))
    if active and (active[0] < 1 or active[-1] > fact.rank_bound):
        raise DomainError("active-set indices out of range")

    evaluate = make_risk_objective(y, fact, model, objective, rng=rng, samples=samples)
    weights = np.zeros(fact.rank_bound)
    for idx in active:

        def coordinate(t: float, i: int = idx - 1) -> float:
            trial = weights.copy()
            trial[i] = t
            try:
                return evaluate(linalg.weights_function(trial, clamp_floor)).value
            except SvshrinkError as exc:
                # Extend the message in place: the exception keeps its type
                # and attributes, and no constructor is called again.
                exc.args = (f"objective failed at weight index {i + 1}: {exc}",)
                raise

        weights[idx - 1] = minimize_bounded(coordinate, 0.0, 1.0)
    return weights


def soft_threshold_fit(
    observed: np.ndarray,
    model: NoiseModel,
    objective: str,
    *,
    clamp_floor: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    samples: int = 1,
    fact: Optional[SvdFactorization] = None,
) -> float:
    """Fit the soft threshold by bounded minimization of a risk estimate over
    ``[0, sigma_1]``."""
    y = np.asarray(observed, dtype=float)
    if fact is None:
        fact = linalg.svd(y)
    top = float(fact.singular_values[0])
    if top == 0.0:
        return 0.0
    evaluate = make_risk_objective(y, fact, model, objective, rng=rng, samples=samples)

    def lam_objective(lam: float) -> float:
        return evaluate(linalg.soft_threshold_function(lam, clamp_floor)).value

    return minimize_bounded(lam_objective, 0.0, top)


@dataclass(frozen=True)
class OracleWeights:
    """Best per-index singular values given the true signal.

    ``values`` holds the raw optimal spectral values ``u_k^T X v_k`` (kept
    unclipped for squared-error evaluation); ``raw_weights`` their ratios to
    the observed singular values, which need not lie in [0, 1].
    """

    values: np.ndarray
    raw_weights: np.ndarray


def oracle_weights(signal: np.ndarray, fact: SvdFactorization) -> OracleWeights:
    """Per-index squared-error-optimal shrinkage given the true signal.

    The optimal spectral value for index ``k`` is the signal's projection
    ``u_k^T X v_k`` onto the observed singular pair; it is a benchmark, not a
    practical estimator.
    """
    values = metrics.signal_projections(signal, fact)
    s = fact.singular_values
    raw = np.divide(values, s, out=np.zeros_like(values), where=s != 0)
    return OracleWeights(values, raw)


def oracle_soft_threshold(
    signal: np.ndarray,
    observed: np.ndarray,
    model: Optional[NoiseModel] = None,
    loss: str = "se",
    *,
    clamp_floor: Optional[float] = None,
    fact: Optional[SvdFactorization] = None,
) -> float:
    """Soft threshold minimizing a realized (non-expected) loss against the
    known signal; ``loss`` is one of the metric names in
    :mod:`svshrink.metrics` plus plain ``"se"``."""
    x = np.asarray(signal, dtype=float)
    y = np.asarray(observed, dtype=float)
    if fact is None:
        fact = linalg.svd(y)
    top = float(fact.singular_values[0])
    if top == 0.0:
        return 0.0

    def lam_objective(lam: float) -> float:
        xhat = linalg.reconstruct(fact, linalg.soft_threshold_function(lam, clamp_floor))
        if loss == "se":
            return float(np.sum((xhat - x) ** 2))
        return metrics.metric(loss, xhat, x, model)

    return minimize_bounded(lam_objective, 0.0, top)

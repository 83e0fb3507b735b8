"""Active-set selection for singular values by a penalized-likelihood score,
plus simple rank estimators.

The score is ``-2 log q(Y; Xtilde^s) + 2 |s| p`` with penalty
``p = (sqrt(m) + sqrt(n))^2 / 2``, which for Gaussian noise is minimized
exactly by keeping the singular values above ``tau (sqrt(m) + sqrt(n))``.
Other families use a one-shot greedy search over single-index removals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .errors import DomainError, ParameterError
from .linalg import SvdFactorization
from .models import Gaussian, NoiseModel


@dataclass(frozen=True)
class ActiveSetReport:
    """Selected singular-value indices (1-based) with the scores examined."""

    selected: tuple[int, ...]
    penalty: float
    method: str  # "gaussian_closed_form" | "greedy"
    aic_values: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "selected": list(self.selected),
            "penalty": self.penalty,
            "method": self.method,
            "aic_values": dict(self.aic_values),
        }


def penalty(n: int, m: int) -> float:
    """Model-complexity penalty per active index: ``(sqrt(m) + sqrt(n))^2 / 2``."""
    return 0.5 * (np.sqrt(m) + np.sqrt(n)) ** 2


def bulk_edge_threshold(n: int, m: int, tau: float) -> float:
    """Finite-sample noise-level threshold ``tau (sqrt(m) + sqrt(n))``."""
    return tau * (np.sqrt(m) + np.sqrt(n))


def aic(
    observed: np.ndarray,
    model: NoiseModel,
    subset,
    *,
    clamp_floor: float = linalg.DEFAULT_CLAMP_FLOOR,
    fact: Optional[SvdFactorization] = None,
) -> float:
    """Penalized-likelihood score of keeping exactly the given indices.

    Gamma/Poisson reconstructions are clamped at ``clamp_floor`` so the
    likelihood stays in-domain; Gaussian ones are not clamped.
    """
    y = np.asarray(observed, dtype=float)
    if fact is None:
        fact = linalg.svd(y)
    floor = None if isinstance(model, Gaussian) else clamp_floor
    subset = sorted({int(k) for k in subset})
    if subset and subset[0] < 1:
        raise DomainError("active-set indices are 1-based and must be >= 1")
    if subset and subset[-1] > fact.rank_bound:
        raise DomainError(f"index {subset[-1]} exceeds min(n, m) = {fact.rank_bound}")
    keep = np.zeros(fact.rank_bound)
    keep[np.asarray(subset, dtype=int) - 1] = 1.0
    xtilde = linalg.compose_clamped(fact, keep * fact.singular_values, floor)
    complexity = 2.0 * len(subset) * penalty(fact.n, fact.m)
    return -2.0 * model.log_likelihood(y, xtilde) + complexity


def active_set_gaussian(fact: SvdFactorization, tau: float) -> ActiveSetReport:
    """Exact score minimizer under Gaussian noise: indices with
    ``sigma_k > tau (sqrt(m) + sqrt(n))``; always a leading block."""
    if not tau > 0:
        raise ParameterError("tau must be positive")
    threshold = bulk_edge_threshold(fact.n, fact.m, tau)
    selected = tuple(
        k for k in range(1, fact.rank_bound + 1) if fact.singular_values[k - 1] > threshold
    )
    return ActiveSetReport(selected, penalty(fact.n, fact.m), "gaussian_closed_form")


def active_set_greedy(
    observed: np.ndarray,
    model: NoiseModel,
    *,
    clamp_floor: float = linalg.DEFAULT_CLAMP_FLOOR,
    fact: Optional[SvdFactorization] = None,
) -> ActiveSetReport:
    """One-shot greedy selection: drop exactly the indices whose single
    removal does not increase the score of the full set.

    Evaluates ``min(n, m) + 1`` scores (the full set plus each removal); ties
    favor removal.  For Gaussian noise this reproduces the closed form.
    """
    y = np.asarray(observed, dtype=float)
    if fact is None:
        fact = linalg.svd(y)
    k = fact.rank_bound
    full = tuple(range(1, k + 1))
    scores = {"full": aic(y, model, full, clamp_floor=clamp_floor, fact=fact)}
    selected = []
    for drop in full:
        reduced = tuple(i for i in full if i != drop)
        scores[f"drop_{drop}"] = aic(y, model, reduced, clamp_floor=clamp_floor, fact=fact)
        if scores[f"drop_{drop}"] > scores["full"]:
            selected.append(drop)
    return ActiveSetReport(tuple(selected), penalty(fact.n, fact.m), "greedy", scores)


def rank_bulk(fact: SvdFactorization, tau: float) -> int:
    """Number of singular values above the noise bulk edge (0 when none)."""
    if not tau > 0:
        raise ParameterError("tau must be positive")
    threshold = bulk_edge_threshold(fact.n, fact.m, tau)
    return int(np.sum(fact.singular_values > threshold))


def hard_threshold_constant(c: float) -> float:
    """Optimal hard-threshold level (unit-noise scale) for aspect ratio ``c``:
    ``sqrt(2 (c + 1) + 8 c / ((c + 1) + sqrt(c^2 + 14 c + 1)))``."""
    if not 0 < c <= 1:
        raise DomainError(f"aspect ratio must be in (0, 1], got {c}")
    return float(np.sqrt(2.0 * (c + 1.0) + 8.0 * c / ((c + 1.0) + np.sqrt(c**2 + 14.0 * c + 1.0))))


def rank_hard_threshold(fact: SvdFactorization, c: float, tau: Optional[float] = None) -> int:
    """Rank estimate by optimal hard thresholding of singular values.

    The threshold constant is stated for noise level ``1 / sqrt(m)``; pass
    ``tau`` to rescale it to other homoscedastic noise levels.
    """
    scale = 1.0 if tau is None else tau * np.sqrt(fact.m)
    threshold = hard_threshold_constant(c) * scale
    return int(np.sum(fact.singular_values > threshold))


def rank_effective(true_sigmas: np.ndarray, c: float) -> int:
    """Number of true spikes above the detectability threshold ``c^(1/4)``.

    Consumes the *signal* spectrum, so it is an oracle benchmark.
    """
    if not 0 < c <= 1:
        raise DomainError(f"aspect ratio must be in (0, 1], got {c}")
    s = np.asarray(true_sigmas, dtype=float)
    return int(np.sum(s > c**0.25))

"""Active-set selection for singular values by a penalized-likelihood score.

The score is ``-2 log q(Y; Xtilde^s) + 2 |s| p`` with penalty
``p = (sqrt(m) + sqrt(n))^2 / 2``, which for Gaussian noise is minimized
exactly by keeping the singular values above ``tau (sqrt(m) + sqrt(n))``.
Other families use :func:`active_set_greedy`, a one-shot rule that is not
the score's minimizer: on draws ``rng([2029, d])`` of two-spike quadratic-profile
signals it matched the argmin over all ``2^k`` subsets in 3 of 30 Gamma draws
(L = 4, 9x11, spikes 60, 20), 10 of 30 (L = 10, 10x10) and 39 of 40 Poisson
draws (9x11, spikes 300, 80).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

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


def indices(subset: Iterable[int], rank_bound: int) -> tuple[int, ...]:
    """The distinct 1-based indices of ``subset`` in ascending order;
    :class:`DomainError` unless each is a :func:`linalg.is_integer` in
    ``[1, rank_bound]``."""
    subset = tuple(subset)
    for k in subset:
        if not linalg.is_integer(k):
            raise DomainError(f"active-set index {k!r} is not an integer")
    subset = tuple(sorted({int(k) for k in subset}))
    if subset and subset[0] < 1:
        raise DomainError("active-set indices are 1-based and must be >= 1")
    if subset and subset[-1] > rank_bound:
        raise DomainError(f"index {subset[-1]} exceeds min(n, m) = {rank_bound}")
    return subset


def aic(
    observed: np.ndarray,
    model: NoiseModel,
    subset,
    *,
    clamp_floor: float = linalg.DEFAULT_CLAMP_FLOOR,
    fact: SvdFactorization,
) -> float:
    """Penalized-likelihood score of keeping exactly the given indices.

    Gamma/Poisson reconstructions are clamped at ``clamp_floor`` so the
    likelihood stays in-domain; Gaussian ones are not clamped.
    """
    y = np.asarray(observed, dtype=float)
    floor = None if isinstance(model, Gaussian) else clamp_floor
    subset = indices(subset, fact.rank_bound)
    keep = np.zeros(fact.rank_bound)
    keep[np.asarray(subset, dtype=int) - 1] = 1.0
    xtilde = linalg.clamp(linalg.compose(fact, keep * fact.singular_values), floor)
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
    fact: SvdFactorization,
) -> ActiveSetReport:
    """One-shot greedy selection: drop exactly the indices whose single
    removal does not increase the score of the full set.

    Evaluates ``min(n, m) + 1`` scores (the full set plus each removal); ties
    favor removal.  For Gaussian noise this reproduces the closed form.
    """
    y = np.asarray(observed, dtype=float)
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

"""Realized risk metrics between an estimate and the true signal."""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Union

import numpy as np

from . import linalg
from .errors import DomainError, ParameterError
from .linalg import SvdFactorization
from .models import Gamma, NoiseModel


def _pair(xhat: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xhat = np.asarray(xhat, dtype=float)
    x = np.asarray(x, dtype=float)
    if xhat.shape != x.shape:
        raise DomainError("estimate and signal must share a shape")
    return xhat, x


def squared_error(xhat: np.ndarray, x: np.ndarray) -> float:
    xhat, x = _pair(xhat, x)
    return float(np.sum((xhat - x) ** 2))


def nmse(xhat: np.ndarray, x: np.ndarray) -> float:
    """Squared Frobenius error normalized by the signal energy."""
    xhat, x = _pair(xhat, x)
    denom = float(np.sum(x**2))
    if denom == 0.0:
        raise DomainError("NMSE is undefined for an all-zero signal")
    return float(np.sum((xhat - x) ** 2)) / denom


def mse_eta_gamma(xhat: np.ndarray, x: np.ndarray, shape: float) -> float:
    """Squared error between natural parameters under Gamma noise:
    ``L^2 sum ((x - xhat) / (x xhat))^2``."""
    xhat, x = _pair(xhat, x)
    if np.any(x <= 0) or np.any(xhat <= 0):
        raise DomainError("Gamma natural-parameter error needs positive entries")
    return float(shape**2 * np.sum(((x - xhat) / (x * xhat)) ** 2))


def kls_gamma(xhat: np.ndarray, x: np.ndarray, shape: float) -> float:
    """Synthesis Kullback-Leibler loss under Gamma noise:
    ``L sum [xhat/x - log(xhat/x) - 1]``; zero iff the estimate matches."""
    xhat, x = _pair(xhat, x)
    if np.any(x <= 0) or np.any(xhat <= 0):
        raise DomainError("Gamma KL losses need positive entries")
    r = xhat / x
    return float(shape * np.sum(r - np.log(r) - 1.0))


def kla_poisson(xhat: np.ndarray, x: np.ndarray) -> float:
    """Analysis Kullback-Leibler loss under Poisson noise:
    ``sum [xhat - x - x log(xhat/x)]``."""
    xhat, x = _pair(xhat, x)
    if np.any(x <= 0) or np.any(xhat <= 0):
        raise DomainError("Poisson KL losses need positive entries")
    return float(np.sum(xhat - x - x * np.log(xhat / x)))


METRIC_NAMES = ("nmse", "se", "kls", "kla", "mse_eta")


def check_metric(kind: str, model: Optional[NoiseModel] = None) -> None:
    """Check a metric name, spelt exactly as in :data:`METRIC_NAMES`, against
    ``model``; an unknown name, or a Gamma-only metric without a Gamma model,
    raises :class:`ParameterError`."""
    if kind not in METRIC_NAMES:
        raise ParameterError(f"unknown metric {kind!r}; choose from {METRIC_NAMES}")
    if kind in ("kls", "mse_eta") and not isinstance(model, Gamma):
        raise ParameterError(f"the {kind} metric is implemented for the Gamma family only")


def metric(kind: str, xhat: np.ndarray, x: np.ndarray, model: Optional[NoiseModel] = None) -> float:
    """Dispatch on the metric name; Gamma-specific metrics read ``L`` from the
    model."""
    check_metric(kind, model)
    if kind == "nmse":
        return nmse(xhat, x)
    if kind == "se":
        return squared_error(xhat, x)
    if kind == "kls":
        return kls_gamma(xhat, x, model.shape)
    if kind == "kla":
        return kla_poisson(xhat, x)
    return mse_eta_gamma(xhat, x, model.shape)


# ---------------------------------------------------------------------------
# quadratic metrics of spectral estimates, scored from the spectrum

SPECTRAL_METRICS = ("nmse", "se")


def signal_projections(signal: np.ndarray, fact: SvdFactorization) -> np.ndarray:
    """``p_k = u_k^T X v_k``, the signal's coordinates on the observed singular
    pairs (the diagonal of ``U^T X V``), with one matrix product."""
    x = np.asarray(signal, dtype=float)
    if x.shape != (fact.n, fact.m):
        raise DomainError("signal shape must match the factorized observation")
    return np.sum(fact.left_vectors * (x @ fact.right_vectors), axis=0)


class SpectralScore:
    """``nmse`` and ``se`` of unclamped spectral estimates ``sum_k c_k u_k v_k^T``
    of one factorized observation against the true signal ``X``.

    The pairs ``u_k v_k^T`` are orthonormal in the Frobenius inner product, so
    with ``p = diag(U^T X V)`` the squared error splits into

        ||sum_k c_k u_k v_k^T - X||_F^2 = ||c - p||^2 + ||X - U diag(p) V^T||_F^2,

    two nonnegative terms, the second independent of ``c``.  ``p``, that
    residual and ``||X||_F^2`` are computed on first use and kept, so each
    estimate costs O(k) instead of an n x m compose.  Equal to the entrywise
    :func:`metric` up to rounding.

    ``values`` may be one spectrum, shape ``(k,)``, scored as a float, or a
    ``(C, k)`` stack of spectra (the rank caps of one fit, say), scored in
    one pass as a length-``C`` array whose entry ``i`` equals, bit for bit,
    the score of row ``i`` alone: the sum runs along the last axis, row by
    row, as it does over one spectrum.
    """

    def __init__(self, signal: np.ndarray, fact: SvdFactorization):
        self.signal = np.asarray(signal, dtype=float)
        self.fact = fact

    @cached_property
    def projections(self) -> np.ndarray:
        return signal_projections(self.signal, self.fact)

    @cached_property
    def residual(self) -> float:
        """``||X - U diag(p) V^T||_F^2``, the error no spectral estimate on
        these pairs can remove."""
        return float(np.sum((linalg.compose(self.fact, self.projections) - self.signal) ** 2))

    @cached_property
    def energy(self) -> float:
        return float(np.sum(self.signal**2))

    def squared_error(self, values: np.ndarray) -> Union[float, np.ndarray]:
        c = np.asarray(values, dtype=float)
        if c.ndim not in (1, 2) or c.shape[-1:] != self.fact.singular_values.shape:
            raise DomainError("spectral values must match the number of singular values")
        error = ((c - self.projections) ** 2).sum(axis=-1) + self.residual
        return float(error) if c.ndim == 1 else error

    def metric(self, kind: str, values: np.ndarray) -> Union[float, np.ndarray]:
        """:func:`metric` of the unclamped estimate with spectral ``values``,
        or of each row of a stack of them, for ``kind`` in
        :data:`SPECTRAL_METRICS`."""
        if kind == "se":
            return self.squared_error(values)
        if kind == "nmse":
            if self.energy == 0.0:
                raise DomainError("NMSE is undefined for an all-zero signal")
            return self.squared_error(values) / self.energy
        raise ParameterError(f"metric {kind!r} is not scored from the spectrum; use metric()")

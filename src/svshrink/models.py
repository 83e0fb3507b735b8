"""Noise models for matrix observations: Gaussian, Gamma, and Poisson.

Each model packages the entrywise log-likelihood and a seeded sampler, and
:func:`model_from_config` builds one from its JSON form; the risk estimates
in :mod:`svshrink.risk` write out the terms of each family they need.  All
observations have mean ``X_ij`` entrywise; the variances are ``tau^2``,
``X_ij^2 / L``, and ``X_ij`` respectively.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ParameterError
from .linalg import LARGEST_SQUARE_ROOT


def _first_bad_entry(mask: np.ndarray) -> tuple[int, int]:
    i, j = np.argwhere(mask)[0]
    return int(i), int(j)


@dataclass(frozen=True)
class Gaussian:
    """Homoscedastic Gaussian noise with known standard deviation ``tau``."""

    tau: float

    def __post_init__(self):
        object.__setattr__(self, "tau", json_type(self.tau, "$.model.tau", "number"))
        if not 0 < self.tau < np.inf:
            raise ParameterError(f"tau must be positive and finite, got {self.tau}")
        # The risk estimates and weight fits square tau as a float.
        if self.tau > LARGEST_SQUARE_ROOT:
            raise ParameterError(f"tau must have a finite square, got {self.tau}")

    family = "gaussian"

    def check_noise_energy(self, n: int, m: int) -> None:
        """Raise :class:`ParameterError` unless ``n m tau^2``, the noise
        energy of an n x m observation that SURE subtracts, is finite; past
        it the fits would run on infinite squared singular values."""
        if not math.isfinite(n * m * self.tau**2):
            raise ParameterError(
                f"the noise energy n*m*tau^2 of a {n}x{m} observation is not finite (tau={self.tau!r})"
            )

    def log_likelihood(self, observed: np.ndarray, mean: np.ndarray) -> float:
        y = np.asarray(observed, dtype=float)
        x = np.asarray(mean, dtype=float)
        if y.shape != x.shape:
            raise DomainError("observed and mean matrices must share a shape")
        z = (y - x) / self.tau
        return float(np.sum(-0.5 * z**2 - 0.5 * np.log(2.0 * np.pi * self.tau**2)))

    def sample(self, mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = np.asarray(mean, dtype=float)
        return x + self.tau * rng.standard_normal(x.shape)


@dataclass(frozen=True)
class Gamma:
    """Gamma noise with known shape ``L``; the mean parameterizes the scale.

    GSURE and SUKLS additionally require ``L > 2``.
    """

    shape: float

    def __post_init__(self):
        object.__setattr__(self, "shape", json_type(self.shape, "$.model.L", "number"))
        if not 0 < self.shape < np.inf:
            raise ParameterError(f"Gamma shape L must be positive and finite, got {self.shape}")

    family = "gamma"

    def log_likelihood(self, observed: np.ndarray, mean: np.ndarray) -> float:
        y = np.asarray(observed, dtype=float)
        x = np.asarray(mean, dtype=float)
        if y.shape != x.shape:
            raise DomainError("observed and mean matrices must share a shape")
        validate_positive(y, "Gamma observations")
        x = validate_positive(x, "Gamma mean")
        L = self.shape
        ll = L * np.log(L) + (L - 1.0) * np.log(y) - math.lgamma(L) - L * np.log(x) - L * y / x
        return float(np.sum(ll))

    def sample(self, mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = validate_positive(mean, "Gamma mean")
        return rng.gamma(shape=self.shape, scale=x / self.shape)


@dataclass(frozen=True)
class Poisson:
    """Poisson counts with entrywise mean ``X_ij > 0``."""

    family = "poisson"

    def log_likelihood(self, observed: np.ndarray, mean: np.ndarray) -> float:
        y = validate_counts(observed)
        x = np.asarray(mean, dtype=float)
        if y.shape != x.shape:
            raise DomainError("observed and mean matrices must share a shape")
        x = validate_positive(x, "Poisson mean")
        # The log(y!) constant is kept so that values are comparable across
        # candidate estimates, not just their differences.
        ll = y * np.log(x) - x - _log_factorial(y)
        return float(np.sum(ll))

    def sample(self, mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = validate_positive(mean, "Poisson mean")
        return rng.poisson(x).astype(float)


NoiseModel = Union[Gaussian, Gamma, Poisson]

# log(k!) = lgamma(k + 1) for the counts k below the table's length.
_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(256)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorial(counts: np.ndarray) -> np.ndarray:
    """``log(y!)`` of each entry of ``counts``, an array of nonnegative
    integer-valued floats: read off a table below 256, and from Stirling's
    series at and above it, where it is within a few ulp of ``lgamma(y + 1)``."""
    large = counts >= len(_LOG_FACTORIALS)
    if not large.any():
        return np.take(_LOG_FACTORIALS, counts.astype(np.intp))
    if large.all():
        return _stirling(counts + 1.0)
    out = np.take(_LOG_FACTORIALS, np.minimum(counts, len(_LOG_FACTORIALS) - 1).astype(np.intp))
    at = np.flatnonzero(large)
    np.put(out, at, _stirling(np.take(counts, at) + 1.0))
    return out


def _stirling(z: np.ndarray) -> np.ndarray:
    """``log Gamma(z)`` for ``z >= 257`` by Stirling's series (Abramowitz and
    Stegun 6.1.41), ``(z - 1/2) log z - z + log(2 pi) / 2 + 1/(12 z) - 1/(360 z^3)
    + 1/(1260 z^5)``; its first omitted term is below 1e-20 there.  Overwrites
    ``z``.  The steps reuse four arrays: a new array per step made the series
    a third slower on a 500 x 500 matrix."""
    out = np.log(z)
    tmp = z - 0.5
    out *= tmp
    out -= z
    r = np.reciprocal(z, out=z)
    r2 = np.multiply(r, r, out=tmp)
    tail = r2 / 1260.0
    np.subtract(1.0 / 360.0, tail, out=tail)
    tail *= r2
    np.subtract(1.0 / 12.0, tail, out=tail)
    tail *= r
    tail += _HALF_LOG_2PI
    out += tail
    return out


def validate_positive(x: np.ndarray, what: str) -> np.ndarray:
    """Check that every entry of ``x`` is positive: the support of Gamma
    observations, and of Gamma and Poisson means.  ``what`` names the matrix
    in the error."""
    x = np.asarray(x, dtype=float)
    bad = ~(x > 0)
    if bad.any():
        i, j = _first_bad_entry(np.atleast_2d(bad))
        raise DomainError(f"{what} must be positive; entry ({i}, {j}) is {np.atleast_2d(x)[i, j]}")
    return x


def validate_counts(observed: np.ndarray) -> np.ndarray:
    """Check that a matrix holds nonnegative integers (Poisson support)."""
    y = np.asarray(observed, dtype=float)
    bad = (y < 0) | (y != np.floor(y)) | ~np.isfinite(y)
    if bad.any():
        i, j = _first_bad_entry(np.atleast_2d(bad))
        raise DomainError(
            f"Poisson observations must be nonnegative integers; entry ({i}, {j}) is {np.atleast_2d(y)[i, j]}"
        )
    return y


# Each family's class and the JSON keys of its parameters, in constructor order.
_FAMILIES = {"gaussian": (Gaussian, ("tau",)), "gamma": (Gamma, ("L",)), "poisson": (Poisson, ())}


def model_from_config(config: dict) -> NoiseModel:
    """Build a model from its JSON form, e.g. ``{"family": "gamma", "L": 3}``."""
    family = json_object(config, "$.model", ("family",), None)["family"]
    if family not in tuple(_FAMILIES):  # a tuple: an unhashable value is compared, not hashed
        raise _invalid("$.model.family", f"{family!r} is not one of {list(_FAMILIES)!r}")
    cls, keys = _FAMILIES[family]
    json_object(config, "$.model", ("family",) + keys)
    return cls(*(config[key] for key in keys))  # the constructor checks each number


def _invalid(where: str, message: str) -> ParameterError:
    """A fault in a config's JSON form at JSON path ``where``, in JSON Schema's wording."""
    return ParameterError(f"invalid experiment config at {where}: {message}")


def json_object(config, where: str, required: tuple, optional: Optional[tuple] = ()) -> dict:
    """``config``, if it is an object with the ``required`` keys and no other
    key but the ``optional`` ones (any key, if ``optional`` is None)."""
    json_type(config, where, "object")
    for key in required:
        if key not in config:
            raise _invalid(where, f"{key!r} is a required property")
    extra = sorted((k for k in config if optional is not None and k not in required + optional), key=str)
    if extra:
        raise _invalid(where, f"Additional properties are not allowed ({extra[0]!r} was unexpected)")
    return config


def json_type(value, where: str, name: str):
    """``value``, if it has the JSON type ``name`` (a bool is no number, and an
    array is a list or tuple, never a string); a number as a float, which an
    integer beyond the float range is not."""
    types = {"object": dict, "array": (list, tuple), "number": numbers.Real}
    if isinstance(value, bool) or not isinstance(value, types[name]):
        raise _invalid(where, f"{value!r} is not of type {name!r}")
    if name != "number":
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise _invalid(where, "an integer outside the float range is not a number") from exc

"""Low-rank matrix denoising by data-driven singular-value shrinkage."""

from . import activeset, experiments, linalg, matrixio, metrics, models, risk, rmt, shrinkage
from .errors import (
    CapacityError,
    DegenerateSpectrumError,
    DomainError,
    NumericalError,
    ParameterError,
    SvshrinkError,
    UnsupportedFamilyError,
)
from .linalg import SpectralFunction, SvdFactorization, svd
from .models import Gamma, Gaussian, Poisson, model_from_config

__all__ = [
    "activeset",
    "experiments",
    "linalg",
    "matrixio",
    "metrics",
    "models",
    "risk",
    "rmt",
    "shrinkage",
    "svd",
    "SvdFactorization",
    "SpectralFunction",
    "Gaussian",
    "Gamma",
    "Poisson",
    "model_from_config",
    "SvshrinkError",
    "DomainError",
    "ParameterError",
    "DegenerateSpectrumError",
    "CapacityError",
    "NumericalError",
    "UnsupportedFamilyError",
]

__version__ = "0.1.0"

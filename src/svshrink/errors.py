"""Exception types shared across the package."""


class SvshrinkError(Exception):
    """Base class for all svshrink errors."""


class DomainError(SvshrinkError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ParameterError(SvshrinkError, ValueError):
    """A model or method parameter violates its constraints."""


class DegenerateSpectrumError(SvshrinkError, ValueError):
    """Singular values are too close for spectral-derivative formulas."""


class CapacityError(SvshrinkError, ValueError):
    """An exact algorithm was requested beyond its guarded problem size."""


class NumericalError(SvshrinkError, RuntimeError):
    """An underlying numerical routine failed to converge."""

"""Exception types shared across the package."""


class SheafSysIdError(Exception):
    """Base class for all library errors."""


class StructuralError(SheafSysIdError):
    """Matrices, dimensions, or block layouts are inconsistent."""


class ParameterError(SheafSysIdError):
    """A model or solver parameter is out of its valid range."""


class UsageError(SheafSysIdError):
    """An operation was called on inputs it is not defined for."""


class ConfigurationError(SheafSysIdError):
    """A run configuration or builder request failed validation."""


class DivergenceError(SheafSysIdError):
    """An integration produced a non-finite state.

    Carries the simulation time at which the blow-up was detected.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


def allocate(make, message: str):
    """make(), or ParameterError(message) if the arrays it allocates do not fit."""
    try:
        return make()
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array size
        raise ParameterError(message) from None

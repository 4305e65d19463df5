"""The package's errors and input checks: a refused input raises UsageError (the
CLI exits 1), a blow-up DivergenceError (exit 2), and both are a SheafSysIdError."""

import math
import numbers
import sys


class SheafSysIdError(Exception):
    """Base class for all library errors."""


class UsageError(SheafSysIdError):
    """An input was refused: out of range, inconsistent, or too large to allocate."""


class DivergenceError(SheafSysIdError):
    """An integration produced a non-finite state.

    Carries the simulation time at which the blow-up was detected.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


def allocate(make, message: str):
    """make(), or UsageError(message) if the arrays it allocates do not fit."""
    try:
        return make()
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array size
        raise UsageError(message) from None


def config_number(value, key: str, low: float = -math.inf, integer: bool = False):
    """value as a finite float, or an int if ``integer``, that is at least low.

    Anything else (a string, a bool, inf, nan, a fraction where an integer is
    due) raises UsageError naming ``key``.
    """
    kind = numbers.Integral if integer else numbers.Real
    # the bound also refuses nan, and an int that no float can hold
    finite = isinstance(value, kind) and (integer or abs(value) <= sys.float_info.max)
    if isinstance(value, bool) or not finite or not value >= low:
        bound = f" >= {low:g}" if low > -math.inf else ""
        what = "an integer" if integer else "a finite number"
        raise UsageError(f"{key} must be {what}{bound}, got {value!r}")
    return int(value) if integer else float(value)

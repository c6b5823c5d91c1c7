"""Exception types shared across the toolkit, and the value checks that
raise them.

The CLI maps these onto exit codes: UsageError -> 1, InfeasibleError -> 2,
NumericalError -> 3.
"""

import math
from numbers import Integral, Real


class UsageError(ValueError):
    """Malformed arguments, config schema violations, bad file formats."""


class InfeasibleError(ValueError):
    """Parameters that are structurally impossible or too large to verify."""


class NumericalError(RuntimeError):
    """A numerical invariant failed (rank collapse, non-convergence)."""


def is_int(value) -> bool:
    """Whether value is an integer, a numpy one included (a bool is not)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> None:
    """UsageError unless value is an integer (`is_int`) in [low, high),
    either bound left open where None."""
    if not (is_int(value) and (low is None or value >= low) and (high is None or value < high)):
        bound = ("" if low is None else f" >= {low}" if high is None
                 else f" in [{low}, {high})")
        raise UsageError(f"{what} must be an integer{bound}, got {value!r}")


def check_finite_real(value, what: str) -> None:
    """UsageError unless value is a finite real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise UsageError(f"{what} must be a finite real number, got {value!r}")

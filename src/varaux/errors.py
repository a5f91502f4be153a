"""Exception hierarchy shared across the package.

Every error this package raises deliberately derives from
:class:`VarauxError`, so callers can catch one type at the boundary.
Each class carries its CLI exit code as ``exit_code``: 2 for bad input,
malformed files and invalid designs, 3 for degenerate data and failed runs.

The private checks at the end hold the argument rules every module
shares: an integer (numpy's too, never a bool) within bounds, a real
number, a finite or finite positive number.  Each keeps the calling
site's exception class and names the argument in its message.
"""

import math
import numbers


class VarauxError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InvalidInputError(VarauxError, ValueError):
    """An argument violates a documented precondition."""

    exit_code = 2


class PopulationFormatError(InvalidInputError):
    """A population CSV or moment-table JSON file does not conform to its format."""


class InvalidSpecError(InvalidInputError):
    """A synthetic-population spec is unusable (bad marginal, non-PD correlations, ...)."""


class InvalidDesignError(VarauxError):
    """A sampling design violates its structural constraints (sizes, nesting)."""

    exit_code = 2


class DegeneratePopulationError(VarauxError):
    """A population variate has zero variance where a positive one is required."""


class DegenerateSampleError(VarauxError):
    """A drawn sample has zero variance in a variate an estimator divides by."""


class NoUniqueOptimumError(VarauxError):
    """The combined-weight objective is flat, so no unique optimal weight exists."""


class SimulationError(VarauxError):
    """A simulation run could not produce a trustworthy report."""


#: The phrase of each ``(low, high)`` bound pair :func:`_integer` names;
#: any other pair reads "an integer >= low".
_INTEGER_PHRASES = {
    (None, None): "an integer",
    (1, None): "a positive integer",
    (0, 2**64): "an unsigned 64-bit integer",
}


def _integer(value, what: str, low: int | None = None, high: int | None = None, error=InvalidInputError) -> int:
    """``value`` as an ``int``: any integer but a bool, numpy's included,
    with ``low <= value < high`` where a bound is given.  Anything else
    raises ``error``: "<what> must be <phrase>, got <value!r>", the
    phrase read from the bounds."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        number = int(value)
        if (low is None or number >= low) and (high is None or number < high):
            return number
    phrase = _INTEGER_PHRASES.get((low, high), f"an integer >= {low}")
    raise error(f"{what} must be {phrase}, got {value!r}")


def _number(value, what: str, error=InvalidInputError) -> float:
    """``value`` as a float if it is a real number other than a bool;
    else ``error``: "<what> must be a number, got <value!r>"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a number, got {value!r}")
    return float(value)


def _finite(value, what: str, positive: bool = False, error=InvalidInputError) -> float:
    """``float(value)`` if it is finite, and above zero when ``positive``;
    else ``error``: "<what> must be finite" (or "a finite positive
    number"), ", got <value!r>".  A caller whose message shows the
    converted number passes ``float(value)``."""
    number = float(value)
    if not math.isfinite(number) or (positive and number <= 0.0):
        raise error(f"{what} must be {'a finite positive number' if positive else 'finite'}, got {value!r}")
    return number

"""Exception hierarchy shared across the package.

Every error this package raises deliberately derives from
:class:`VarauxError`, so callers can catch one type at the boundary.
Each class carries its CLI exit code as ``exit_code``: 2 for bad input,
malformed files and invalid designs, 3 for degenerate data and failed runs.

The private checks at the end state once each argument rule every
module shares: an integer within bounds, and a finite real number,
above zero where it must be positive; numpy's count, a bool never does.
Each keeps the calling site's exception class and names the argument.
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
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        number = int(value)
        if (low is None or number >= low) and (high is None or number < high):
            return number
    phrase = _INTEGER_PHRASES.get((low, high), f"an integer >= {low}")
    raise error(f"{what} must be {phrase}, got {value!r}")


def _finite(value, what: str, positive: bool = False, error=InvalidInputError) -> float:
    """``value`` as a ``float``: any real number but a bool, numpy's
    included, finite and, when ``positive``, above zero.  Else ``error``:
    "<what> must be a number, got <value!r>" for a non-number, and "<what>
    must be finite" (or "a finite positive number"), ", got <float(value)!r>"."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise error(f"{what} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number) or (positive and number <= 0.0):
        raise error(f"{what} must be {'a finite positive number' if positive else 'finite'}, got {number!r}")
    return number

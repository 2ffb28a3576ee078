"""Exception hierarchy shared by all tailratio modules, and the argument checks.

Every entry point and every numeric CLI option coerces and range-checks its
numbers through `check_int`, `check_real` and `check_kappa`, which raise
ParameterDomainError.
"""

import math
import sys


class TailRatioError(Exception):
    """Base class for all library errors; `exit_code` is the CLI's exit status."""

    exit_code = 2


class ParameterDomainError(TailRatioError, ValueError):
    """A numeric argument lies outside its documented domain."""


def check_int(value, name, lo, hi=None):
    """`value` as an int in [lo, hi], or in [lo, inf) when `hi` is None.

    3.0 and numpy integers are accepted; a boolean, a fraction, NaN, infinity
    or a non-number is refused rather than truncated by int().
    """
    if type(value) is not int:  # a plain int, the common case, skips the type tests
        numpy = sys.modules.get("numpy")  # a numpy value implies a loaded numpy
        ints, reals = ((int, numpy.integer), (float, numpy.floating)) if numpy else (int, float)
        if isinstance(value, bool) or not isinstance(value, ints):
            if not (isinstance(value, reals) and float(value).is_integer()):
                raise ParameterDomainError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ParameterDomainError(f"{name} must be {bound}, got {value}")
    return value


def check_real(value, name, lo, hi, ends="()"):
    """float(value) in the interval from `lo` to `hi`, open or closed at each end.

    `ends` holds the brackets, e.g. "(]" for lo < value <= hi.  A boolean, NaN
    or a value float() refuses lies outside every interval.
    """
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    above = lo < number if ends[0] == "(" else lo <= number
    below = number < hi if ends[1] == ")" else number <= hi
    if not (above and below):
        raise ParameterDomainError(
            f"{name} must be a real number in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}"
        )
    return number


def check_kappa(kappa):
    """Validate and return kappa in (0, 1)."""
    return check_real(kappa, "kappa", 0, 1)


class CapabilityError(TailRatioError):
    """A family lacks the analytic capability an operation requires."""

    exit_code = 3


class InsufficientDataError(TailRatioError, ValueError):
    """The input sequence is too short for the requested operation."""

    exit_code = 4


class SingularityError(TailRatioError, ZeroDivisionError):
    """A density evaluated to zero where a ratio needs it positive."""


class AccuracyError(TailRatioError):
    """A result the floats cannot give: quadrature missed its tolerance, or a value overflowed.

    From quadrature, the message says which two levels of the rule disagreed,
    by how much, and against what tolerance; it ends with the best available
    estimate, which the error carries with its error estimate.
    """

    exit_code = 5

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message if best_estimate is None else
                         f"{message} (best estimate {best_estimate!r})")
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class DegenerateFrequencyError(TailRatioError):
    """The observed event frequency is 0 or 1, so ln(p_hat) is unusable.

    Carries the one-sided bound obtainable from the Wilson interval, which
    the message ends with: ``bound_side`` is "upper" when every block
    triggered the event (alpha is bounded above) and "lower" when no block did.
    """

    exit_code = 6

    def __init__(self, message, p_hat, bound, bound_side, confidence):
        super().__init__(
            f"{message} ({100 * confidence:g}% {bound_side} bound on alpha: {bound:.6g})")
        self.p_hat = p_hat
        self.bound = bound
        self.bound_side = bound_side
        self.confidence = confidence

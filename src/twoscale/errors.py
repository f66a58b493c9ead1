"""Exception taxonomy shared by every twoscale module.

All validation failures raise a subclass of :class:`TwoscaleError`, so
callers (and the CLI) can distinguish bad input from internal bugs.
"""

import functools
import math
import sys

__all__ = [
    "TwoscaleError",
    "ParamError",
    "DomainError",
    "OrderError",
    "NotRareError",
    "NoSolutionError",
    "UnsupportedSignError",
    "RegimeError",
    "LatticeError",
    "SeriesUnavailable",
]

#: The log of the largest finite float: ``math.exp`` is finite up to here.
_LOG_HUGE = math.log(sys.float_info.max)


def _exp_of_log(log_value: float) -> float:
    """The one rule from a log to a probability: ``inf`` above :data:`_LOG_HUGE`, ParamError
    for NaN, else ``math.exp``, which reads 0.0 below about -745.13."""
    if math.isnan(log_value):  # exponent terms of both signs past the float range
        raise ParamError("the exponent terms lie past the float range and sum to NaN")
    return math.inf if log_value > _LOG_HUGE else math.exp(log_value)


class TwoscaleError(Exception):
    """Base class for all errors raised by this package."""


class ParamError(TwoscaleError):
    """A distribution or scaling parameter is outside its admissible range."""


class DomainError(TwoscaleError):
    """An exponent was evaluated at or beyond its domain supremum."""


class OrderError(TwoscaleError):
    """A derivative or expansion order beyond the supported range was requested."""


class NotRareError(TwoscaleError):
    """The requested threshold is not in the rare-event direction (u <= a*b)."""


class NoSolutionError(TwoscaleError):
    """The tilting equation has no solution on the admissible bracket."""


class UnsupportedSignError(TwoscaleError):
    """The mean of the outer process is non-positive; the slow-regime
    machinery has no solution there and the case is explicitly unsupported."""


class RegimeError(TwoscaleError):
    """An approximation was requested outside its timescale regime."""


class LatticeError(TwoscaleError):
    """A lattice adjustment was requested for a process with no lattice span."""


class SeriesUnavailable(TwoscaleError):
    """Closed-form series coefficients exist only for the built-in model pairs."""


def _in_float_range(fn):
    """``fn``, raising :class:`ParamError` where its own arithmetic leaves the float range."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            raise ParamError(f"{fn.__name__}: the arithmetic leaves the float range") from None

    return checked


def require_finite(**values: float) -> None:
    """Raise :class:`ParamError` unless every keyword argument is a finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParamError(f"{name} must be finite, got {value}")

"""Exception hierarchy shared across the toolkit.

Every error raised by sonolink derives from :class:`SonolinkError` so callers
can catch domain failures without masking programming errors.
"""

import math
import numbers
import operator

import numpy as np


class SonolinkError(Exception):
    """Base class for all sonolink domain errors."""


class InvalidArgumentError(SonolinkError, ValueError):
    """An argument violates a documented precondition."""


class FormatError(SonolinkError):
    """A file or byte stream is malformed or uses an unsupported codec."""


class FecError(SonolinkError):
    """Reed-Solomon decode failure: corruption beyond correction capability."""


class EstimationError(SonolinkError):
    """Blind reverberation-time estimation produced no valid subband."""


class MetricError(SonolinkError):
    """A quality metric is unavailable for the given inputs."""


def _integer(value, what: str) -> int:
    """``value`` as an int; :class:`InvalidArgumentError` naming ``what`` if
    it is not an integer (a bool is not)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")


def _sample_rate(value) -> int:
    """``value`` as an int; :class:`InvalidArgumentError` unless it is a
    positive integer (a bool is not a sample rate)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
        raise InvalidArgumentError(f"sample_rate must be a positive integer, got {value!r}")
    return int(value)


def _real(value, what: str):
    """``value`` as the Python number it equals (a numpy scalar becomes an
    int or a float); :class:`InvalidArgumentError` naming ``what`` unless it
    is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{what} must be a number, got {value!r}")
    float(value)  # an int too large for a float raises OverflowError here
    return value.item() if isinstance(value, np.generic) else value


def _positive(value, what: str):
    """The number ``value``, unchanged; :class:`InvalidArgumentError`
    naming ``what`` unless it is > 0 and finite."""
    if not 0 < value < math.inf:
        raise InvalidArgumentError(f"{what} must be positive and finite, got {value!r}")
    return value


def _non_negative(value, what: str):
    """The number ``value``, unchanged; :class:`InvalidArgumentError`
    naming ``what`` unless it is >= 0 and finite."""
    if not 0 <= value < math.inf:
        raise InvalidArgumentError(f"{what} must be non-negative and finite, got {value!r}")
    return value


def _check_fields(obj, integers=(), reals=(), optional=(),
                  positive=(), non_negative=(), finite=()) -> None:
    """Store each named field of ``obj`` as the Python number it equals.

    Raise :class:`InvalidArgumentError` naming the first field that is not
    an integer (``integers``) or a real number (``reals``), or that breaks
    its range: ``positive`` (> 0), ``non_negative`` (>= 0) or ``finite``,
    each of them finite.  A field named in ``optional`` may also be None.
    """
    for name in (*integers, *reals):
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        value = _integer(value, name) if name in integers else _real(value, name)
        if name in positive:
            _positive(value, name)
        elif name in non_negative:
            _non_negative(value, name)
        elif name in finite and not -math.inf < value < math.inf:
            raise InvalidArgumentError(f"{name} must be finite, got {value!r}")
        object.__setattr__(obj, name, value)

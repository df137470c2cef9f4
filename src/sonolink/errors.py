"""Exception hierarchy shared across the toolkit.

Every error raised by sonolink derives from :class:`SonolinkError` so callers
can catch domain failures without masking programming errors.
"""

import numbers
import operator


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


def _real(value, what: str) -> float:
    """``value`` as a float; :class:`InvalidArgumentError` naming ``what``
    unless it is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{what} must be a number, got {value!r}")
    return float(value)


def _check_fields(obj, integers=(), reals=(), optional=()) -> None:
    """Raise :class:`InvalidArgumentError` naming the first field of ``obj``
    that is not an integer (``integers``) or a real number (``reals``); a
    field named in ``optional`` may also be None."""
    for name in (*integers, *reals):
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        if name in integers:
            _integer(value, name)
        else:
            _real(value, name)

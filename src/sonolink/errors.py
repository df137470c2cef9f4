"""Exception hierarchy shared across the toolkit.

Every error raised by sonolink derives from :class:`SonolinkError` so callers
can catch domain failures without masking programming errors.
"""


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

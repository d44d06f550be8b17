"""Exception types shared across the package."""


class FracqError(Exception):
    """Base class for package errors."""


class ParameterError(FracqError, ValueError):
    """A parameter is outside its admissible range (e.g. theta > 1)."""


class DomainError(FracqError, ValueError):
    """An argument lies outside the validated evaluation domain."""


class EventCapError(FracqError, RuntimeError):
    """A simulation exceeded its event-count resource cap."""


class SeriesConvergenceError(FracqError, RuntimeError):
    """A truncated series hit its term cap before meeting tolerance."""

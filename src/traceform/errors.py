"""Exception types shared across the package."""


class TraceformError(Exception):
    """Base class for all library errors."""


class ValidationError(TraceformError):
    """A stored object failed structural validation (bad geometry, bad file)."""


class PreconditionError(TraceformError):
    """An operation was called outside its mathematical domain."""


class StepCapError(TraceformError, RuntimeError):
    """A Monte Carlo walk ran past its step cap without finishing."""

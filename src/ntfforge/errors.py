"""Exception hierarchy shared by all ntfforge modules."""


class NtfForgeError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(NtfForgeError):
    """A filter or design specification violates its invariants."""


class ConditioningError(NtfForgeError):
    """A computation is too ill-conditioned to trust."""


class TruncationOverflowError(NtfForgeError):
    """Impulse-response truncation would exceed the configured hard cap."""


class EvaluationError(NtfForgeError):
    """A frequency-domain evaluation failed (e.g. denominator vanished)."""


class DegenerateFilterError(NtfForgeError):
    """The output filter is identically zero; the objective is degenerate."""


class BoundViolationError(NtfForgeError):
    """A gain-bound feasibility check failed at the requested level."""

    def __init__(self, message, grid_max=None):
        super().__init__(message)
        self.grid_max = grid_max


class SolverError(NtfForgeError):
    """The SDP solver failed to produce a usable solution; ``iterations``
    and ``runtime_seconds`` are the failed solve's."""

    def __init__(self, message, iterations: int, runtime_seconds: float):
        super().__init__(message)
        self.iterations = iterations
        self.runtime_seconds = runtime_seconds


def spec_int(value, name: str) -> int:
    """An integer field of a JSON spec.  A fractional number is rejected,
    not truncated; 12.0 reads as 12."""
    if isinstance(value, float) and not value.is_integer():
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
    return int(value)

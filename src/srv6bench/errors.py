"""Exception hierarchy shared by all srv6bench modules."""


class Srv6BenchError(Exception):
    """Base class for all errors raised by this package."""


class RequirementViolationError(Srv6BenchError):
    """Packet does not meet the traffic requirement of a behavior."""


class UnstableMeasurementError(Srv6BenchError):
    """Repeated trials near the loss threshold never met the variance cap."""


class ExperimentAbortedError(Srv6BenchError):
    """A search was aborted by a driver failure. Carries its partial trace
    and the traces of the runs of the same validation that finished
    before it."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
        self.completed = ()  # set by validate_pdr


class ConfigError(Srv6BenchError):
    """Configuration file failed schema validation."""

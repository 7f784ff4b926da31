"""Exception hierarchy shared by all srv6bench modules.

Srv6BenchError is every fault of a behavior's measurement: a packet that
does not meet its traffic requirement, a forwarder that does not conform,
a driver that fails, rates that never settle. An error inside a search
aborts it as ExperimentAbortedError, which keeps the runs traced so far.
ConfigError is a bad configuration file or argument.
"""


class Srv6BenchError(Exception):
    """Base class for all errors raised by this package."""


class ExperimentAbortedError(Srv6BenchError):
    """A search was aborted by an error in one of its trials. Carries the
    traces of the runs of the same validation that finished before it,
    then its own partial trace."""

    def __init__(self, message, traces=()):
        super().__init__(message)
        self.traces = traces


class ConfigError(Srv6BenchError):
    """Configuration file failed schema validation."""

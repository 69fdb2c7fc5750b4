"""Exception hierarchy shared by all adrank modules.

Each class carries the CLI's exit code and message prefix for it: usage and
configuration problems exit 1, data problems 2 and numerical failures 3;
any other error exits 2.
"""


class AdrankError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2
    prefix = "error"


class UsageError(AdrankError):
    """An operation was invoked in a way its contract forbids."""
    exit_code = 1


class ConfigError(AdrankError):
    """Invalid configuration: unknown keys, bad model specs, bad rules."""
    exit_code = 1


class DomainError(AdrankError):
    """An argument lies outside the mathematical domain of a function."""
    exit_code = 1


class ParameterError(AdrankError):
    """A distribution parameter lies outside its admissible domain."""
    exit_code = 1


class SupportError(AdrankError):
    """Sample values are incompatible with the support of a model."""
    prefix = "data error"


class DegenerateSampleError(AdrankError):
    """The sample carries no information for a required parameter
    (for example zero variance where a positive scale is needed)."""


class BoundaryError(AdrankError):
    """A statistic is undefined because a CDF value hit 0 or 1."""


class OptimizationInitError(AdrankError):
    """The objective was non-finite at every initial simplex vertex."""
    exit_code = 3
    prefix = "numerical failure"


class NumericalError(AdrankError):
    """An iterative numerical procedure failed to converge."""
    exit_code = 3
    prefix = "numerical failure"


class FormatError(AdrankError):
    """A file did not match its expected on-disk format."""
    prefix = "data error"


class IngestError(AdrankError):
    """Corpus ingestion failed (duplicate ids, empty corpus, ...)."""
    prefix = "data error"

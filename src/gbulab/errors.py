"""Exception types shared across the package."""


class GbulabError(Exception):
    """Base class for all package errors."""


class DomainError(GbulabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a singular point."""


class ConfigurationError(GbulabError, ValueError):
    """A run configuration is invalid or under-resolved."""


class SnapshotError(ConfigurationError):
    """A run directory on disk is corrupt: a snapshot is truncated, has a bad
    magic or differs from its recorded sha256, or meta.json is unreadable."""


class NumericError(GbulabError, ArithmeticError):
    """Non-finite values appeared where finite ones are required."""


class FitError(GbulabError, ValueError):
    """A regression could not be performed on the available samples."""


class DtUnderflow(GbulabError):
    """The adaptive step fell below the configured floor; the run must stop."""

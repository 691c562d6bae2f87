"""Exception types shared across the package."""


class QaoaBenchError(Exception):
    """Base class for all package errors."""


class DomainError(QaoaBenchError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ResourceLimitError(QaoaBenchError):
    """A size cap was exceeded (state vectors, brute-force enumeration)."""


class BudgetExhaustedError(QaoaBenchError):
    """A metered objective was asked to evaluate past its budget."""


class ConfigError(QaoaBenchError, ValueError):
    """Invalid configuration file, flag combination, or missing artifact."""


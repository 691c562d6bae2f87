"""Exception types shared across the package, and the JSON artifact reader
that turns a malformed file into one of them."""

import json


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


def read_artifact(path, what: str, build):
    """`build(payload)` on the JSON object in `path`.

    A file that is not a JSON object, or whose fields `build` cannot use
    (missing keys, wrong types, out-of-domain values), raises ConfigError
    naming the file; a ConfigError raised by `build` passes through.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
            if not isinstance(payload, dict):
                raise TypeError("the top level is not an object")
            return build(payload)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: not a valid {what} file "
                              f"({type(exc).__name__}: {exc})") from None

"""Exception hierarchy shared across the package.

The CLI maps each family to a distinct exit code, so library code should
raise the most specific class that applies.
"""

from contextlib import contextmanager


class CellSearchError(Exception):
    """Base class for all package errors."""


class ConfigError(CellSearchError, ValueError):
    """Invalid configuration or parameter usage."""


class DataError(CellSearchError, ValueError):
    """Malformed, inconsistent, or missing input data."""


@contextmanager
def named(where):
    """Prefix the message of a DataError or CapacityError raised inside
    with where, so the error names the damaged artifact's path or the
    shard being evaluated."""
    try:
        yield
    except (DataError, CapacityError) as e:
        raise type(e)(f"{where}: {e}") from None


class InvalidCellError(DataError):
    """A 64-bit value that does not decode to a valid grid cell."""


class NumericError(CellSearchError, RuntimeError):
    """Non-finite or otherwise unusable numeric state."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


class CapacityError(CellSearchError, RuntimeError):
    """A result would exceed a configured size cap."""

"""Exception types shared across the package, and the one check of every
count, size, seed and rate an entry point takes: ``require_int`` and
``require_real``.  Checks on the per-step path stay inline."""

import math
import numbers


class HivememError(Exception):
    """Base class for all package errors."""


class ValidationError(HivememError):
    """An argument violates a documented precondition."""


class ConfigurationError(HivememError):
    """Mismatched dimensions, bad config files, unresolvable credentials."""


class EntryNotFoundError(HivememError):
    """Retrieval of an unknown memory entry id (recoverable; the runtime
    treats it as a failed step, not a crash)."""


class SchemaError(HivememError):
    """A persisted trace file violates the event schema."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class BackendFailure(HivememError):
    """An agent backend failed permanently (team fails soft)."""


class TrainingDiverged(HivememError):
    """Training hit a non-finite loss; a checkpoint of the last finite
    state was written before raising."""


def require_int(name: str, value, least: int) -> int:
    """``value`` as a plain int: an integer (numpy's too, never a bool)
    ``>= least``, or a ValidationError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, not {value!r}")
    return int(value)


def require_real(name: str, value, least: float, above: bool = False) -> float:
    """``value`` as a plain float: a finite real number (never a bool)
    ``>= least``, or ``> least`` when ``above``; else a ValidationError
    naming ``name``."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an int beyond float's range
            number = math.inf
        if math.isfinite(number) and (number > least if above else number >= least):
            return number
    raise ValidationError(
        f"{name} must be finite and {'>' if above else '>='} {least}, not {value!r}"
    )

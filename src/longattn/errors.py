"""Exception hierarchy shared across the package."""

from contextlib import contextmanager
from typing import Iterator


class LongattnError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LongattnError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ShortInputError(DimensionError):
    """Input sequence is too short for the requested transformation."""


class ConfigError(LongattnError, ValueError):
    """Invalid configuration value or combination."""


class StateError(LongattnError, RuntimeError):
    """Operation invoked in a state that does not support it."""


class EvaluationError(LongattnError, ArithmeticError):
    """A numeric evaluation produced a non-finite or unusable result."""


class DivergenceError(LongattnError, ArithmeticError):
    """Training loss became non-finite."""


class SizeError(LongattnError, ValueError):
    """Requested computation exceeds an enumeration or memory budget."""


class InternalError(LongattnError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not a usage error."""


class InfeasibleAlignmentError(LongattnError, ValueError):
    """Label sequence cannot be aligned to the given number of frames."""

    def __init__(self, required: int, available: int):
        self.required = required
        self.available = available
        super().__init__(
            f"label sequence needs at least {required} frames, lattice has {available}"
        )


@contextmanager
def reading(what: str, path) -> Iterator[None]:
    """Raise an ``OSError`` from the block as a one-line ``ConfigError``: the
    input file ``path`` that the user named as ``what`` cannot be read."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None

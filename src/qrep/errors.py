"""Exception types, and the integer rule of counts and seeds, shared across the package."""
import numpy as np


class QRepError(Exception):
    """Base class for all qrep errors."""


class QasmError(QRepError):
    """Problem in OpenQASM source. Carries 1-based line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}" if line else message)


class QasmSyntaxError(QasmError):
    pass


class UnsupportedGateError(QasmError):
    pass


class UnsupportedFeatureError(QasmError):
    pass


class GateIndexError(QRepError, IndexError):
    """Gate position outside the circuit's gate list."""


class QubitIndexError(QRepError, ValueError):
    """Qubit index outside the circuit width."""


class WidthMismatchError(QRepError, ValueError):
    """Operands defined over different qubit counts / outcome spaces."""


class ExpectedTableError(QRepError, ValueError):
    """Malformed expected-distribution table or test-case id."""


class SuiteTooWideError(QRepError, ValueError):
    """Suite generation would enumerate too many basis states."""


class UnknownGateError(QRepError, KeyError):
    """Gate identity not present in the suspiciousness table."""

    __str__ = Exception.__str__  # the message as given, not quoted as a key


class NoFailingTestError(QRepError, ValueError):
    """Repair/localisation requires at least one failing test case."""


class NoNonEquivalentMutantError(QRepError, ValueError):
    """Every candidate mutant passes the reference suite."""


def check_integer(name: str, value, low: int | None = None) -> None:
    """Refuse a ``value`` that is not an integer (a bool or float is not; a numpy one is) or is below ``low``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")

"""Exception types and input checks shared across the package."""

import math
import numbers

import numpy as np


class DataError(ValueError):
    """Input data or configuration failed validation."""


class NumericalError(RuntimeError):
    """A numerical routine could not complete (factorization, optimizer)."""


def check_format_version(payload: dict, expected: int, what: str) -> None:
    """Raise DataError unless ``payload`` carries ``format_version == expected``."""
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise DataError(f"{what} has no format_version; expected {expected}")
    found = payload["format_version"]
    if found != expected:
        raise DataError(f"{what} has format_version {found!r}; expected {expected}")


def check_int(name: str, value, low: int | None = None) -> None:
    """Raise DataError unless ``value`` is an integer (not a bool), >= ``low`` if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DataError(f"{name} must be >= {low}, got {value}")


def check_real(name: str, value, low: float | None = None, strict: bool = False) -> None:
    """Raise DataError unless ``value`` is a finite number, >= ``low`` (> if ``strict``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise DataError(f"{name} must be a finite number, got {value!r}")
    if low is not None and (value < low or (strict and value == low)):
        raise DataError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")


def check_reals(
    name: str, value, size: int | None = None, low: float | None = None, strict: bool = False
) -> None:
    """``check_real`` on every entry of a flat sequence, of ``size`` entries if given."""
    flat = isinstance(value, (tuple, list)) or (isinstance(value, np.ndarray) and value.ndim == 1)
    if not flat or (size is not None and len(value) != size):
        want = "a list of numbers" if size is None else f"a list of {size} numbers"
        raise DataError(f"{name} must be {want}, got {value!r}")
    for i, entry in enumerate(value):
        check_real(f"{name}[{i}]", entry, low, strict)


def check_shape(name: str, value: np.ndarray, shape: tuple) -> None:
    """Raise DataError unless ``value`` has ``shape``; a str entry names a free length."""
    got = np.shape(value)
    if len(got) != len(shape) or any(
        not isinstance(want, str) and have != want for have, want in zip(got, shape)
    ):
        want = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise DataError(f"{name} has shape {got}, expected ({want})")

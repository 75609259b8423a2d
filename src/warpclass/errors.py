"""Exception types shared across the package."""


class DataError(ValueError):
    """Input data or configuration failed validation."""


class NumericalError(RuntimeError):
    """A numerical routine could not complete (factorization, optimizer)."""


def check_format_version(payload: dict, expected: int, what: str) -> None:
    """Raise DataError unless ``payload`` carries ``format_version == expected``."""
    if "format_version" not in payload:
        raise DataError(f"{what} has no format_version; expected {expected}")
    found = payload["format_version"]
    if found != expected:
        raise DataError(f"{what} has format_version {found!r}; expected {expected}")

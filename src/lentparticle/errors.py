"""Exception types, and the kind check of configuration values."""

import numbers


class ConfigurationError(ValueError):
    """Invalid grid, kernel order above the configured maximum, or bad config."""


class DimensionMismatchError(ValueError):
    """Operands live on different time grids."""


class DomainError(ValueError):
    """A numeric argument lies outside its admissible range."""


class InvalidKernelError(ValueError):
    """Kernel factor count does not match its declared order."""


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def require_kind(name: str, value, kind: type) -> None:
    """Raise ConfigurationError unless value is of kind int, float, str or dict.

    An int is a float, and a bool is neither.
    """
    abstract = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if isinstance(value, bool) or not isinstance(value, abstract):
        raise ConfigurationError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")

"""The package's one exception, and the kind check of configuration values."""

import math
import numbers


class ConfigurationError(ValueError):
    """Bad input: a config, parameter or argument of the wrong kind or outside its range."""


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def require_kind(name: str, value, kind: type) -> None:
    """Raise ConfigurationError unless value is of kind int, float, str or dict, and a
    number (kind float) is finite: not NaN, not ±inf, and not an int no float can hold.

    An int is a float, and a bool is neither.
    """
    abstract = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if isinstance(value, bool) or not isinstance(value, abstract):
        raise ConfigurationError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ConfigurationError(f"{name} must be finite, got {value}")

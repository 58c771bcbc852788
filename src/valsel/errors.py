"""Error types shared across the toolkit, and the one rule for each kind of knob.

The command line maps DataError to exit code 1 and ConfigError to exit
code 2, so anything raised for malformed input files or incompatible
datasets must be a DataError, and anything raised for bad parameter
values must be a ConfigError. A knob's ConfigError is built by the rule of
its kind: check_count (an integer), check_number (a number in an interval),
check_choice (one of a set), check_flag (a bool) and check_names (names).
"""


class DataError(ValueError):
    """Malformed or incompatible data: parse failures, schema mismatches."""


class ConfigError(ValueError):
    """Invalid configuration: out-of-range or unknown parameter values."""


class UnsupportedFeatureError(DataError):
    """Input uses a file construct this toolkit deliberately does not read."""


def check_count(name: str, value, least: int | None = None, most: int | None = None) -> None:
    """Raise ConfigError unless value is an int, and not a bool, from least to most."""
    if type(value) is not int:  # a bool is an int too, and not a count
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ConfigError(f"{name} must be <= {most}, got {value}")


def check_number(name: str, value, lo, hi, ends: str) -> None:
    """Raise ConfigError unless value is an int or float, and not a bool, from lo
    to hi, each end open or closed as ends says: "(]" is lo < value <= hi."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not (lo < value < hi or value == lo and ends[0] == "[" or value == hi and ends[1] == "]"):
        raise ConfigError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value}")


def check_choice(what: str, value, choices) -> None:
    """Raise ConfigError unless value is a str among choices."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"unknown {what} {value!r}")


def check_flag(name: str, value) -> None:
    """Raise ConfigError unless value is True or False."""
    if type(value) is not bool:
        raise ConfigError(f"{name} must be True or False, got {value!r}")


def check_names(name: str, value) -> tuple:
    """value as a tuple; ConfigError for a str, which would be one name a character."""
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ConfigError(f"{name} must be a list of names, got {value!r}")
    return tuple(value)

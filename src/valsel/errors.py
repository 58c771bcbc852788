"""Error types shared across the toolkit.

The command line maps DataError to exit code 1 and ConfigError to exit
code 2, so anything raised for malformed input files or incompatible
datasets must be a DataError, and anything raised for bad parameter
values must be a ConfigError. check_count is the one rule for integer
knobs.
"""


class DataError(ValueError):
    """Malformed or incompatible data: parse failures, schema mismatches."""


class ConfigError(ValueError):
    """Invalid configuration: out-of-range or unknown parameter values."""


class UnsupportedFeatureError(DataError):
    """Input uses a file construct this toolkit deliberately does not read."""


def check_count(name: str, value, least: int) -> None:
    """Raise ConfigError unless value is an int, and not a bool, of at least least."""
    if type(value) is not int:  # a bool is an int too, and not a count
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")

"""Exception types that map onto the command-line exit codes, and the one
type rule of config values.

ConfigError and DataFormatError indicate bad input (exit code 2); SolverError
indicates a numerical failure at runtime (exit code 1). A config value of the
wrong type (see check_value) or out of range is a ConfigError, also a ValueError.
"""

import dataclasses
import math
import sys
import typing

import numpy as np


class OtzslError(Exception):
    """Base class for package-specific failures."""


class ConfigError(OtzslError, ValueError):
    """Invalid or inconsistent configuration."""


class DataFormatError(OtzslError):
    """Malformed dataset file or directory."""


class SolverError(OtzslError):
    """Optimal-transport solve failed (non-finite values, broken marginals)."""


# Each numeric kind's types, numpy scalars among them; check_value turns a bool away.
_NUMBERS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def check_value(what: str, value, kind: type, choices: tuple = (), shown=None):
    """`value`, or ConfigError naming `what` and showing `shown` (else the
    value's repr): an int is an int or a numpy integer, never a bool; a float
    is an int or a float, numpy ones too, and finite; a value of another kind,
    a nested config among them, is an instance of it; given choices, it is
    one of them."""
    shown = repr(value) if shown is None else shown
    if isinstance(value, bool) or not isinstance(value, _NUMBERS.get(kind, kind)):
        raise ConfigError(f"{what} must be of type {kind.__name__}, got {shown}")
    # math.isfinite cannot take an int past the float range, which is no finite float
    if kind is float and not (abs(value) <= sys.float_info.max if isinstance(value, int)
                              else math.isfinite(value)):
        raise ConfigError(f"{what} must be a finite number, got {shown}")
    if choices and value not in choices:
        raise ConfigError(f"{what} must be one of {choices}, got {value!r}")
    return value


def check_fields(config) -> None:
    """check_value on each field of config dataclass `config`, its kind the
    type of its default; a None default allows None, or else the first type
    of the field's annotation. A __post_init__ calls this, then checks ranges."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.default is not None:
            check_value(field.name, value, type(field.default))
        elif value is not None:
            hint = typing.get_type_hints(type(config))[field.name]
            check_value(field.name, value, typing.get_args(hint)[0])

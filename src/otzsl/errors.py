"""Exception types that map onto the command-line exit codes, and the one
rule of config values: a type, and choices or bounds.

ConfigError and DataFormatError indicate bad input (exit code 2); SolverError
indicates a numerical failure at runtime (exit code 1). A config value that
breaks its rule (see check_value; a config field declares it with knob) is a
ConfigError, also a ValueError.
"""

import dataclasses
import math
import sys

import numpy as np


class OtzslError(Exception):
    """Base class for package-specific failures."""


class ConfigError(OtzslError, ValueError):
    """Invalid or inconsistent configuration."""


class DataFormatError(OtzslError):
    """Malformed dataset file or directory."""


class SolverError(OtzslError):
    """Optimal-transport solve failed (non-finite values, broken marginals)."""


# An int stands for a float; check_value turns a bool away. A numpy scalar is
# checked as its Python number, so a longdouble, which has none, is no float.
_NUMBERS = {float: (int, float)}


def knob(default, **rule):
    """A config dataclass field or CLI key table entry: its default (a type
    for a null default) and its rule beside the type, the choices or bounds
    of check_value (choices=, at_least=, above=, at_most=), which
    check_fields applies; a CLI key's required= names the input it needs."""
    return dataclasses.field(default=default, metadata=rule)


def check_value(what: str, value, kind: type, choices: tuple = (), shown=None, *,
                at_least=None, above=None, at_most=None):
    """`value`, a numpy scalar as its Python number, or ConfigError naming
    `what` and showing `shown` (else the value's repr): an int is an int or
    a numpy integer, never a bool; a float is an int or a float, numpy ones
    too, and finite; a value of another kind (EvalConfig's nested
    ClassifierConfig) is an instance of it; given choices, it is one of
    them; given bounds, it is at least `at_least`, greater than `above` and
    at most `at_most`."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, bool) or not isinstance(value, _NUMBERS.get(kind, kind)):
        rule = f"of type {kind.__name__}"
    # math.isfinite cannot take an int past the float range, which is no finite float
    elif kind is float and not (abs(value) <= sys.float_info.max if isinstance(value, int)
                                else math.isfinite(value)):
        rule = "a finite number"
    elif choices and value not in choices:
        raise ConfigError(f"{what} must be one of {choices}, got {value!r}")
    elif ((at_least is not None and value < at_least) or (above is not None and value <= above)
          or (at_most is not None and value > at_most)):
        rule = " and ".join(f"{words} {bound}" for words, bound in (
            ("at least", at_least), ("greater than", above), ("at most", at_most))
            if bound is not None)
    else:
        return value
    raise ConfigError(f"{what} must be {rule}, got {repr(value) if shown is None else shown}")


def check_fields(config) -> None:
    """check_value on each field of config dataclass `config` by the type of
    its default and its knob's rule; the field keeps what check_value
    returns. Each config dataclass's __post_init__ is this function."""
    for field in dataclasses.fields(config):
        object.__setattr__(config, field.name, check_value(
            field.name, getattr(config, field.name), type(field.default), **field.metadata))

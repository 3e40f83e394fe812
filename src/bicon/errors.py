"""Exception types shared across the library, and the type check of
config dataclasses.

The CLI maps these onto exit codes: config/parse problems exit 2,
numerical aborts exit 3.
"""

from dataclasses import fields
from numbers import Integral, Real


class DimensionError(ValueError):
    """Inputs have incompatible or invalid shapes."""


class DomainError(ValueError):
    """Inputs are well shaped but violate a value constraint."""


class ParseError(ValueError):
    """A dataset or checkpoint file could not be parsed."""


class ConfigError(ValueError):
    """A run configuration is invalid."""


class NumericalError(RuntimeError):
    """A computation produced non-finite or degenerate values."""

    def __init__(self, message, step=None, divergence=None, row=None):
        super().__init__(message)
        self.step = step
        self.divergence = divergence
        self.row = row


class DegenerateRowError(NumericalError):
    """A transition-matrix row has no mass left to normalize."""


_FIELD_TYPES = {"int": (Integral, "an integer"), "float": (Real, "a number"), "str": (str, "a string")}


def check_field_types(config, prefix=""):
    """Raise ConfigError unless every field of a config dataclass holds its
    annotated type: int fields take integers but not bools, float fields
    integers or floats, str fields strings, and `T | None` fields also
    None. Integers, in int and float fields alike, must lie in
    [-2**63, 2**63), where numpy takes them as int64 and float() cannot
    overflow. The annotations must be strings (`from __future__ import
    annotations`). prefix is prepended to field names in the message."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        cls, noun = _FIELD_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, cls):
            raise ConfigError(f"{prefix}{f.name} must be {noun}, got {value!r}")
        if isinstance(value, Integral) and not -2**63 <= value < 2**63:
            raise ConfigError(f"{prefix}{f.name} must lie in [-2**63, 2**63), got an integer of {value.bit_length()} bits")

"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import typing


class ConfigError(ValueError):
    """Invalid configuration value, flag, or hyperparameter."""


class DataError(ValueError):
    """Problem with input data: missing files, malformed content, bad splits."""


class ShapeError(DataError):
    """Array dimensions do not line up."""


class InsufficientDataError(DataError):
    """An operation needs more samples than it was given."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class TrainingDiverged(NumericError):
    """Loss became non-finite during training.

    Carries the epoch/batch where divergence was detected and the history
    collected up to that point.
    """

    def __init__(self, epoch: int, batch_index: int, history=None):
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch_index}: non-finite loss"
        )
        self.epoch = epoch
        self.batch_index = batch_index
        self.history = history


def load_json_object(path, error: type[Exception]) -> dict:
    """The JSON object in the file at path; invalid JSON or another value
    raises error, the class whose exit code the CLI gives that file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path} is not a JSON object")
    return doc


def _matches(value, hint) -> bool:
    """Whether value has the declared type hint. An int counts as a float,
    and a bool counts as neither."""
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, numbers.Real)
    if hint is int:
        return isinstance(value, numbers.Integral)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:  # tuple[X, ...]
        return isinstance(value, tuple) and all(_matches(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _matches(k, args[0]) and _matches(v, args[1]) for k, v in value.items()
        )
    if args:  # a union such as int | None
        return any(_matches(value, arg) for arg in args)
    return isinstance(value, hint)


def check_finite(cfg) -> None:
    """Raise ConfigError if a field of the dataclass cfg holds a NaN or
    infinite float, alone or in a tuple."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


@functools.cache
def _type_hints(cls) -> dict:
    """The declared type of each field of cls, resolved once per class:
    resolving evaluates every annotation string."""
    return typing.get_type_hints(cls)


def config_from_dict(cls, doc, path: str, **built):
    """cls(**doc, **built) for a config dataclass, whose construction checks
    the values. doc must be an object whose keys name fields of cls other
    than those in built, each with a value of the field's declared type;
    anything else raises ConfigError, as does a value that construction
    refuses, and every message names the path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object, got {doc!r}")
    hints = _type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)} - set(built)
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"{path}: unknown fields {sorted(extra)}")
    for name, value in doc.items():
        hint = hints[name]
        if not _matches(value, hint):
            expect = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{path}.{name} must be {expect}, got {value!r}")
    try:
        return cls(**doc, **built)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

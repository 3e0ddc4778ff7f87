"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""

from __future__ import annotations

import json


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

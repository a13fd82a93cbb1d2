"""Deterministic binary container: a JSON metadata block plus named arrays.

Layout (all integers little-endian):

    magic   8 bytes   b"LATNBIN1"
    u32     metadata length in bytes
    bytes   metadata: canonical JSON (sorted keys, compact separators), UTF-8
    u32     number of arrays
    per array:
        u16     name length, then the UTF-8 name
        u8      dtype code: 0 = float64, 1 = int64
        u32     rows
        u32     cols
        bytes   rows*cols values, little-endian, row-major

Identical inputs produce identical bytes, which is what the reproducibility
contract for checkpoints and datasets rests on.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import struct
import sys
import typing
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import ConfigError

MAGIC = b"LATNBIN1"

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8")}
_CODES = {np.dtype("float64"): 0, np.dtype("int64"): 1}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_csv(path, comment: str, rows: Iterable[Iterable]) -> None:
    """Every CSV artifact: a ``# comment`` line, then one comma-joined line per
    row (a table's header is its first row). Floats keep 17 significant digits,
    so they read back exactly; any other cell is written with ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_container(path, meta: dict, arrays: Iterable[tuple[str, np.ndarray]]) -> None:
    """Write what ``read_container`` reads back. An array it would refuse is a
    ConfigError before the file is opened, so a refused write leaves no file."""
    arrays = list(arrays)
    meta_bytes = canonical_json(meta).encode("utf-8")
    names = [name for name, _ in arrays]
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"{path}: duplicate array name(s): {repeated}")
    out = [MAGIC, struct.pack("<I", len(meta_bytes)), meta_bytes, struct.pack("<I", len(arrays))]
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.ndim != 2:
            raise ConfigError(f"container arrays are 2-D, {name!r} has shape {arr.shape}")
        code = _CODES.get(arr.dtype)
        if code is None:
            raise ConfigError(f"unsupported dtype {arr.dtype} for array {name!r}")
        if code == 0 and not np.isfinite(arr).all():
            raise ConfigError(f"{path}: array {name!r} holds a non-finite value")
        name_bytes = name.encode("utf-8")
        out += [struct.pack("<H", len(name_bytes)), name_bytes,
                struct.pack("<BII", code, *arr.shape), arr.astype(_DTYPES[code]).tobytes()]
    with open(path, "wb") as fh:
        fh.writelines(out)


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a container; a short read, bad text, a repeated array name, a
    non-finite float, or a trailing byte is a ConfigError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:len(MAGIC)] != MAGIC:
        raise ConfigError(f"{path}: not a longattn container (bad magic)")
    pos = len(MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise ConfigError(f"{path}: truncated container: {what} needs {n} bytes at {pos}")
        pos += n
        return raw[pos - n:pos]

    arrays: dict[str, np.ndarray] = {}
    try:
        (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
        meta = json.loads(take(meta_len, "metadata").decode("utf-8"))
        (n_arrays,) = struct.unpack("<I", take(4, "array count"))
        for i in range(n_arrays):
            (name_len,) = struct.unpack("<H", take(2, f"name length of array {i}"))
            name = take(name_len, f"name of array {i}").decode("utf-8")
            code, rows, cols = struct.unpack("<BII", take(9, f"header of {name!r}"))
            if code not in _DTYPES:
                raise ConfigError(f"{path}: unknown dtype code {code} for {name!r}")
            dtype = _DTYPES[code]
            if name in arrays:
                raise ConfigError(f"{path}: duplicate array name {name!r}")
            values = take(rows * cols * dtype.itemsize, f"values of {name!r}")
            arrays[name] = np.frombuffer(values, dtype=dtype).reshape(rows, cols).copy()
            if code == 0 and not np.isfinite(arrays[name]).all():
                raise ConfigError(f"{path}: array {name!r} holds a non-finite value")
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, JSON nested too deep
        raise ConfigError(f"{path}: corrupt container: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: container metadata is not a JSON object")
    if pos != len(raw):
        raise ConfigError(f"{path}: {len(raw) - pos} trailing byte(s) after the last array")
    return meta, arrays


_field_types = functools.cache(typing.get_type_hints)  # resolved once per class


def _typed(kind, value):
    """``value`` as a field annotated ``kind`` stores it; TypeError when it does not fit."""
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        return None if value is None else _typed(args[0], value)
    if typing.get_origin(kind) is tuple:
        if isinstance(value, (list, tuple)):
            kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                return tuple(_typed(k, v) for k, v in zip(kinds, value))
    elif issubclass(kind, Enum):
        return kind.parse(value)
    elif isinstance(value, bool):
        if kind is bool:
            return value
    elif kind is int and isinstance(value, int):
        return value
    elif kind is float and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
        return value  # an int stays an int, so its canonical JSON does not change
    raise TypeError


def bounded(default, least, most=math.inf):
    """A dataclass field whose value, or each entry of a tuple value, ``check_types``
    keeps in [least, most]; ``None`` is not checked. A size's ``most`` makes a
    mistyped huge value a ConfigError, not a huge job."""
    return dataclasses.field(default=default, metadata={"range": (least, most)})


def check_types(section) -> None:
    """Check each field of the dataclass ``section`` against its annotation, in place:
    an int is not a bool, a float is finite, a list becomes a tuple of the declared
    length, and an enum goes through ``parse``. A ``bounded`` field's value must lie
    in its range. A misfit is a ConfigError."""
    hints = _field_types(type(section))
    for f in dataclasses.fields(section):
        raw = getattr(section, f.name)
        try:
            value = _typed(hints[f.name], raw)
        except TypeError:
            raise ConfigError(f"{f.name} must be {f.type}, got {raw!r:.60}") from None
        if "range" in f.metadata and value is not None:
            least, most = f.metadata["range"]
            entries = value if isinstance(value, tuple) else (value,)
            if not all(least <= v <= most for v in entries):
                raise ConfigError(f"{f.name} must be in [{least}, {most}], got {raw!r:.60}")
        setattr(section, f.name, value)


def build(cls, raw, where: str):
    """The dataclass ``cls`` from the JSON object ``raw``; errors start with ``where``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: not a JSON object")
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    try:
        return cls(**raw)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None

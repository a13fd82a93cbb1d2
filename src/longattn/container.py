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
import json
import struct
from typing import Iterable

import numpy as np

from .errors import ConfigError

MAGIC = b"LATNBIN1"

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8")}
_CODES = {np.dtype("float64"): 0, np.dtype("int64"): 1}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_container(path, meta: dict, arrays: Iterable[tuple[str, np.ndarray]]) -> None:
    arrays = list(arrays)
    meta_bytes = canonical_json(meta).encode("utf-8")
    names = [name for name, _ in arrays]
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"{path}: duplicate array name(s): {repeated}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            arr = np.ascontiguousarray(arr)
            if arr.ndim != 2:
                raise ConfigError(f"container arrays are 2-D, {name!r} has shape {arr.shape}")
            code = _CODES.get(arr.dtype)
            if code is None:
                raise ConfigError(f"unsupported dtype {arr.dtype} for array {name!r}")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<BII", code, arr.shape[0], arr.shape[1]))
            fh.write(arr.astype(_DTYPES[code], copy=False).tobytes())


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a container; a short read, bad text, a repeated array name, or a
    trailing byte is a ConfigError."""
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
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, JSON nested too deep
        raise ConfigError(f"{path}: corrupt container: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: container metadata is not a JSON object")
    if pos != len(raw):
        raise ConfigError(f"{path}: {len(raw) - pos} trailing byte(s) after the last array")
    return meta, arrays


def metadata_section(path, meta: dict, key: str, cls):
    """Build the dataclass ``cls`` from the JSON object ``meta[key]``.

    A missing or non-object section, an unknown key, or a value the
    dataclass rejects is a ConfigError.
    """
    section = meta.get(key)
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: metadata {key!r} is not a JSON object")
    unknown = sorted(set(section) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{path}: unknown {key} keys in metadata: {unknown}")
    try:
        return cls.from_dict(section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad {key} metadata: {exc}") from None

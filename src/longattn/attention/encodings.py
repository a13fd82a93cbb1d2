"""Positional encodings, the frame offsets of soft_mask's window, and frame indexing.

Array-level building blocks; the trainable attention paths in ``variants``
reuse the same formulas through autodiff ops.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

DEFAULT_ALPHA = 100.0


_tables: dict[int, np.ndarray] = {}  # dim -> rows of offsets -(n-1)..(n-1), n the longest L yet


def sinusoid_encoding(length: int, dim: int) -> np.ndarray:
    """Absolute sinusoid encoding: row i holds sin/cos of i at geometric frequencies.

    Column 2k is sin(i / 10000^(2k/dim)), column 2k+1 the matching cos.
    The array is a view of a shared table, so it is read-only.
    """
    return signed_sinusoid_table(length, dim)[length - 1:]


def signed_sinusoid_table(length: int, dim: int) -> np.ndarray:
    """Sinusoid rows for every signed offset -(L-1)..(L-1); row index = offset + L - 1.

    The array is a view of the one table kept for ``dim``, grown only when ``length``
    is the longest yet, so it is read-only.
    """
    table = _tables.get(dim)
    if table is None or len(table) < 2 * length - 1:
        table = _tables[dim] = _sinusoid_at(np.arange(-(length - 1), length, dtype=np.float64), dim)
    zero = (len(table) - 1) // 2
    return table[zero - (length - 1):zero + length]


def _sinusoid_at(positions: np.ndarray, dim: int) -> np.ndarray:
    if dim % 2 != 0:
        raise ConfigError(f"sinusoid encoding needs an even dimension, got {dim}")
    k = np.arange(0, dim, 2, dtype=np.float64)
    inv_freq = 10000.0 ** (-k / dim)
    args = positions[:, None] * inv_freq[None, :]
    out = np.empty((positions.shape[0], dim))
    out[:, 0::2] = np.sin(args)
    out[:, 1::2] = np.cos(args)
    out.flags.writeable = False
    return out


def squared_offset_matrix(length: int, rows: slice = slice(None)) -> np.ndarray:
    """(i - j)^2 for query frames i in ``rows`` and all key frames j."""
    idx = np.arange(length, dtype=np.float64)
    diff = idx[rows, None] - idx[None, :]
    return diff * diff


def frame_index_column(length: int, start_index: int, alpha: float) -> np.ndarray:
    """Scaled frame indices (start_index + i) / alpha as an Lx1 column."""
    if not 0 < alpha < np.inf:  # NaN fails too
        raise ConfigError(f"frame-index scale alpha must be positive and finite, got {alpha}")
    return ((np.arange(length, dtype=np.float64) + start_index) / alpha).reshape(-1, 1)

"""Array-level helpers with explicit shape contracts.

These functions operate on plain float64 ndarrays; ``softmax_rows`` is the
forward definition the autodiff op in ``tensor`` builds on. No broadcasting:
mismatched shapes raise ``DimensionError``.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError


def as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max subtraction; each row sums to 1."""
    m = as_matrix(m)
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)

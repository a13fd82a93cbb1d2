"""Array-level helpers with explicit shape contracts.

These functions operate on plain float64 ndarrays; ``softmax_rows`` is the
forward definition the autodiff op in ``tensor`` builds on. No broadcasting:
mismatched shapes raise ``DimensionError``.

Attention works through blocks of query rows from ``row_chunks``, each of
about ``CHUNK_ELEMENTS`` elements, so the elementwise passes of
``softmax_rows`` over a block read cache rather than memory. That is the one
level of blocking: ``softmax_rows`` itself is a whole-matrix expression.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError


def as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


# 2**16 float64 elements are 512 KB: a chunk, its one-byte mask and its row
# vectors stay in a core's 1-2 MB L2 cache between the passes over it.
CHUNK_ELEMENTS = 1 << 16

# float64 exp(x) is exactly +0.0 for every x below this; it rounds to the
# smallest subnormal only above ln(2**-1075) = -745.13. numpy's vector exp
# takes a slow path on such inputs, so they are not passed to it.
EXP_UNDERFLOW = -746.0


def row_chunks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices of about ``CHUNK_ELEMENTS`` elements each (at least one row)."""
    step = max(1, CHUNK_ELEMENTS // max(1, n_cols))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max subtraction; each row sums to 1.

    The input is not modified. Shifted scores below ``EXP_UNDERFLOW`` become
    +0.0 without an ``exp`` call.
    """
    m = as_matrix(m)
    out = np.empty(m.shape)
    if m.size == 0:
        return out
    np.subtract(m, m.max(axis=1, keepdims=True), out=out)
    if out.min() < EXP_UNDERFLOW:
        shifted = out.copy()
        keep = np.less(shifted, EXP_UNDERFLOW)
        np.logical_not(keep, out=keep)  # NaN stays in, so it propagates
        out.fill(0.0)
        np.exp(shifted, out=out, where=keep)
    else:
        np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out

"""Array-level helpers with explicit shape contracts.

These functions operate on plain float64 ndarrays; ``softmax_rows`` is the
forward definition the autodiff op in ``tensor`` builds on. No broadcasting:
mismatched shapes raise ``DimensionError``.

The L x L kernels stream through row chunks of about ``CHUNK_ELEMENTS``
elements (``row_chunks``), so each elementwise pass reads cache rather than
memory, and the output is their only full-size allocation. Per element the
arithmetic is the same as one whole-matrix pass, so results are bit-identical.
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

    Computed chunk by chunk in the output buffer; the input is not modified.
    Shifted scores below ``EXP_UNDERFLOW`` become +0.0 without an ``exp`` call.
    """
    m = as_matrix(m)
    out = np.empty(m.shape)
    if 0 < m.size <= CHUNK_ELEMENTS:  # one chunk: skip the slicing
        _softmax_chunk(m, out)
    else:
        for rows in row_chunks(*m.shape):
            _softmax_chunk(m[rows], out[rows])
    return out


def _softmax_chunk(src: np.ndarray, dst: np.ndarray) -> None:
    np.subtract(src, src.max(axis=1, keepdims=True), out=dst)
    if dst.min() < EXP_UNDERFLOW:
        shifted = dst.copy()
        keep = np.less(shifted, EXP_UNDERFLOW)
        np.logical_not(keep, out=keep)  # NaN stays in, so it propagates
        dst.fill(0.0)
        np.exp(shifted, out=dst, where=keep)
    else:
        np.exp(dst, out=dst)
    dst /= dst.sum(axis=1, keepdims=True)

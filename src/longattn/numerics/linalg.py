"""Array-level helpers with explicit shape contracts.

These functions operate on plain float64 ndarrays; ``softmax_rows`` is the
forward definition the autodiff op in ``tensor`` builds on. No broadcasting:
mismatched shapes raise ``DimensionError``.

Attention works through the row blocks ``row_blocks`` plans, each of at most
``CHUNK_ELEMENTS`` scores, so the elementwise passes of ``softmax_rows`` over
a block read cache rather than memory. That is the one level of blocking:
``softmax_rows`` itself is a whole-matrix expression.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionError


def as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


# 2**16 float64 elements are 512 KB: a block, its one-byte mask and its row
# vectors stay in a core's 1-2 MB L2 cache between the passes over it.
CHUNK_ELEMENTS = 1 << 16

# float64 exp(x) is normal only from ln(2**-1022) = -708.396 up; below, it is
# subnormal, then +0.0 below -745.13. A subnormal costs numpy's vector exp
# about 100x, and a BLAS product several times, so a shifted score below this
# gets weight +0.0 without an exp call. Each row's sum holds exp(0) = 1, which
# such terms cannot move, so every kept weight is bit for bit what it was.
EXP_NORMAL_MIN = float(np.log(np.finfo(np.float64).tiny))


def row_blocks(length: int, half: int | None) -> list[tuple[slice, slice]]:
    """Attention's row blocks over ``length`` = L frames, each ``(rows, keys)``, in row order.
    With no band (``half`` None), ``CHUNK_ELEMENTS // L`` rows over every key; with band
    W = ``half``, the most rows r whose r x min(L, r + 2W) scores fit in ``CHUNK_ELEMENTS``,
    over its rows and W frames on each side within [0, L). Every block has at least one row."""
    step = max(1, CHUNK_ELEMENTS // max(1, length))
    if half is not None:  # r x (r + 2W) <= C  <=>  (r + W)^2 <= C + W^2
        step = max(step, math.isqrt(CHUNK_ELEMENTS + half * half) - half)
    return [(slice(s, min(s + step, length)), slice(None) if half is None else
             slice(max(0, s - half), min(length, s + step + half))) for s in range(0, length, step)]


def softmax_rows(m, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max subtraction into ``out``, new by default or a view
    of all of ``m`` to normalise it in place; each row sums to 1. Shifted scores
    below ``EXP_NORMAL_MIN``, whose weights would be subnormal or zero, become
    +0.0 without an ``exp`` call."""
    m = as_matrix(m)
    out = np.empty(m.shape) if out is None else out
    if m.size == 0:
        return out
    np.subtract(m, m.max(axis=1, keepdims=True), out=out)
    if out.min() < EXP_NORMAL_MIN:
        drop = out < EXP_NORMAL_MIN  # NaN is kept, so it propagates
        np.exp(out, out=out, where=~drop)
        np.copyto(out, 0.0, where=drop)
    else:
        np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out

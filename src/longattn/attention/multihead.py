"""Per-head attention weights and the multi-head wrapper that applies them to
per-head value projections. ``attention_weights`` is the one place where a
variant's scores become row-stochastic weights: their row softmax."""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from ..errors import InternalError
from ..numerics.linalg import row_chunks
from ..numerics.tensor import (
    Tensor,
    affine,
    append_const_col,
    concat,
    matmul,
    matmul_t,
    slice_rows,
    softmax_rows,
    tape_is_on,
)
from .encodings import DEFAULT_ALPHA
from .params import VARIANTS, AttentionVariant, Head, Projection


def attention_weights(
    projected: Projection,
    head: Head,
    variant: AttentionVariant,
    *,
    rows: slice = slice(None),
    keys: slice = slice(None),
) -> Tensor:
    """Row-stochastic attention of the query frames ``rows`` over the key frames
    ``keys`` (all of each by default) for one head under ``variant``, from the
    head's projection stage; only one with a band takes a narrower ``keys``. Every
    score op makes a new block and never reads it back, so the softmax takes it over."""
    if projected.half is None and keys != slice(None):
        raise InternalError(f"{variant.value} attention without a band reads every key, got {keys}")
    return softmax_rows(VARIANTS[variant].scores(projected.operands, head, rows, keys), fresh=True)


def key_window(rows: slice, half: int, length: int) -> slice:
    """The keys within ``half`` frames of one of the query frames ``rows``, clipped
    to the ``length`` frames."""
    return slice(max(0, rows.start - half), min(length, rows.stop + half))


@functools.cache
def row_block_pool() -> ThreadPoolExecutor | None:
    """The process's pool of one thread per CPU it may run on, started on first
    use; None on one CPU. A forked child starts a pool of its own."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return ThreadPoolExecutor(cpus, thread_name_prefix="longattn-rows") if cpus > 1 else None


if hasattr(os, "register_at_fork"):  # the parent's workers do not exist in a child
    os.register_at_fork(after_in_child=row_block_pool.cache_clear)


def multi_head_attention(
    x: Tensor,
    heads: list[Head],
    w_o: Tensor,
    variant: AttentionVariant,
    alpha: float = DEFAULT_ALPHA,
    observe: Callable[[int, slice, slice, np.ndarray], None] | None = None,
) -> Tensor:
    """Concatenate per-head attention outputs and apply the output linear map.

    Each head is projected once; then each block of query rows from
    ``row_chunks`` is scored against its keys, normalised and applied to the
    values of those keys, and the block outputs are stacked. So no forward
    holds an L x L matrix once L passes 256 (shorter inputs are one block).

    The keys of a block are every frame, or the block's ``key_window`` when
    the head's projection has a band W (every frame again when the block is
    the whole input). Every weight outside that window is exactly 0.0, so the
    output is the one-block output up to the rounding of shorter sums. A
    banded head sizes its blocks for 2W + 128 keys, not for all L.

    With no tape and no observer, a head's blocks run on ``row_block_pool``,
    one head at a time; each block computes the same bytes on any thread,
    and only its output outlives it. Otherwise they run in row order on the
    calling thread, and ``observe`` is called as ``observe(head, rows, keys,
    weights)`` for each block, in row order, with the block's weights over the
    keys ``keys``; it must not modify them.

    Values are always projected from the raw input frames; frame indexing,
    from frame 0, only ever enters the query/key projections.
    """
    xa = append_const_col(x)
    length = x.data.shape[0]
    outputs = []
    for index, head in enumerate(heads):
        projected = VARIANTS[variant].projections(x, head, alpha, start_index=0)
        values = matmul_t(xa, head["w_v"])
        half = projected.half

        def block(rows: slice) -> Tensor:
            keys = key_window(rows, half, length) if half else slice(None)
            attn = attention_weights(projected, head, variant, rows=rows, keys=keys)
            if observe is not None:
                observe(index, rows, keys, attn.data)
            return matmul(attn, slice_rows(values, keys))

        blocks = row_chunks(length, min(length, 2 * half + 128) if half else length)
        pool = None if tape_is_on() or observe is not None or len(blocks) < 2 else row_block_pool()
        parts = list(pool.map(block, blocks)) if pool else [block(rows) for rows in blocks]
        outputs.append(concat(parts, axis=0))
    return affine(concat(outputs, axis=1), w_o)

"""Per-head attention weights and the multi-head wrapper that applies them to
per-head value projections. ``attention_weights`` is the one place where a
variant's scores become row-stochastic weights: their row softmax."""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import copy_context
from typing import Callable

import numpy as np

from ..errors import InternalError
from ..numerics.linalg import row_blocks
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
    """Row-stochastic attention of the query frames ``rows`` over the key frames ``keys``
    (all of each by default; fewer only with a band) for one head under ``variant``. Every
    score op makes a new block and never reads it back, so the softmax takes it over."""
    if projected.half is None and keys != slice(None):
        raise InternalError(f"{variant.value} attention without a band reads every key, got {keys}")
    return softmax_rows(VARIANTS[variant].scores(projected.operands, head, rows, keys), fresh=True)


@functools.cache
def row_block_pool() -> ThreadPoolExecutor | None:
    """The process's pool of one thread per CPU it may run on, started on first
    use; None on one CPU. A forked child starts a pool of its own. Each task runs
    in a copy of its caller's context, so on its caller's tape state.

    The pool is the parallelism, so BLAS runs on one thread beside it: importing
    ``longattn`` sets that before numpy loads, unless the user set a count. A
    program that imports numpy before longattn must set it itself."""
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

    Each head is projected once; then each row block that ``row_blocks`` plans
    for the head's band is scored against its keys, normalised and applied to
    the values of those keys, and the block outputs are stacked. So no forward
    holds an L x L matrix once L passes 256. Every weight outside a block's
    keys is exactly 0.0, so the output is the one-block output up to the
    rounding of shorter sums.

    With no tape, a head's blocks run on ``row_block_pool``, one head at a
    time, each in its own copy of this context; each block computes the same
    bytes on any thread, and only its output outlives it. If one raises, the
    blocks not yet started are cancelled, and the call raises once the running
    ones have finished. Under a tape they run in row order on the calling
    thread, since the tape's order fixes backward's order of accumulation.

    ``observe(head, rows, keys, weights)`` is called once for each block with
    its weights over ``keys``, which it must not modify, where the block is
    scored: with no tape, on any thread, in any order and possibly at the same
    time as the head's other blocks, so it must be safe to run concurrently
    (for example, write only its block's rows); under a tape, in row order on
    the calling thread. All of a head's calls finish before the next head's.

    Values are always projected from the raw input frames; frame indexing,
    from frame 0, only ever enters the query/key projections.
    """
    xa = append_const_col(x)
    length = x.data.shape[0]
    outputs = []
    for index, head in enumerate(heads):
        projected = VARIANTS[variant].projections(x, head, alpha, start_index=0)
        values = matmul_t(xa, head["w_v"])

        def block(rows: slice, keys: slice) -> Tensor:
            attn = attention_weights(projected, head, variant, rows=rows, keys=keys)
            if observe is not None:
                observe(index, rows, keys, attn.data)
            return matmul(attn, slice_rows(values, keys))

        blocks = row_blocks(length, projected.half)
        pool = None if tape_is_on() or len(blocks) < 2 else row_block_pool()
        if pool is None:
            parts = [block(*b) for b in blocks]
        else:
            futures = [pool.submit(copy_context().run, block, *b) for b in blocks]
            try:
                parts = [f.result() for f in futures]
            except BaseException:
                wait([f for f in futures if not f.cancel()])
                raise
        outputs.append(concat(parts, axis=0))
    return affine(concat(outputs, axis=1), w_o)

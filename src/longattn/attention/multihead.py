"""Per-head attention weights and the multi-head wrapper that applies them to
per-head value projections."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..numerics.linalg import row_chunks
from ..numerics.tensor import (
    Tensor,
    affine,
    append_const_col,
    concat_cols,
    concat_rows,
    matmul,
    matmul_t,
)
from .encodings import DEFAULT_ALPHA
from .params import VARIANTS, AttentionParams, AttentionVariant
from .variants import _as_tensor


def attention_weights(
    x,
    params: AttentionParams,
    variant: AttentionVariant,
    alpha: float = DEFAULT_ALPHA,
    start_index: int = 0,
    *,
    rows: slice = slice(None),
    projected=None,
) -> Tensor:
    """Row-stochastic attention of the query frames ``rows`` (all by default)
    over every frame, for one head under the given variant.

    ``projected`` is the output of the variant's projection stage for ``x``;
    when given, it is used instead of projecting ``x`` again, and ``x``,
    ``alpha`` and ``start_index`` are not used.
    """
    spec = VARIANTS[variant]
    if projected is None:
        projected = spec.projections(_as_tensor(x), params, alpha, start_index)
    return spec.pair(projected, params, rows)


def multi_head_attention(
    x,
    heads: list[AttentionParams],
    w_o: Tensor,
    variant: AttentionVariant,
    alpha: float = DEFAULT_ALPHA,
    start_index: int = 0,
    observe: Callable[[int, slice, np.ndarray], None] | None = None,
) -> Tensor:
    """Concatenate per-head attention outputs and apply the output linear map.

    Each head is projected once; then each block of query rows from
    ``row_chunks`` is scored against every key, normalised and applied to the
    values, and the block outputs are stacked. So no forward holds an L x L
    matrix once L passes 256 (shorter inputs are one block). ``observe`` is
    called as ``observe(head, rows, weights)`` for each block, in row order,
    with the block's weights over every key; it must not modify them.

    Values are always projected from the raw input frames; frame indexing only
    ever enters the query/key pathway inside ``attention_weights``.
    """
    xt = _as_tensor(x)
    xa = append_const_col(xt)
    length = xt.data.shape[0]
    blocks = row_chunks(length, length)
    outputs = []
    for index, head in enumerate(heads):
        projected = VARIANTS[variant].projections(xt, head, alpha, start_index)
        values = matmul_t(xa, head.w_v)
        parts = []
        for rows in blocks:
            attn = attention_weights(xt, head, variant, rows=rows, projected=projected)
            if observe is not None:
                observe(index, rows, attn.data)
            parts.append(matmul(attn, values))
        outputs.append(concat_rows(parts))
    combined = outputs[0] if len(outputs) == 1 else concat_cols(outputs)
    return affine(combined, w_o)

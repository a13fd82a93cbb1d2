"""Per-head attention weights and the multi-head wrapper that applies them to
per-head value projections."""

from __future__ import annotations

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
    capture: list | None = None,
) -> Tensor:
    """Concatenate per-head attention outputs and apply the output linear map.

    Each head is projected once; then each block of query rows from
    ``row_chunks`` is scored against every key, normalised and applied to the
    values, and the block outputs are stacked. So no forward holds an L x L
    matrix once L passes 256 (shorter inputs are one block). ``capture``
    receives each head's full attention map, stacked from its blocks.

    Values are always projected from the raw input frames; frame indexing only
    ever enters the query/key pathway inside ``attention_weights``.
    """
    xt = _as_tensor(x)
    xa = append_const_col(xt)
    length = xt.data.shape[0]
    blocks = row_chunks(length, length)
    outputs = []
    for head in heads:
        projected = VARIANTS[variant].projections(xt, head, alpha, start_index)
        values = matmul_t(xa, head.w_v)
        parts, maps = [], []
        for rows in blocks:
            attn = attention_weights(xt, head, variant, alpha=alpha, start_index=start_index,
                                     rows=rows, projected=projected)
            if capture is not None:
                maps.append(attn.data)
            parts.append(matmul(attn, values))
        if capture is not None:
            capture.append(maps[0] if len(maps) == 1 else np.concatenate(maps))
        outputs.append(concat_rows(parts))
    combined = outputs[0] if len(outputs) == 1 else concat_cols(outputs)
    return affine(combined, w_o)

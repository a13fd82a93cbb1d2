"""Per-head attention weights and the multi-head wrapper that applies them to
per-head value projections."""

from __future__ import annotations

from ..numerics.tensor import Tensor, append_const_col, concat_cols, matmul, transpose
from .encodings import DEFAULT_ALPHA
from .params import VARIANTS, AttentionParams, AttentionVariant
from .variants import _as_tensor


def attention_weights(
    x,
    params: AttentionParams,
    variant: AttentionVariant,
    alpha: float = DEFAULT_ALPHA,
    start_index: int = 0,
) -> Tensor:
    """Row-stochastic attention matrix for one head under the given variant."""
    spec = VARIANTS[variant]
    return spec.pair(spec.projections(_as_tensor(x), params, alpha, start_index), params)


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

    Values are always projected from the raw input frames; frame indexing only
    ever enters the query/key pathway inside ``attention_weights``.
    """
    xt = _as_tensor(x)
    xa = append_const_col(xt)
    outputs = []
    for head in heads:
        attn = attention_weights(xt, head, variant, alpha=alpha, start_index=start_index)
        if capture is not None:
            capture.append(attn.data)
        values = matmul(xa, transpose(head.w_v))
        outputs.append(matmul(attn, values))
    combined = outputs[0] if len(outputs) == 1 else concat_cols(outputs)
    return matmul(append_const_col(combined), transpose(w_o))

"""Attention variant registry and per-head trainable parameters.

``VARIANTS`` holds one ``VariantSpec`` per variant: a new variant is one entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable

import numpy as np

from ..errors import ConfigError
from ..numerics.tensor import Tensor, affine, append_const_col, param
from .encodings import frame_index_column
from .variants import (
    Projection,
    dot_product_scores,
    gaussian_projection,
    pairwise_sqdist_scores,
    qk_projections,
    relative_projections,
    relative_terms,
)

# At initialization the frame-index feature of Gaussian attention is scaled so
# that the kernel penalty reaches 1/2 at this many frames of offset. Mirrors
# the soft-mask width initialization below; training reshapes it per head.
INDEX_WINDOW_INIT = 6.0

SOFT_MASK_SIGMA_INIT = 10.0


class AttentionVariant(str, Enum):
    STANDARD = "standard"
    SOFT_MASK = "soft_mask"
    RELATIVE_PE = "relative_pe"
    SHARED_QK = "shared_qk"
    GAUSSIAN = "gaussian"
    GAUSSIAN_FRAME_INDEX = "gaussian_frame_index"
    # Reproduces the known failure mode: frame indexing on top of attention
    # whose scores are not shift-invariant.
    STANDARD_FRAME_INDEX = "standard_frame_index"

    @classmethod
    def parse(cls, name: str) -> "AttentionVariant":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ConfigError(f"unknown attention variant {name!r}; one of: {valid}") from None


# One head's weights by name, in the order its variant draws them. Inputs to
# every linear map are augmented with a trailing constant 1, so each matrix
# carries its own bias column; soft_mask's ``log_sigma_mask`` keeps sigma > 0.
Head = dict[str, Tensor]


@dataclass(frozen=True)
class VariantSpec:
    """Everything one attention variant means: ``project(x, head, alpha)`` is the
    per-frame stage, ``scores(operands, head, rows, keys)`` the pre-softmax scores
    of the query rows ``rows`` against the key frames ``keys``, ``pair_elements(
    length, d_model, d_k)`` the closed-form element count of one head's scores
    and their softmax over all rows, and ``init_scores(rng, score_in, d_model,
    d_k, alpha)`` draws the score weights, whose names and order are the variant's."""

    project: Callable[[Tensor, Head, float], Projection]
    scores: Callable[[Any, Head, slice, slice], Tensor]
    pair_elements: Callable[[int, int, int], int]
    init_scores: Callable[..., Head]
    frame_indexed: bool = False
    default_abs_pe: bool = False

    def projections(self, x: Tensor, head: Head, alpha: float, start_index: int) -> Projection:
        """Per-frame stage: append the frame index if this variant uses it, then project."""
        if self.frame_indexed:
            x = append_const_col(x, frame_index_column(x.data.shape[0], start_index, alpha))
        return self.project(x, head, alpha)


def _init_qk(rng, score_in, d_model, d_k, alpha) -> Head:
    std = 1.0 / math.sqrt(score_in)
    return {"w_q": param(rng.normal(0.0, std, size=(d_k, score_in))),
            "w_k_x": param(rng.normal(0.0, std, size=(d_k, score_in)))}


def _init_shared(rng, score_in, d_model, d_k, alpha) -> Head:
    std = 1.0 / math.sqrt(score_in)
    return {"w_s": param(rng.normal(0.0, std, size=(d_k, score_in)))}


def _init_gaussian(rng, score_in, d_model, d_k, alpha) -> Head:
    std = 1.0 / math.sqrt(score_in)
    return {"w_s": param(rng.normal(0.0, std / d_k**0.25, size=(d_k, score_in)))}


def _init_gaussian_frame_index(rng, score_in, d_model, d_k, alpha) -> Head:
    scores = _init_gaussian(rng, score_in, d_model, d_k, alpha)
    # index feature sits between the model features and the bias column
    norm = alpha * d_k**0.25 / INDEX_WINDOW_INIT
    scores["w_s"].data[:, d_model] = norm / math.sqrt(d_k)
    return scores


_STANDARD = VariantSpec(
    project=lambda x, p, alpha: Projection(qk_projections(x, p["w_q"], p["w_k_x"])),
    scores=lambda qk, p, rows, keys: dot_product_scores(*qk, rows=rows),
    pair_elements=lambda n, d_model, d_k: n * n,  # scaled scores, then attention in place
    init_scores=_init_qk,
    default_abs_pe=True,
)
_GAUSSIAN = VariantSpec(
    project=lambda x, p, alpha: gaussian_projection(x, p["w_s"]),
    # sees only row differences, so it is shift-invariant
    scores=lambda ag, p, rows, keys: pairwise_sqdist_scores(*ag, rows, keys),
    pair_elements=lambda n, d_model, d_k: n * n,  # pairwise distances, then attention in place
    init_scores=_init_gaussian,
)

VARIANTS: dict[AttentionVariant, VariantSpec] = {
    AttentionVariant.STANDARD: _STANDARD,
    AttentionVariant.STANDARD_FRAME_INDEX: replace(_STANDARD, frame_indexed=True),
    AttentionVariant.SOFT_MASK: replace(
        _STANDARD,
        scores=lambda qk, p, rows, keys: dot_product_scores(*qk, rows, p["log_sigma_mask"]),
        init_scores=lambda *dims: {
            **_init_qk(*dims), "log_sigma_mask": param([[math.log(SOFT_MASK_SIGMA_INIT)]])},
    ),
    AttentionVariant.SHARED_QK: replace(
        _STANDARD,
        project=lambda x, p, alpha: Projection(affine(x, p["w_s"])),
        scores=lambda q, p, rows, keys: dot_product_scores(q, q, rows=rows),
        init_scores=_init_shared,
    ),
    AttentionVariant.GAUSSIAN: _GAUSSIAN,
    AttentionVariant.GAUSSIAN_FRAME_INDEX: replace(
        _GAUSSIAN, init_scores=_init_gaussian_frame_index, frame_indexed=True,
        project=lambda x, p, alpha: gaussian_projection(x, p["w_s"], alpha)),
    AttentionVariant.RELATIVE_PE: replace(
        _STANDARD,
        # the offset table's key projection is per-frame work, done once per head
        project=lambda x, p, alpha: Projection(
            relative_projections(x, p["w_q"], p["w_k_x"], p["w_k_r"])),
        scores=lambda qkr, p, rows, keys: relative_terms(*qkr, p["u"], p["v"], rows),
        # the scores, then their attention in place; all-offset position scores
        # (L x 2L-1); q + u and q + v
        pair_elements=lambda n, d_model, d_k: n * n + n * (2 * n - 1) + 2 * n * d_k,
        init_scores=lambda rng, score_in, d_model, d_k, alpha: {
            **_init_qk(rng, score_in, d_model, d_k, alpha),
            "w_k_r": param(rng.normal(0.0, 1.0 / math.sqrt(d_model), size=(d_k, d_model))),
            "u": param(rng.normal(0.0, 0.02, size=(1, d_k))),
            "v": param(rng.normal(0.0, 0.02, size=(1, d_k)))},
        default_abs_pe=False,
    ),
}


def init_attention_params(
    variant: AttentionVariant,
    d_model: int,
    d_k: int,
    d_v: int,
    alpha: float,
    rng: np.random.Generator,
) -> Head:
    """Draw one head's score weights, then its value map ``w_v``; the draw order
    is the order of the head's names in a checkpoint."""
    spec = VARIANTS[variant]
    score_in = d_model + (2 if spec.frame_indexed else 1)
    head = spec.init_scores(rng, score_in, d_model, d_k, alpha)
    head["w_v"] = param(rng.normal(0.0, 1.0 / math.sqrt(d_model + 1), size=(d_v, d_model + 1)))
    return head

"""Element-count accounting for the attention scores and their softmax.

Counts cover the pairwise-interaction intermediates of one head, over all
query rows at once: score and position-score matrices (the softmax
normalises the scores in place, so they count once), plus relative_pe's
per-block query-bias sums. Per-frame projections (linear in sequence length)
and parameters are excluded; they do not drive the long-sequence memory
behaviour. relative_pe's (2L-1)-row offset table and its key projection are
per-head projection work, so they are excluded too. The measured number is
read off the tape that ``recording`` gives ``attention_weights`` while it turns
one head's projected frames into weights: the sizes of the recorded results
whose arrays own their memory, where a view of another array counts 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..attention.multihead import attention_weights
from ..attention.params import VARIANTS, AttentionVariant, init_attention_params
from ..encoder import EncoderConfig
from ..errors import ConfigError
from ..numerics.tensor import const, recording

MEASURE_SEED = 0  # seeds the head weights and input frames of a measurement
MAX_LENGTH = 4096  # the longest measured length; relative_pe's stage there is 0.4 GB


@dataclass
class MemoryFootprint:
    columns: ClassVar = ("variant", "length", "analytic_elements", "measured_elements")
    variant: str
    length: int
    analytic: int
    measured: int


def measure_pair_elements(variant: AttentionVariant, length: int, cfg: EncoderConfig) -> int:
    """Record one head's scores and their softmax on a tape of their own and sum
    the sizes of the recorded results whose arrays own their memory."""
    rng = np.random.default_rng([MEASURE_SEED, 0x6D])
    params = init_attention_params(variant, cfg.d_model, cfg.d_k, cfg.d_v, cfg.alpha, rng)
    x = const(rng.normal(size=(length, cfg.d_model)))
    projected = VARIANTS[variant].projections(x, params, cfg.alpha, start_index=0)
    with recording() as tape:
        weights = attention_weights(projected, params, variant)
    elements = sum(ref().data.size for ref in tape if ref().data.base is None)
    del weights  # held until here: its graph keeps every recorded result alive
    return elements


def check_lengths(lengths: list[int]) -> list[int]:
    """``lengths``, or a ConfigError naming the first one that is not measurable."""
    for length in lengths:
        if not 1 <= length <= MAX_LENGTH:
            raise ConfigError(f"length must be in [1, {MAX_LENGTH}], got {length}")
    return lengths


def memory_footprint_estimate(variant: AttentionVariant, length: int,
                              cfg: EncoderConfig) -> MemoryFootprint:
    """Analytic and measured pairwise-stage element counts for one head."""
    check_lengths([length])
    return MemoryFootprint(
        variant=variant.value,
        length=length,
        analytic=VARIANTS[variant].pair_elements(length, cfg.d_model, cfg.d_k),
        measured=measure_pair_elements(variant, length, cfg),
    )

"""Toy CTC encoder: frame-stacking front end, pre-norm self-attention blocks
with position-wise feed-forward networks, and a linear head to token logits.

The reference-scale recipe this is a scaled-down analogue of used 12 blocks,
4 heads, 256-dimensional scores, and a 2048-wide feed-forward with x4
temporal subsampling; the desk-scale defaults below train in minutes on a
CPU while keeping the same structure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .attention.encodings import DEFAULT_ALPHA, sinusoid_encoding
from .attention.multihead import multi_head_attention
from .attention.params import VARIANTS, AttentionVariant, Head, init_attention_params
from .container import bounded, build, check_types, read_container, write_container
from .ctc import min_frames_required
from .errors import ConfigError, ShortInputError
from .numerics.tensor import (
    Tensor,
    add,
    affine,
    const,
    frame_stack,
    layer_norm_rows,
    pack,
    param,
    relu,
)

CHECKPOINT_FORMAT = "longattn-checkpoint-v1"


@dataclass
class EncoderConfig:
    # sizes are bounded as in SyntheticTaskConfig
    feat_dim: int = bounded(8, 2, 1000)
    d_model: int = bounded(64, 1, 1024)
    n_layers: int = bounded(4, 1, 64)
    n_heads: int = bounded(2, 1, 64)
    d_k: int = bounded(32, 1, 1024)
    d_ff: int = bounded(128, 1, 8192)
    subsample_factor: int = bounded(4, 1, 64)
    variant: AttentionVariant = AttentionVariant.GAUSSIAN_FRAME_INDEX
    vocab_size: int = bounded(12, 2, 1000)  # blank + tokens
    # a subnormal alpha overflows the frame-index column
    alpha: float = bounded(DEFAULT_ALPHA, sys.float_info.min)
    use_abs_pe: bool | None = None  # None: variant default

    def __post_init__(self):
        check_types(self)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}"
            )
        sinusoids = self.abs_pe_enabled or self.variant is AttentionVariant.RELATIVE_PE
        if sinusoids and self.d_model % 2 != 0:
            raise ConfigError(f"sinusoid positional encoding needs an even d_model, "
                              f"got {self.d_model}")

    @property
    def d_v(self) -> int:
        return self.d_model // self.n_heads

    @property
    def abs_pe_enabled(self) -> bool:
        if self.use_abs_pe is None:
            return VARIANTS[self.variant].default_abs_pe
        return self.use_abs_pe


@dataclass
class SABlockParams:
    heads: list[Head]
    w_o: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn_w1: Tensor
    ffn_w2: Tensor

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        """The heads' tensors, then the block's own in field order."""
        out: list[tuple[str, Tensor]] = []
        for i, head in enumerate(self.heads):
            out += [(f"{prefix}head{i}.{name}", t) for name, t in head.items()]
        return out + [(f"{prefix}{f.name}", getattr(self, f.name))
                      for f in fields(self) if f.name != "heads"]


@dataclass
class ModelParams:
    subsample_proj: Tensor
    blocks: list[SABlockParams]
    final_gain: Tensor
    final_bias: Tensor
    w_out: Tensor

    def named(self) -> list[tuple[str, Tensor]]:
        out = [("subsample_proj", self.subsample_proj)]
        for i, block in enumerate(self.blocks):
            out += block.named(f"block{i}.")
        out += [("final_gain", self.final_gain), ("final_bias", self.final_bias),
                ("w_out", self.w_out)]
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]


@dataclass
class TrainedModel:
    config: EncoderConfig
    params: ModelParams
    meta: dict = field(default_factory=dict)


def init_model(cfg: EncoderConfig, seed: int, zero_residual: bool = True) -> ModelParams:
    """Draw all weights; with ``zero_residual`` the attention output and second
    feed-forward maps start at zero so every block begins as the identity."""
    rng = np.random.default_rng([seed, 0x6C61])
    d = cfg.d_model
    stacked = cfg.subsample_factor * cfg.feat_dim

    def linear(rows, cols, zero=False):
        if zero:
            return param(np.zeros((rows, cols)))
        return param(rng.normal(0.0, 1.0 / math.sqrt(cols), size=(rows, cols)))

    blocks = []
    for _ in range(cfg.n_layers):
        heads = [init_attention_params(cfg.variant, d, cfg.d_k, cfg.d_v, cfg.alpha, rng)
                 for _ in range(cfg.n_heads)]
        blocks.append(SABlockParams(
            heads=heads,
            w_o=linear(d, d + 1, zero=zero_residual),
            ln1_gain=param(np.ones((1, d))),
            ln1_bias=param(np.zeros((1, d))),
            ln2_gain=param(np.ones((1, d))),
            ln2_bias=param(np.zeros((1, d))),
            ffn_w1=linear(cfg.d_ff, d + 1),
            ffn_w2=linear(d, cfg.d_ff + 1, zero=zero_residual),
        ))
    params = ModelParams(
        subsample_proj=linear(d, stacked + 1),
        blocks=blocks,
        final_gain=param(np.ones((1, d))),
        final_bias=param(np.zeros((1, d))),
        w_out=linear(cfg.vocab_size, d + 1),
    )
    pack(params.tensors())  # one flat buffer each for the weights and their grads
    return params


def weight_count(cfg: EncoderConfig) -> int:
    """How many weights ``init_model`` draws for ``cfg``; draws one head, not the model."""
    d, f, rng = cfg.d_model, cfg.d_ff, np.random.default_rng(0)
    heads = cfg.n_heads * sum(t.data.size for t in init_attention_params(
        cfg.variant, d, cfg.d_k, cfg.d_v, cfg.alpha, rng).values())
    # per block: heads, w_o, two norms, feed-forward; then front end, final norm, output map
    return (cfg.n_layers * (heads + d * (d + 6 + 2 * f) + f)
            + d * (cfg.subsample_factor * cfg.feat_dim + 3) + cfg.vocab_size * (d + 1))


def subsample(features, factor: int, proj: Tensor) -> Tensor:
    """Stack ``factor`` consecutive frames (zero-padded tail) and project.

    (T, F) -> (ceil(T/factor), d_model).
    """
    x = features if isinstance(features, Tensor) else const(np.asarray(features, dtype=float))
    if x.data.shape[0] < factor:
        raise ShortInputError(
            f"need at least {factor} frames to subsample, got {x.data.shape[0]}"
        )
    stacked = frame_stack(x, factor)
    return affine(stacked, proj)


def check_utterance(cfg: EncoderConfig, utt, name: str, train: bool) -> None:
    """Raise a one-line ConfigError naming the utterance ``name`` unless a model of
    ``cfg`` takes ``utt``: ``feat_dim``-wide features, at least ``subsample_factor``
    frames, labels in [1, vocab_size - 1] and, to ``train``, a CTC alignment."""
    (frames, width), factor, vocab = utt.features.shape, cfg.subsample_factor, cfg.vocab_size
    subsampled, outside = -(-frames // factor), [t for t in utt.labels if not 1 <= t < vocab]
    if width != cfg.feat_dim:
        problem = f"has {width}-wide features, but model.feat_dim is {cfg.feat_dim}"
    elif frames < factor:
        problem = f"has {frames} frames, fewer than model.subsample_factor {factor}"
    elif outside:
        problem = f"has label {outside[0]} outside the token range [1, {vocab - 1}]"
    elif train and min_frames_required(utt.labels) > subsampled:
        problem = (f"needs {min_frames_required(utt.labels)} frames after subsampling "
                   f"for its labels, but its {frames} frames give {subsampled}")
    else:
        return
    raise ConfigError(f"{name} {problem}")


def sa_block_forward(
    x: Tensor,
    block: SABlockParams,
    cfg: EncoderConfig,
    observe: Callable[[int, slice, slice, np.ndarray], None] | None = None,
) -> Tensor:
    """Pre-norm residual block: x + MHA(LN(x)), then y + FFN(LN(y))."""
    h = layer_norm_rows(x, block.ln1_gain, block.ln1_bias)
    mha = multi_head_attention(h, block.heads, block.w_o, cfg.variant,
                               alpha=cfg.alpha, observe=observe)
    y = add(x, mha)
    h2 = layer_norm_rows(y, block.ln2_gain, block.ln2_bias)
    hidden = relu(affine(h2, block.ffn_w1))
    ffn = affine(hidden, block.ffn_w2)
    return add(y, ffn)


def encoder_forward(
    features,
    params: ModelParams,
    cfg: EncoderConfig,
    observe: Callable[[int, int, slice, slice, np.ndarray], None] | None = None,
) -> Tensor:
    """Features (T, feat_dim) -> token logits (ceil(T/factor), vocab_size).
    ``observe(layer, head, rows, keys, weights)`` sees every attention row block
    once, with the key frames its weights cover, where the block is scored:
    under ``no_grad()`` on any thread, in any order and possibly at the same
    time as the head's other blocks, so it must be safe to run concurrently;
    under a tape in row order on the calling thread. All of a head's calls
    finish before the next head's."""
    x = subsample(features, cfg.subsample_factor, params.subsample_proj)
    if cfg.abs_pe_enabled:
        x = add(x, const(sinusoid_encoding(x.data.shape[0], cfg.d_model)))
    for layer, block in enumerate(params.blocks):
        x = sa_block_forward(x, block, cfg,
                             observe=None if observe is None else partial(observe, layer))
    x = layer_norm_rows(x, params.final_gain, params.final_bias)
    return affine(x, params.w_out)


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: TrainedModel) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "encoder": asdict(model.config),
        "training": model.meta,
    }
    arrays = [(name, t.data) for name, t in model.params.named()]
    write_container(path, meta, arrays)


def load_checkpoint(path) -> TrainedModel:
    meta, arrays = read_container(path)
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    cfg = build(EncoderConfig, meta.get("encoder"), f"{path}: encoder metadata")
    held, implied = sum(a.size for a in arrays.values()), weight_count(cfg)
    if held != implied:  # checked first: sizes within their bounds can still imply 1e10 weights
        raise ConfigError(f"{path}: holds {held} weights, its encoder metadata implies {implied}")
    params = init_model(cfg, seed=0)
    named = dict(params.named())
    if set(named) != set(arrays):
        missing = sorted(set(named) ^ set(arrays))
        raise ConfigError(f"{path}: parameter names do not match config: {missing}")
    for name, tensor in named.items():
        if tensor.data.shape != arrays[name].shape:
            raise ConfigError(f"{path}: shape mismatch for {name}: "
                              f"{arrays[name].shape} vs expected {tensor.data.shape}")
        tensor.data[...] = arrays[name]
    return TrainedModel(config=cfg, params=params, meta=meta.get("training", {}))

"""Attention heatmap export: CSV (exact weights) plus 8-bit graymap."""

from __future__ import annotations

import numpy as np

from ..container import write_csv
from ..encoder import TrainedModel, encoder_forward
from ..errors import ConfigError
from ..numerics.tensor import no_grad


def write_pgm(path, matrix: np.ndarray) -> None:
    """Binary portable graymap, linear scale, max-normalized per map."""
    peak = matrix.max()
    scaled = matrix / peak if peak > 0 else matrix.copy()
    pixels = np.rint(np.multiply(scaled, 255.0, out=scaled), out=scaled).astype(np.uint8)
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def attention_map(model: TrainedModel, features: np.ndarray, layer: int, head: int) -> np.ndarray:
    """One head's full attention matrix for one utterance, filled in from its
    row blocks; the forward records no tape and keeps no other head's weights."""
    cfg = model.config
    if not (0 <= layer < cfg.n_layers):
        raise ConfigError(f"layer {layer} out of range [0, {cfg.n_layers})")
    if not (0 <= head < cfg.n_heads):
        raise ConfigError(f"head {head} out of range [0, {cfg.n_heads})")
    length = -(-len(features) // cfg.subsample_factor)
    attn = np.zeros((length, length))

    def keep(at_layer: int, at_head: int, rows: slice, keys: slice, weights: np.ndarray) -> None:
        if (at_layer, at_head) == (layer, head):
            attn[rows, keys] = weights  # keys outside a band keep their exact 0.0

    with no_grad():
        encoder_forward(features, model.params, cfg, observe=keep)
    return attn


def dump_heatmap(
    model: TrainedModel,
    features: np.ndarray,
    layer: int,
    head: int,
    out_prefix: str,
    config_hash: str = "",
) -> np.ndarray:
    """Dump one head's attention matrix for one utterance.

    Rows are the source (query) frame index, columns the target frame index.
    Writes ``<prefix>.csv`` with 17 significant digits and ``<prefix>.pgm``.
    """
    attn = attention_map(model, features, layer, head)
    write_csv(f"{out_prefix}.csv", f"config_hash={config_hash} layer={layer} head={head}", attn)
    write_pgm(f"{out_prefix}.pgm", attn)
    return attn

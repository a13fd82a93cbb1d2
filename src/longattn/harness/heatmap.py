"""Attention heatmap export: CSV (exact weights) plus 8-bit graymap."""

from __future__ import annotations

import numpy as np

from ..encoder import TrainedModel, encoder_forward
from ..errors import ConfigError
from ..numerics.tensor import no_grad


def write_pgm(path, matrix: np.ndarray) -> None:
    """Binary portable graymap, linear scale, max-normalized per map."""
    peak = matrix.max()
    scaled = matrix / peak if peak > 0 else matrix
    pixels = np.rint(scaled * 255.0).astype(np.uint8)
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


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
    cfg = model.config
    if not (0 <= layer < cfg.n_layers):
        raise ConfigError(f"layer {layer} out of range [0, {cfg.n_layers})")
    if not (0 <= head < cfg.n_heads):
        raise ConfigError(f"head {head} out of range [0, {cfg.n_heads})")
    capture: list[list[np.ndarray]] = []
    with no_grad():
        encoder_forward(features, model.params, cfg, capture=capture)
    attn = capture[layer][head]
    with open(f"{out_prefix}.csv", "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash} layer={layer} head={head}\n")
        for row in attn:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    write_pgm(f"{out_prefix}.pgm", attn)
    return attn


"""Print the greedy decode cost per frame, and each head's key window, as inputs grow.

Trains the models of the eval benchmark on the default task with the default
seed and learning rate (gaussian_frame_index for 200 steps, standard for
400), then decodes the first ``--utterances`` utterances of the default
held-out set concatenated k at a time (``concat_eval`` with seed 0) for each
k in ``--ks``. BLAS runs on one thread, longattn's default and the
benchmark's, and attention's row blocks on one pool worker per CPU. One line
per k and variant:

    <variant> k=<k> L=<frames> ms_per_frame=<ms> keys=<window widths>

``L`` is the first utterance's length after subsampling, and ``ms_per_frame``
the median over the utterances of the fastest of ``--repeats`` decodes,
divided by the utterance's L. ``keys`` lists, for every layer and head (layer
by layer, heads within a layer), the widest key window in frames of a row
block in the decode of the first utterance, read through ``encoder_forward``'s
observer, with ``-`` for a head whose blocks read every key. An interior
block's window is its rows plus W frames on each side, as
``linalg.row_blocks(L, W)`` plans both, so W is exactly (width - rows) / 2;
a window clipped at both ends of the input reads L frames. Only a head whose
projection has a band reads a window. With the band, gaussian_frame_index's
cost per frame stops growing once L is well past 2W; standard's keeps
growing with L.

    PYTHONPATH=src python3 scripts/decode_scaling.py
"""

from __future__ import annotations

import argparse
import statistics
import time

# longattn before numpy, so that BLAS loads with longattn's one thread
from longattn.attention import AttentionVariant
from longattn.encoder import EncoderConfig, TrainedModel, encoder_forward
from longattn.harness import (
    EvalSettings,
    SyntheticTaskConfig,
    TrainSettings,
    concat_eval,
    decode_utterance,
    gen_dataset,
    heldout_task,
    train_model,
)
from longattn.numerics import no_grad

import numpy as np

MODELS = {AttentionVariant.GAUSSIAN_FRAME_INDEX: 200, AttentionVariant.STANDARD: 400}


def key_windows(model: TrainedModel, features: np.ndarray) -> list[int | None]:
    """Each layer's and head's widest key window in frames over the row blocks
    of one no-grad forward of ``features``; None where every block reads every key.
    Pool workers observe a head's blocks at once, so each block only appends its
    window, and the widest is taken after the forward."""
    seen: list[tuple[int, int, slice]] = []
    cfg = model.config
    with no_grad():
        encoder_forward(features, model.params, cfg,
                        observe=lambda layer, head, rows, keys, w: seen.append((layer, head, keys)))
    widest: dict[tuple[int, int], int] = {}
    for layer, head, keys in seen:
        if keys != slice(None):
            widest[layer, head] = max(widest.get((layer, head), 0), keys.stop - keys.start)
    return [widest.get((layer, head))
            for layer in range(cfg.n_layers) for head in range(cfg.n_heads)]


def decode_ms(model: TrainedModel, features: np.ndarray, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        decode_utterance(model, features)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ks", default="1,16,32,64", help="concatenation factors")
    parser.add_argument("--utterances", type=int, default=3, help="utterances decoded per k")
    parser.add_argument("--repeats", type=int, default=3, help="decodes timed per utterance")
    args = parser.parse_args()
    ks = [int(k) for k in args.ks.split(",")]
    if min(ks) < 1 or args.utterances < 1 or args.repeats < 1:
        parser.error("--ks, --utterances and --repeats must be positive")
    task, settings, held = SyntheticTaskConfig(), TrainSettings(), EvalSettings()
    data = gen_dataset(task)
    heldout = gen_dataset(heldout_task(task, held.seed, held.n_utterances))
    models = {variant: train_model(EncoderConfig(variant=variant), task, steps, settings.lr,
                                   settings.seed, dataset=data, log_every=0).model
              for variant, steps in MODELS.items()}
    for k in ks:
        utterances = concat_eval(heldout, k, seed=0).utterances[:args.utterances]
        for variant, model in models.items():
            factor = model.config.subsample_factor
            decode_utterance(model, utterances[0].features)  # warm-up
            per_frame = [decode_ms(model, u.features, args.repeats) / -(-len(u.features) // factor)
                         for u in utterances]
            widths = key_windows(model, utterances[0].features)
            length = -(-len(utterances[0].features) // factor)
            print(f"{variant.value} k={k} L={length} "
                  f"ms_per_frame={statistics.median(per_frame):.4f} "
                  f"keys={','.join('-' if w is None else str(w) for w in widths)}", flush=True)


if __name__ == "__main__":
    main()

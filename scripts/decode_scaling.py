"""Print the greedy decode cost per frame, and each head's key band, as inputs grow.

Trains the models of the eval benchmark on the default task with the default
seed and learning rate (gaussian_frame_index for 200 steps, standard for
400), then decodes the first ``--utterances`` utterances of the default
held-out set concatenated k at a time (``concat_eval`` with seed 0) for each
k in ``--ks``. BLAS runs on one thread, as in the benchmark. One line per k
and variant:

    <variant> k=<k> L=<frames> ms_per_frame=<ms> W=<half-widths>

``L`` is the first utterance's length after subsampling, and ``ms_per_frame``
the median over the utterances of the fastest of ``--repeats`` decodes,
divided by the utterance's L. ``W`` lists the band half-width of every layer
and head (layer by layer, heads within a layer) that the decode of the first
utterance used, with ``-`` for a head that computed no band or whose band is
not narrower than L. Only a variant with a band computes one, and only when
L > 256, where attention runs in more than one row block.
With the band, gaussian_frame_index's cost per frame stops growing once L is
well past 2W; standard's keeps growing with L.

    PYTHONPATH=src python3 scripts/decode_scaling.py
"""

from __future__ import annotations

import argparse
import os
import statistics
import time
from dataclasses import replace

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS

import numpy as np  # noqa: E402

from longattn.attention import AttentionVariant  # noqa: E402
from longattn.attention.params import VARIANTS  # noqa: E402
from longattn.encoder import EncoderConfig, TrainedModel  # noqa: E402
from longattn.harness import (  # noqa: E402
    EvalSettings,
    SyntheticTaskConfig,
    TrainSettings,
    concat_eval,
    decode_utterance,
    gen_dataset,
    heldout_task,
    train_model,
)

MODELS = {AttentionVariant.GAUSSIAN_FRAME_INDEX: 200, AttentionVariant.STANDARD: 400}


def band_widths(model: TrainedModel, features: np.ndarray) -> list[int | None]:
    """Each layer's and head's band half-width in one decode of ``features``,
    read by wrapping the variant's ``band``; None where no band is computed."""
    variant = model.config.variant
    spec = VARIANTS[variant]
    widths: list[int | None] = []

    def band(projected, head, alpha):
        widths.append(spec.band(projected, head, alpha))
        return widths[-1]

    if spec.band is not None:
        VARIANTS[variant] = replace(spec, band=band)
        try:
            decode_utterance(model, features)
        finally:
            VARIANTS[variant] = spec
    return widths or [None] * (model.config.n_layers * model.config.n_heads)


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
            widths = band_widths(model, utterances[0].features)
            length = -(-len(utterances[0].features) // factor)
            print(f"{variant.value} k={k} L={length} "
                  f"ms_per_frame={statistics.median(per_frame):.4f} "
                  f"W={','.join('-' if w is None else str(w) for w in widths)}", flush=True)


if __name__ == "__main__":
    main()

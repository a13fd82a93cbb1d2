"""Print a sha256 digest of training for every attention variant.

For each variant this trains the default model on the default task with the
default seed and learning rate for ``--steps`` steps, then prints one line:

    <variant> params=<sha256 of every trained parameter> curve=<sha256 of the loss curve>

With ``--heatmap`` it also prints, for each trained variant, the sha256 of
the CSV and PGM files that ``dump_heatmap`` writes for layer 0, head 0 of
utterance 0 of the default held-out set concatenated k = 1 and k = 10 at a
time (``concat_eval`` with seed 0):

    <variant> heatmap k=<k> frames=<L> csv=<sha256> pgm=<sha256>

Two source trees train (and draw heatmaps) bit-identically exactly when their
outputs are equal:

    PYTHONPATH=src python3 scripts/train_digest.py --steps 150 > after.txt
    PYTHONPATH=/path/to/other/src python3 scripts/train_digest.py --steps 150 > before.txt
    diff before.txt after.txt

Only the public harness API is used, so the script runs against older trees.
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from longattn.attention import AttentionVariant
from longattn.encoder import EncoderConfig, TrainedModel
from longattn.harness import (
    EvalSettings,
    SyntheticTaskConfig,
    TrainSettings,
    concat_eval,
    dump_heatmap,
    gen_dataset,
    heldout_task,
    train_model,
)

HEATMAP_KS = (1, 10)


def train(variant: AttentionVariant, steps: int, data, task: SyntheticTaskConfig):
    settings = TrainSettings()
    return train_model(EncoderConfig(variant=variant), task, steps, settings.lr,
                       settings.seed, dataset=data, log_every=0)


def digest(variant: AttentionVariant, result) -> str:
    params = hashlib.sha256()
    for name, tensor in result.model.params.named():
        params.update(name.encode())
        params.update(np.ascontiguousarray(tensor.data).tobytes())
    curve = hashlib.sha256(np.asarray(result.curve, dtype=np.float64).tobytes())
    return f"{variant.value} params={params.hexdigest()} curve={curve.hexdigest()}"


def heatmap_digests(variant: AttentionVariant, model: TrainedModel, heldout) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp) / "map")
        for k in HEATMAP_KS:
            features = concat_eval(heldout, k, seed=0).utterances[0].features
            attn = dump_heatmap(model, features, layer=0, head=0, out_prefix=prefix)
            csv = hashlib.sha256(Path(f"{prefix}.csv").read_bytes()).hexdigest()
            pgm = hashlib.sha256(Path(f"{prefix}.pgm").read_bytes()).hexdigest()
            lines.append(f"{variant.value} heatmap k={k} frames={attn.shape[0]} "
                         f"csv={csv} pgm={pgm}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=150, help="training steps per variant")
    parser.add_argument("--heatmap", action="store_true",
                        help="also digest layer 0, head 0 heatmaps at k = 1 and k = 10")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    task = SyntheticTaskConfig()
    data = gen_dataset(task)
    if args.heatmap:
        settings = EvalSettings()
        heldout = gen_dataset(heldout_task(task, settings.seed, settings.n_utterances))
    for variant in AttentionVariant:
        result = train(variant, args.steps, data, task)
        print(digest(variant, result), flush=True)
        if args.heatmap:
            print("\n".join(heatmap_digests(variant, result.model, heldout)), flush=True)


if __name__ == "__main__":
    main()

"""Print a sha256 digest of training for every attention variant.

For each variant this trains the default model on the default task with the
default seed and learning rate for ``--steps`` steps, then prints one line:

    <variant> params=<sha256 of every trained parameter> curve=<sha256 of the loss curve>

Two source trees train bit-identically exactly when their outputs are equal:

    PYTHONPATH=src python3 scripts/train_digest.py --steps 150 > after.txt
    PYTHONPATH=/path/to/other/src python3 scripts/train_digest.py --steps 150 > before.txt
    diff before.txt after.txt

Only the public harness API is used, so the script runs against older trees.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from longattn.attention import AttentionVariant
from longattn.encoder import EncoderConfig
from longattn.harness import SyntheticTaskConfig, TrainSettings, gen_dataset, train_model


def digest(variant: AttentionVariant, steps: int, data, task: SyntheticTaskConfig) -> str:
    settings = TrainSettings()
    result = train_model(EncoderConfig(variant=variant), task, steps, settings.lr,
                         settings.seed, dataset=data, log_every=0)
    params = hashlib.sha256()
    for name, tensor in result.model.params.named():
        params.update(name.encode())
        params.update(np.ascontiguousarray(tensor.data).tobytes())
    curve = hashlib.sha256(np.asarray(result.curve, dtype=np.float64).tobytes())
    return f"{variant.value} params={params.hexdigest()} curve={curve.hexdigest()}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=150, help="training steps per variant")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    task = SyntheticTaskConfig()
    data = gen_dataset(task)
    for variant in AttentionVariant:
        print(digest(variant, args.steps, data, task), flush=True)


if __name__ == "__main__":
    main()

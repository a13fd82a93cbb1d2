"""Print a sha256 digest of training for every attention variant.

The first line names what the bytes depend on besides the sources: the numpy
version, the OpenBLAS core its bundled library picked for this CPU, and the
BLAS thread count (``unknown`` when the library does not export them):

    numpy <version> openblas_core <core> blas_threads <n>

Trained bytes change with the core (set ``OPENBLAS_CORETYPE`` to choose
another), not with the thread count; the k = 10 heatmap CSVs and the decode
logits change with both.

For each variant this trains the default model on the default task with the
default seed and learning rate for ``--steps`` steps, then prints one line:

    <variant> params=<sha256 of every trained parameter> curve=<sha256 of the loss curve>

then the sha256 of the CSV and PGM files that ``dump_heatmap`` writes for
layer 0, head 0 of utterance 0 of the default held-out set concatenated k = 1
and k = 10 at a time (``concat_eval`` with seed 0):

    <variant> heatmap k=<k> frames=<L> csv=<sha256> pgm=<sha256>

and the sha256 of the logits of a no-grad forward over utterance 0 of the
same held-out set concatenated k = 16 and k = 32 at a time, inputs long
enough for several row blocks and, in gaussian_frame_index, the key band:

    <variant> decode k=<k> frames=<L> logits=<sha256>

Last, it runs ``train --curve``, ``eval``, ``sweep``, ``heatmap`` and
``memcheck`` through ``longattn.cli.main`` (gaussian_frame_index, ``--steps``
steps, default config) in a temporary directory, with relative paths so that
the reports' ``checkpoint=`` comment is the same in every run, and prints one
line per file written:

    artifact <file> sha256=<sha256>

Two source trees train (and write heatmaps and CLI artifacts) bit-identically
on one machine exactly when their outputs are equal:

    PYTHONPATH=src python3 scripts/train_digest.py --steps 150 > after.txt
    PYTHONPATH=/path/to/other/src python3 scripts/train_digest.py --steps 150 > before.txt
    diff before.txt after.txt

(A tree whose script still takes ``--decode --heatmap --artifacts`` prints the
same lines with those three flags.)

Only the public harness API, ``encoder_forward``, ``no_grad`` and the CLI
entry point are used, so the script runs against older trees.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import logging
import os
import tempfile
from pathlib import Path

# numpy before longattn: BLAS loads under the caller's environment, on older
# trees and on those whose import sets a thread count alike
import numpy as np

from longattn.attention import AttentionVariant
from longattn.cli import main as cli_main
from longattn.encoder import EncoderConfig, TrainedModel, encoder_forward
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
from longattn.numerics import no_grad

HEATMAP_KS = (1, 10)
DECODE_KS = (16, 32)
ARTIFACTS = ("model.ckpt", "curve.csv", "report.csv", "sweep.csv", "hm.csv", "hm.pgm", "mem.csv")


def blas_line() -> str:
    """numpy's version, and the core and thread count of its bundled OpenBLAS."""
    core = threads = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*"):
        lib = ctypes.CDLL(str(path))  # the library numpy loaded, not a second copy
        try:
            corename = lib.scipy_openblas_get_corename64_
            num_threads = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        num_threads.argtypes, num_threads.restype = [], ctypes.c_int
        core, threads = corename().decode(), num_threads()
    return f"numpy {np.__version__} openblas_core {core} blas_threads {threads}"


def cli_runs(steps: int) -> list[list[str]]:
    return [
        ["train", "--variant", "gaussian_frame_index", "--steps", str(steps),
         "--curve", "curve.csv", "--out", "model.ckpt"],
        ["eval", "--checkpoint", "model.ckpt", "--concat-k", "2", "--out", "report.csv"],
        ["sweep", "--checkpoint", "gaussian_frame_index=model.ckpt", "--lengths", "1,2",
         "--seeds", "0,1", "--out", "sweep.csv"],
        ["heatmap", "--checkpoint", "model.ckpt", "--layer", "0", "--head", "0",
         "--concat-k", "10", "--out-prefix", "hm"],
        ["memcheck", "--lengths", "7,64,300", "--out", "mem.csv"],
    ]


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


def decode_digests(variant: AttentionVariant, model: TrainedModel, heldout) -> list[str]:
    lines = []
    for k in DECODE_KS:
        features = concat_eval(heldout, k, seed=0).utterances[0].features
        with no_grad():
            logits = encoder_forward(features, model.params, model.config).data
        digest = hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()
        lines.append(f"{variant.value} decode k={k} frames={logits.shape[0]} logits={digest}")
    return lines


def artifact_digests(steps: int) -> list[str]:
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in cli_runs(steps):
                if cli_main(argv) != 0:
                    raise SystemExit(f"longattn {' '.join(argv)} failed")
            return [f"artifact {name} sha256={hashlib.sha256(Path(name).read_bytes()).hexdigest()}"
                    for name in ARTIFACTS]
        finally:
            os.chdir(previous)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=150, help="training steps per variant")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    logging.basicConfig(level=logging.WARNING)  # keeps the CLI's progress lines quiet
    print(blas_line(), flush=True)
    task = SyntheticTaskConfig()
    data = gen_dataset(task)
    settings = EvalSettings()
    heldout = gen_dataset(heldout_task(task, settings.seed, settings.n_utterances))
    for variant in AttentionVariant:
        result = train(variant, args.steps, data, task)
        print(digest(variant, result), flush=True)
        print("\n".join(heatmap_digests(variant, result.model, heldout)), flush=True)
        print("\n".join(decode_digests(variant, result.model, heldout)), flush=True)
    print("\n".join(artifact_digests(args.steps)), flush=True)


if __name__ == "__main__":
    main()

"""The benchmark's workloads: set-up, output checks, and rounds of operations.

Each workload is a closed loop with one client: an operation starts when the
previous one ends. A round is a fixed list of operations, and a pass is the
rounds that cover every input once. The measuring loop stops only at the end
of a pass, so every run sees the same mix of inputs.

The program is called through module attributes (``encoder.encoder_forward``,
``tensor.backward``, ...) so that the traced run can wrap those attributes.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from longattn import ctc, encoder
from longattn.attention import multihead
from longattn.attention.params import AttentionVariant
from longattn.harness import configio, evaluation, synth, training
from longattn.numerics import optim, tensor

from speed import SpeedProbe
from tracing import Tracer

LR = training.TrainSettings().lr
# Eval models train with the shipped seed on the default task, so the
# workload seed only changes the held-out utterances, not the models.
MODEL_SEED = training.TrainSettings().seed
HELDOUT_UTTERANCES = configio.EvalSettings().n_utterances
HELDOUT_SEED_OFFSET = 100_000  # keeps held-out streams apart from training streams

# train-short: every block trains one variant from its initial weights for
# BLOCK_STEPS steps, so each block must reproduce train_model's curve. Over
# 24 steps the last-10 mean loss stays above the first-10 mean for about 1% of
# seeds (132, 166 and 276 among 0-329); over 64 steps the worst ratio of the
# 330 seeds x 7 variants is 0.86.
BLOCK_STEPS = 64
# Steps each eval model trains in set-up: the fewest that keep its k=1 token
# error rate under TER_BOUND, so hypotheses are near the reference length.
# An untrained model emits about 3x the reference tokens, which inflates the
# edit-distance work; one that has not yet left the all-blank phase emits none.
EVAL_MODELS = {"gaussian_frame_index": 200, "standard": 400, "relative_pe": 150}
TER_BOUND = 0.7

# Spans of the traced run. The op spans come from the benchmark itself.
RUN_TARGETS = [
    (encoder, "encoder_forward", "encoder.forward"),
    (evaluation, "encoder_forward", "encoder.forward"),
    (encoder, "subsample", "encoder.subsample"),
    (encoder, "sa_block_forward", "encoder.block"),
    (encoder, "multi_head_attention", "attention.mha"),
    (multihead, "attention_weights", "attention.weights"),
    (tensor, "log_softmax_rows", "tensor.log_softmax"),
    (ctc, "ctc_loss_op", "ctc.loss"),
    (optim.Adam, "zero_grad", "optim.zero_grad"),
    (tensor, "backward", "tensor.backward"),
    (optim.Adam, "step", "optim.adam"),
    (evaluation, "decode_utterance", "eval.decode"),
    (evaluation, "greedy_decode", "ctc.greedy"),
    (evaluation, "edit_distance", "ctc.edit_distance"),
]
SETUP_TARGETS = [
    (synth, "gen_dataset", "synth.gen_dataset"),
    (synth, "concat_eval", "synth.concat_eval"),
    (training, "train_model", "training.setup_train"),
    (encoder, "save_checkpoint", "container.save"),
    (encoder, "load_checkpoint", "container.load"),
]
FORWARD_TARGETS = [(encoder, "encoder_forward"), (evaluation, "encoder_forward")]
# Spans opened by the benchmark rather than around a call into the program.
BENCH_SPANS = {"train.step", "eval.utterance", "eval.model"}


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass
class OpRecord:
    phase: str
    frames: int = 0
    start: float = 0.0  # perf_counter
    ms: float = 0.0  # raw wall time
    scale: float = 1.0  # speed-probe factor to the nominal host
    ok: bool = True
    counts: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Times operations and counts the ones that raise or fail a check."""

    def __init__(self) -> None:
        self.ops: list[OpRecord] = []
        self.phase = "warmup"
        self.tracer: Tracer | None = None  # set only during the traced pass
        self.probe: SpeedProbe | None = None  # sampled between operations when set
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    @contextmanager
    def op(self, name: str, tag: str):
        if self.probe is not None:
            self.probe.maybe_sample()
        record = OpRecord(self.phase)
        self.ops.append(record)
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = len(self.ops) - 1
            tracer.tag = tag
        start = record.start = time.perf_counter()
        try:
            with tracer.span(name) if tracer is not None else nullcontext():
                yield record
        except Exception as exc:  # an operation that raises counts as failed
            record.ok = False
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            self.problem(f"{name} [{tag}]: {type(exc).__name__}: {exc}")
        finally:
            record.ms = (time.perf_counter() - start) * 1e3

    def span(self, name: str, tag: str):
        if self.tracer is None:
            return nullcontext()
        self.tracer.tag = tag
        return self.tracer.span(name)

    def fail(self, records: list[OpRecord], message: str) -> None:
        for record in records:
            record.ok = False
        self.problem(message)


def pair_elements(cfg: encoder.EncoderConfig, frames: int) -> int:
    """Computed count: heads * layers * L^2 pairwise scores for one forward."""
    length = -(-frames // cfg.subsample_factor)
    return cfg.n_heads * cfg.n_layers * length * length


def _model_config(task: synth.SyntheticTaskConfig, variant) -> encoder.EncoderConfig:
    return encoder.EncoderConfig(feat_dim=task.feat_dim, vocab_size=task.vocab_size,
                                 variant=variant)


def _hash_dataset(h, dataset: synth.Dataset) -> None:
    for utt in dataset:
        h.update(utt.features.tobytes())
        h.update(np.asarray(utt.labels, dtype=np.int64).tobytes())


# ---------------------------------------------------------------------------
# train-short
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    task: synth.SyntheticTaskConfig
    data: synth.Dataset
    # (config, live parameters, initial parameter values) per variant
    models: list[tuple[encoder.EncoderConfig, encoder.ModelParams, list[np.ndarray]]]
    reference: dict[str, list[float]] = field(default_factory=dict)


class TrainShort:
    """Training steps of all seven variants in equal blocks, default task."""

    name = "train-short"
    op_kind = "step"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tick=lambda: None) -> TrainState:
        task = synth.SyntheticTaskConfig()
        data = synth.gen_dataset(task)
        models = []
        for variant in AttentionVariant:
            cfg = _model_config(task, variant)
            params = encoder.init_model(cfg, seed=self.seed)
            models.append((cfg, params, [t.data.copy() for t in params.tensors()]))
        return TrainState(task, data, models)

    def fingerprint(self, state: TrainState) -> str:
        h = hashlib.sha256()
        _hash_dataset(h, state.data)
        for _, _, initial in state.models:
            for array in initial:
                h.update(array.tobytes())
        return h.hexdigest()

    def prepare(self, state: TrainState) -> list[str]:
        """Record train_model's loss curve over one block of each variant; every
        block of the run must reproduce it bit for bit."""
        for cfg, _, _ in state.models:
            result = training.train_model(cfg, state.task, BLOCK_STEPS, LR, self.seed,
                                          dataset=state.data, log_every=0)
            state.reference[cfg.variant.value] = result.curve
        return []

    def rounds_per_pass(self, state: TrainState) -> int:
        return 1

    def run_round(self, state: TrainState, index: int, rec: Recorder) -> None:
        for cfg, params, initial in state.models:
            self._block(state, cfg, params, initial, rec)

    def _block(self, state, cfg, params, initial, rec: Recorder) -> None:
        variant = cfg.variant.value
        reference = state.reference[variant]
        for t, value in zip(params.tensors(), initial):
            np.copyto(t.data, value)
        opt = optim.Adam(params.tensors(), lr=LR)
        order = np.random.default_rng([self.seed, 0x6F])  # train_model's sampling stream
        curve: list[float] = []
        records: list[OpRecord] = []
        for step in range(BLOCK_STEPS):
            with rec.op("train.step", variant) as op:
                records.append(op)
                utt = state.data.utterances[int(order.integers(len(state.data)))]
                logits = encoder.encoder_forward(utt.features, params, cfg)
                lattice = tensor.log_softmax_rows(logits)
                loss = ctc.ctc_loss_op(lattice, utt.labels)
                value = loss.item()
                if not math.isfinite(value):
                    raise CheckFailed(f"loss {value} at step {step}")
                opt.zero_grad()
                tensor.backward(loss)
                opt.step()
                curve.append(value)
                frames = utt.features.shape[0]
                op.frames = frames
                op.counts = {
                    "attention.pair_elements": pair_elements(cfg, frames),
                    "ctc.lattice_cells": lattice.shape[0] * (2 * len(utt.labels) + 1),
                }
                if value != reference[step]:
                    raise CheckFailed(f"step {step} loss {value!r} differs from "
                                      f"train_model's {reference[step]!r}")
        if len(curve) == BLOCK_STEPS and not training.loss_decreased(curve):
            rec.fail(records, f"train.step [{variant}]: loss did not decrease over the block")


# ---------------------------------------------------------------------------
# eval-long and eval-short
# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    heldout: synth.Dataset
    sets: dict[int, synth.Dataset]
    models: dict[str, encoder.TrainedModel]
    checkpoints: list[Path]
    ter: dict[str, float] = field(default_factory=dict)
    # (k, utterance index, variant) -> (hypothesis, edit distance) of the first pass
    seen: dict[tuple[int, int, str], tuple] = field(default_factory=dict)


class Eval:
    """Greedy evaluation of held-out utterances concatenated ``k`` at a time.

    One operation is one utterance decoded and scored by each eval model.
    """

    op_kind = "utt"

    def __init__(self, name: str, ks: tuple[int, ...], seed: int, workdir: Path):
        self.name = name
        self.ks = ks
        self.seed = seed
        self.workdir = workdir

    def setup(self, tick=lambda: None) -> EvalState:
        """``tick`` is called between the stages, for the speed probe."""
        task = synth.SyntheticTaskConfig()
        heldout = synth.gen_dataset(synth.heldout_task(
            task, HELDOUT_SEED_OFFSET + self.seed, HELDOUT_UTTERANCES))
        sets = {k: synth.concat_eval(heldout, k, seed=self.seed) for k in self.ks}
        data = synth.gen_dataset(task)
        models = {}
        paths = []
        for variant, steps in EVAL_MODELS.items():
            tick()
            result = training.train_model(_model_config(task, variant), task, steps, LR,
                                          MODEL_SEED, dataset=data, log_every=0)
            tick()
            path = self.workdir / f"{self.name}-{variant}.ckpt"
            encoder.save_checkpoint(path, result.model)
            models[variant] = encoder.load_checkpoint(path)
            paths.append(path)
        return EvalState(heldout, sets, models, paths)

    def fingerprint(self, state: EvalState) -> str:
        h = hashlib.sha256()
        for path in state.checkpoints:
            h.update(path.read_bytes())
        for dataset in state.sets.values():
            _hash_dataset(h, dataset)
        return h.hexdigest()

    def prepare(self, state: EvalState) -> list[str]:
        """Each set-up model must decode the k=1 held-out set under TER_BOUND."""
        k1 = {"k1": synth.concat_eval(state.heldout, 1, seed=self.seed)}
        problems = []
        for variant, model in state.models.items():
            ter = evaluation.overall_error(evaluation.evaluate(model, k1), "k1")
            state.ter[variant] = ter
            if not ter < TER_BOUND:
                problems.append(f"{variant}: k=1 token error rate {ter:.3f} "
                                f"is not under {TER_BOUND}")
        return problems

    def rounds_per_pass(self, state: EvalState) -> int:
        return min(len(d) for d in state.sets.values())

    def run_round(self, state: EvalState, index: int, rec: Recorder) -> None:
        # every eval set contributes in proportion to its size (k=16: 2, k=32: 1)
        smallest = self.rounds_per_pass(state)
        for k, dataset in state.sets.items():
            per_round = len(dataset) // smallest
            for j in range(per_round):
                self._utterance(state, k, (index * per_round + j) % len(dataset), rec)

    def _utterance(self, state: EvalState, k: int, i: int, rec: Recorder) -> None:
        utt = state.sets[k].utterances[i]
        frames = utt.features.shape[0]
        with rec.op("eval.utterance", f"k{k}") as op:
            pairs = edit_cells = 0
            for variant, model in state.models.items():
                with rec.span("eval.model", f"{variant}.k{k}"):
                    hyp = evaluation.decode_utterance(model, utt.features)
                    dist = evaluation.edit_distance(hyp, utt.labels)
                vocab = model.config.vocab_size
                if any(not 1 <= t < vocab for t in hyp):
                    raise CheckFailed(f"{variant}: hypothesis token outside [1, {vocab - 1}]")
                pairs += pair_elements(model.config, frames)
                edit_cells += len(hyp) * len(utt.labels)
                result = (tuple(hyp), dist)
                if state.seen.setdefault((k, i, variant), result) != result:
                    raise CheckFailed(f"{variant} k={k} utterance {i}: "
                                      "a repeated pass gave another result")
            op.frames = len(state.models) * frames
            op.counts = {"attention.pair_elements": pairs, "ctc.edit_cells": edit_cells}


def make_workload(name: str, seed: int, workdir: Path):
    if name == "train-short":
        return TrainShort(seed)
    if name == "eval-long":
        return Eval(name, (16, 32), seed, workdir)
    if name == "eval-short":
        return Eval(name, (1,), seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

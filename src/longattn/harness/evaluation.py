"""Greedy-decoding evaluation, length buckets, and the length-mismatch sweep."""

from __future__ import annotations

import bisect
import logging
import time
from dataclasses import dataclass
from itertools import product
from typing import ClassVar

import numpy as np

from ..ctc import edit_distance, greedy_decode
from ..encoder import TrainedModel, check_utterance, encoder_forward
from ..errors import ConfigError
from ..numerics.tensor import no_grad
from .synth import Dataset, concat_eval

log = logging.getLogger("longattn")

DEFAULT_BUCKET_EDGES = (0, 50, 100, 200, 400, 800, 1600)


@dataclass
class ReportRow:
    columns: ClassVar = ("eval_set", "bucket", "n_utterances", "ref_tokens",
                         "edit_distance", "token_error_rate")
    eval_set: str
    bucket: str
    n_utterances: int
    ref_tokens: int
    edit_distance: int
    token_error_rate: float


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    wall_clock_s: float = 0.0  # informational; kept out of the CSV artifact


def decode_utterance(model: TrainedModel, features: np.ndarray) -> list[int]:
    """Greedy-decode one whole utterance; the forward records no tape."""
    with no_grad():
        logits = encoder_forward(features, model.params, model.config)
    return greedy_decode(logits.data)


def _bucket_label(edges: tuple[int, ...], idx: int) -> str:
    if idx + 1 < len(edges):
        return f"{edges[idx]}-{edges[idx + 1]}"
    return f"{edges[idx]}+"


def evaluate(
    model: TrainedModel,
    eval_sets: dict[str, Dataset],
    bucket_edges: tuple[int, ...] = DEFAULT_BUCKET_EDGES,
) -> ExperimentReport:
    """Greedy-decode every utterance; aggregate corpus-level error per length bucket."""
    started = time.perf_counter()
    rows: list[ReportRow] = []
    for name, dataset in eval_sets.items():
        for i, utt in enumerate(dataset):
            check_utterance(model.config, utt, f"utterance {i} of eval set {name}", train=False)
        hyps = [decode_utterance(model, u.features) for u in dataset]
        # ordered reduction into buckets keyed by raw feature length
        n_buckets = len(bucket_edges)
        counts = [0] * n_buckets
        tokens = [0] * n_buckets
        dists = [0] * n_buckets
        for utt, hyp in zip(dataset.utterances, hyps):
            idx = bisect.bisect_right(bucket_edges, utt.features.shape[0]) - 1
            counts[idx] += 1
            tokens[idx] += len(utt.labels)
            dists[idx] += edit_distance(hyp, utt.labels)
        for b in range(n_buckets):
            if counts[b] == 0:
                continue
            rows.append(ReportRow(name, _bucket_label(bucket_edges, b), counts[b],
                                  tokens[b], dists[b],
                                  dists[b] / tokens[b] if tokens[b] else 0.0))
        total_tokens = sum(tokens)
        rows.append(ReportRow(name, "all", sum(counts), total_tokens, sum(dists),
                              sum(dists) / total_tokens if total_tokens else 0.0))
    return ExperimentReport(rows=rows, wall_clock_s=time.perf_counter() - started)


def overall_error(report: ExperimentReport, eval_set: str) -> float:
    for row in report.rows:
        if row.eval_set == eval_set and row.bucket == "all":
            return row.token_error_rate
    raise ConfigError(f"report has no eval set {eval_set!r}")


# ---------------------------------------------------------------------------
# length sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    columns: ClassVar = ("variant", "k", "seed", "n_utterances", "token_error_rate")
    variant: str
    k: int
    seed: str  # seed value or "mean"
    n_utterances: int
    token_error_rate: float


def run_length_sweep(
    models: dict[str, TrainedModel],
    heldout: Dataset,
    lengths: list[int],
    seeds: list[int],
) -> list[SweepRow]:
    """Error rate per (variant, k), averaged over eval seeds; checks every set before decoding."""
    sets = {(k, seed): concat_eval(heldout, k, seed=seed) for k in lengths for seed in seeds}
    for model, ((k, _), eval_set) in product(models.values(), sets.items()):
        for i, utt in enumerate(eval_set):
            check_utterance(model.config, utt, f"utterance {i} of eval set concat{k}", train=False)
    rows: list[SweepRow] = []
    for variant, model in models.items():
        for k in lengths:
            per_seed = []
            for seed in seeds:
                eval_set = sets[k, seed]
                ter = overall_error(evaluate(model, {f"concat{k}": eval_set}), f"concat{k}")
                rows.append(SweepRow(variant, k, str(seed), len(eval_set), ter))
                per_seed.append(ter)
            rows.append(SweepRow(variant, k, "mean", len(eval_set), float(np.mean(per_seed))))
            log.info("sweep %s k=%d mean error %.4f", variant, k, np.mean(per_seed))
    return rows

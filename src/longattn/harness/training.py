"""Single-writer deterministic training loop."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from ..container import bounded, check_types
from ..ctc import ctc_loss_op
from ..encoder import EncoderConfig, TrainedModel, encoder_forward, init_model
from ..errors import DivergenceError
from ..numerics.optim import Adam
from ..numerics.tensor import backward, log_softmax_rows
from .synth import Dataset, SyntheticTaskConfig, gen_dataset

log = logging.getLogger("longattn")


@dataclass
class TrainSettings:
    steps: int = bounded(12000, 0)
    lr: float = bounded(2e-3, math.ulp(0.0))  # the least positive float: lr > 0
    seed: int = bounded(1, 0)

    __post_init__ = check_types


@dataclass
class TrainResult:
    curve_columns: ClassVar = ("step", "loss")  # one row (index, loss) per step
    model: TrainedModel
    curve: list[float] = field(default_factory=list)
    wall_clock_s: float = 0.0


def loss_decreased(curve: list[float]) -> bool:
    """Mean of the last 10 losses below the mean of the first 10; with fewer
    than 20, the last loss below the first."""
    if len(curve) < 20:
        return len(curve) >= 2 and curve[-1] < curve[0]
    return float(np.mean(curve[-10:])) < float(np.mean(curve[:10]))


def train_model(
    enc_cfg: EncoderConfig,
    task_cfg: SyntheticTaskConfig,
    steps: int,
    lr: float,
    seed: int,
    dataset: Dataset | None = None,
    log_every: int = 500,
) -> TrainResult:
    """Train on one utterance per step with adaptive-moment updates.

    Deterministic in (configs, steps, lr, seed): parameter init and the
    sampling order use dedicated seeded streams. Divergence (non-finite loss)
    aborts with a diagnostic rather than producing a poisoned checkpoint.
    """
    started = time.perf_counter()
    data = dataset if dataset is not None else gen_dataset(task_cfg)
    params = init_model(enc_cfg, seed=seed)
    order = np.random.default_rng([seed, 0x6F])
    optimizer = Adam(params.tensors(), lr=lr)
    curve: list[float] = []
    for step in range(steps):
        utt = data.utterances[int(order.integers(len(data)))]
        logits = encoder_forward(utt.features, params, enc_cfg)
        lattice = log_softmax_rows(logits)
        loss = ctc_loss_op(lattice, utt.labels)
        value = loss.item()
        if not math.isfinite(value):
            raise DivergenceError(
                f"training diverged at step {step}: loss = {value}; "
                f"last finite losses: {curve[-5:]}"
            )
        optimizer.zero_grad()
        backward(loss)
        optimizer.step()
        curve.append(value)
        if log_every and (step + 1) % log_every == 0:
            recent = float(np.mean(curve[-log_every:]))
            log.info("step %d/%d mean loss %.4f", step + 1, steps, recent)
    wall = time.perf_counter() - started
    meta = {
        "seed": seed,
        "steps": steps,
        "lr": lr,
        "variant": enc_cfg.variant.value,
        "final_loss": curve[-1] if curve else None,
        "task": asdict(data.task) if data.task is not None else None,
    }
    return TrainResult(model=TrainedModel(enc_cfg, params, meta), curve=curve,
                       wall_clock_s=wall)

"""Experiment harness: synthetic data, training, evaluation sweeps, heatmaps,
and memory accounting."""

from .configio import EvalSettings, ExperimentConfig, config_hash, load_config
from .evaluation import (
    ExperimentReport,
    decode_utterance,
    evaluate,
    overall_error,
    run_length_sweep,
)
from .heatmap import attention_map, dump_heatmap, write_pgm
from .memory import MemoryFootprint, memory_footprint_estimate
from .synth import (
    Dataset,
    SyntheticTaskConfig,
    Utterance,
    concat_eval,
    gen_dataset,
    heldout_task,
    load_dataset,
    save_dataset,
    token_prototypes,
)
from .training import TrainResult, TrainSettings, loss_decreased, train_model

__all__ = [
    "Dataset",
    "EvalSettings",
    "ExperimentConfig",
    "ExperimentReport",
    "MemoryFootprint",
    "SyntheticTaskConfig",
    "TrainResult",
    "TrainSettings",
    "Utterance",
    "attention_map",
    "concat_eval",
    "config_hash",
    "decode_utterance",
    "dump_heatmap",
    "evaluate",
    "gen_dataset",
    "heldout_task",
    "load_config",
    "load_dataset",
    "loss_decreased",
    "memory_footprint_estimate",
    "overall_error",
    "run_length_sweep",
    "save_dataset",
    "token_prototypes",
    "train_model",
    "write_pgm",
]

"""Experiment configuration: one JSON file, dotted flag overrides, content hash."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from ..container import bounded, build, canonical_json, check_types
from ..encoder import EncoderConfig
from ..errors import ConfigError, reading
from .evaluation import DEFAULT_BUCKET_EDGES
from .synth import SyntheticTaskConfig
from .training import TrainSettings


@dataclass
class EvalSettings:
    n_utterances: int = bounded(200, 1, 100_000)
    seed: int = bounded(99, 0)
    bucket_edges: tuple[int, ...] = DEFAULT_BUCKET_EDGES

    def __post_init__(self):
        check_types(self)
        edges = self.bucket_edges
        # the first bucket starts at 0, so every length falls in some bucket
        if not edges or edges[0] != 0 or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ConfigError(f"bucket_edges must be non-empty, start at 0 and rise "
                              f"strictly, got {list(edges)}")


@dataclass
class ExperimentConfig:
    task: SyntheticTaskConfig = field(default_factory=SyntheticTaskConfig)
    model: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)


def _apply_override(raw: dict, entry: str) -> None:
    if "=" not in entry:
        raise ConfigError(f"override must look like section.key=value, got {entry!r}")
    path, text = entry.split("=", 1)
    keys = path.strip().split(".")
    if len(keys) < 2:
        raise ConfigError(f"override path needs a section, got {path!r}")
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):  # not JSON, too long an integer, nested too deep
        value = text
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-section value")
    node[keys[-1]] = value


def resolve_config(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - {"task", "model", "train", "eval"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    task = build(SyntheticTaskConfig, raw.get("task", {}), "task")
    model_raw = raw.get("model", {})
    if isinstance(model_raw, dict):
        model_raw = {"feat_dim": task.feat_dim, "vocab_size": task.vocab_size, **model_raw}
    model = build(EncoderConfig, model_raw, "model")
    for key in ("feat_dim", "vocab_size"):
        if getattr(model, key) != getattr(task, key):
            raise ConfigError(f"model.{key} {getattr(model, key)} != task.{key} {getattr(task, key)}")
    return ExperimentConfig(task=task, model=model,
                            train=build(TrainSettings, raw.get("train", {}), "train"),
                            eval=build(EvalSettings, raw.get("eval", {}), "eval"))


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read the JSON config file (defaults when absent), then apply overrides."""
    raw: dict = {}
    if path is not None:
        with reading("config file", path), open(path, "rb") as fh:
            text = fh.read()
        try:
            raw = json.loads(text.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge int, deep nesting
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    for entry in overrides or []:
        _apply_override(raw, entry)
    return resolve_config(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    digest = hashlib.sha256(canonical_json(asdict(cfg)).encode("utf-8"))
    return digest.hexdigest()[:16]


"""Experiment configuration: one JSON file, dotted flag overrides, content hash."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from ..container import canonical_json
from ..encoder import EncoderConfig
from ..errors import ConfigError
from .evaluation import DEFAULT_BUCKET_EDGES
from .synth import SyntheticTaskConfig
from .training import TrainSettings


@dataclass
class EvalSettings:
    n_utterances: int = 200
    seed: int = 99
    bucket_edges: tuple[int, ...] = DEFAULT_BUCKET_EDGES

    def __post_init__(self):
        self.bucket_edges = tuple(self.bucket_edges)
        if self.n_utterances < 1:
            raise ConfigError("eval n_utterances must be positive")


@dataclass
class ExperimentConfig:
    task: SyntheticTaskConfig = field(default_factory=SyntheticTaskConfig)
    model: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def to_dict(self) -> dict:
        eval_dict = asdict(self.eval)
        eval_dict["bucket_edges"] = list(self.eval.bucket_edges)
        return {
            "task": self.task.to_dict(),
            "model": self.model.to_dict(),
            "train": asdict(self.train),
            "eval": eval_dict,
        }


def _apply_override(raw: dict, entry: str) -> None:
    if "=" not in entry:
        raise ConfigError(f"override must look like section.key=value, got {entry!r}")
    path, text = entry.split("=", 1)
    keys = path.strip().split(".")
    if len(keys) < 2:
        raise ConfigError(f"override path needs a section, got {path!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-section value")
    node[keys[-1]] = value


def resolve_config(raw: dict) -> ExperimentConfig:
    known = {"task", "model", "train", "eval"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    task_raw = dict(raw.get("task", {}))
    model_raw = dict(raw.get("model", {}))
    try:
        task = SyntheticTaskConfig.from_dict(task_raw)
    except TypeError as exc:
        raise ConfigError(f"bad task config: {exc}") from None
    model_raw.setdefault("feat_dim", task.feat_dim)
    model_raw.setdefault("vocab_size", task.vocab_size)
    if model_raw["feat_dim"] != task.feat_dim:
        raise ConfigError(
            f"model.feat_dim {model_raw['feat_dim']} != task.feat_dim {task.feat_dim}"
        )
    if model_raw["vocab_size"] != task.vocab_size:
        raise ConfigError(
            f"model.vocab_size {model_raw['vocab_size']} != task.vocab_size {task.vocab_size}"
        )
    try:
        model = EncoderConfig.from_dict(model_raw)
        train = TrainSettings(**raw.get("train", {}))
        eval_settings = EvalSettings(**raw.get("eval", {}))
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    return ExperimentConfig(task=task, model=model, train=train, eval=eval_settings)


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read the JSON config file (defaults when absent), then apply overrides."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    for entry in overrides or []:
        _apply_override(raw, entry)
    return resolve_config(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    digest = hashlib.sha256(canonical_json(cfg.to_dict()).encode("utf-8"))
    return digest.hexdigest()[:16]


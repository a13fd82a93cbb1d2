"""Synthetic prototype-emission task: a desk-scale stand-in for segmented
speech corpora.

Each non-blank token owns a unit-norm prototype vector; an utterance emits a
random-duration run of each token's prototype plus Gaussian noise. Half of
the tokens are built as perturbed partners of the other half, so some pairs
are only reliably separable by pooling over a run - that is what makes
attention quality visible in the error rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

import numpy as np

from ..container import bounded, build, check_types, read_container, write_container
from ..errors import ConfigError

DATASET_FORMAT = "longattn-dataset-v1"

# orthogonal tilt applied to partner prototypes; chord distance to the anchor
# is 2*sin(atan(blend)/2), ~0.30 here. Close enough that single subsampled
# frames cannot separate a pair reliably at the default noise, so models must
# pool evidence across the token's run.
PARTNER_BLEND = 0.31


@dataclass
class SyntheticTaskConfig:
    # each size's bound is far above any experiment here, and low enough that a
    # mistyped huge value exits 2 before anything is allocated
    vocab_size: int = bounded(12, 2, 1000)  # includes blank id 0
    feat_dim: int = bounded(8, 2, 1000)  # partner prototypes tilt along a second axis
    frames_per_token: tuple[int, int] = bounded((10, 16), 1, 1000)
    noise: float = bounded(0.2, 0.0)
    tokens_per_utterance: tuple[int, int] = bounded((4, 8), 1, 1000)
    # near-zero "pause" frames surrounding every token run, the natural home
    # for CTC blanks
    silence_frames: tuple[int, int] = bounded((4, 8), 0, 1000)
    n_utterances: int = bounded(600, 1, 100_000)
    seed: int = bounded(7, 0)
    # prototypes follow ``seed`` unless pinned here; held-out splits pin this
    # so they share the training prototypes while redrawing utterances
    prototype_seed: int | None = bounded(None, 0)

    def __post_init__(self):
        check_types(self)
        for name in ("frames_per_token", "tokens_per_utterance", "silence_frames"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name} must have min <= max, got {lo}..{hi}")

    @property
    def proto_seed(self) -> int:
        return self.seed if self.prototype_seed is None else self.prototype_seed


@dataclass
class Utterance:
    features: np.ndarray  # (T, feat_dim)
    labels: list[int]


@dataclass
class Dataset:
    utterances: list[Utterance]
    prototypes: np.ndarray  # (vocab_size - 1, feat_dim), row t-1 for token t
    task: SyntheticTaskConfig | None = field(repr=False, default=None)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self) -> Iterator[Utterance]:
        return iter(self.utterances)


def token_prototypes(cfg: SyntheticTaskConfig) -> np.ndarray:
    """Unit-norm prototypes; the back half are perturbed partners of the front half.

    Partners are built by tilting an anchor along an orthogonal direction, so
    every pair sits at the same controlled distance regardless of seed.
    """
    rng = np.random.default_rng([cfg.proto_seed, 0x70])
    n_tokens = cfg.vocab_size - 1
    raw = rng.normal(size=(n_tokens, cfg.feat_dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    half = n_tokens // 2
    for i in range(half, n_tokens):
        anchor = raw[i - half]
        ortho = raw[i] - (raw[i] @ anchor) * anchor
        norm = np.linalg.norm(ortho)
        if norm < 1e-9:  # degenerate draw; any orthogonal direction works
            ortho = np.zeros(cfg.feat_dim)
            ortho[int(np.argmin(np.abs(anchor)))] = 1.0
            ortho -= (ortho @ anchor) * anchor
            norm = np.linalg.norm(ortho)
        tilted = anchor + PARTNER_BLEND * ortho / norm
        raw[i] = tilted / np.linalg.norm(tilted)
    return raw


def gen_dataset(cfg: SyntheticTaskConfig) -> Dataset:
    """Sample ``n_utterances`` token sequences and their noisy emissions.

    Deterministic in ``cfg.seed``: same config, bit-identical dataset.
    """
    prototypes = token_prototypes(cfg)
    rng = np.random.default_rng([cfg.seed, 0x75])
    t_lo, t_hi = cfg.tokens_per_utterance
    d_lo, d_hi = cfg.frames_per_token
    s_lo, s_hi = cfg.silence_frames
    utterances = []
    for _ in range(cfg.n_utterances):
        n_tok = int(rng.integers(t_lo, t_hi + 1))
        tokens = rng.integers(1, cfg.vocab_size, size=n_tok)
        durations = rng.integers(d_lo, d_hi + 1, size=n_tok)
        gaps = rng.integers(s_lo, s_hi + 1, size=n_tok + 1)
        pieces = [np.zeros((gaps[0], cfg.feat_dim))]
        for tok, dur, gap in zip(tokens, durations, gaps[1:]):
            pieces.append(np.repeat(prototypes[tok - 1][None, :], dur, axis=0))
            pieces.append(np.zeros((gap, cfg.feat_dim)))
        clean = np.concatenate(pieces, axis=0)
        noise = rng.normal(0.0, cfg.noise, size=clean.shape) if cfg.noise > 0 else 0.0
        utterances.append(Utterance(features=clean + noise, labels=[int(t) for t in tokens]))
    return Dataset(utterances=utterances, prototypes=prototypes, task=cfg)


def concat_eval(dataset: Dataset, k: int, seed: int) -> Dataset:
    """Long-utterance evaluation set: shuffle, then concatenate runs of ``k``.

    With k=1 this is a permutation of the source. Features and labels are
    concatenated; leftover utterances (when k does not divide the size) drop.
    """
    if k < 1:
        raise ConfigError(f"concatenation factor must be >= 1, got {k}")
    if seed < 0:
        raise ConfigError(f"eval seed must be non-negative, got {seed}")
    if k > len(dataset):
        raise ConfigError(
            f"concatenation factor {k} exceeds dataset size {len(dataset)}"
        )
    rng = np.random.default_rng([seed, 0x63, k])
    order = rng.permutation(len(dataset))
    utterances = []
    for g in range(len(dataset) // k):
        chunk = [dataset.utterances[i] for i in order[g * k:(g + 1) * k]]
        utterances.append(Utterance(
            features=np.concatenate([u.features for u in chunk], axis=0),
            labels=[t for u in chunk for t in u.labels],
        ))
    return Dataset(utterances=utterances, prototypes=dataset.prototypes, task=dataset.task)


def save_dataset(path, dataset: Dataset) -> None:
    meta = {"format": DATASET_FORMAT, "task": asdict(dataset.task) if dataset.task else None}
    arrays: list[tuple[str, np.ndarray]] = [("prototypes", dataset.prototypes)]
    for i, utt in enumerate(dataset.utterances):
        arrays.append((f"u{i:05d}.features", utt.features))
        arrays.append((f"u{i:05d}.labels", np.array([utt.labels], dtype=np.int64)))
    write_container(path, meta, arrays)


def load_dataset(path) -> Dataset:
    meta, arrays = read_container(path)
    if meta.get("format") != DATASET_FORMAT:
        raise ConfigError(f"{path}: not a {DATASET_FORMAT} file")
    task = (None if meta.get("task") is None
            else build(SyntheticTaskConfig, meta["task"], f"{path}: task metadata"))
    if "prototypes" not in arrays:
        raise ConfigError(f"{path}: dataset has no prototypes array")
    prototypes = arrays.pop("prototypes")
    utterances = []
    i = 0
    while f"u{i:05d}.features" in arrays:
        if f"u{i:05d}.labels" not in arrays:
            raise ConfigError(f"{path}: utterance {i} has features but no labels")
        features, labels = arrays.pop(f"u{i:05d}.features"), arrays.pop(f"u{i:05d}.labels")
        if features.shape[1:] != prototypes.shape[1:]:
            raise ConfigError(f"{path}: utterance {i} features have shape {features.shape}, "
                              f"but the prototypes are {prototypes.shape[1]} wide")
        if labels.shape[0] != 1:
            raise ConfigError(f"{path}: utterance {i} labels must be one row, "
                              f"got shape {labels.shape}")
        utterances.append(Utterance(features=features, labels=[int(t) for t in labels[0]]))
        i += 1
    if not utterances:
        raise ConfigError(f"{path}: dataset has no utterances (no array u00000.features)")
    if arrays:
        raise ConfigError(f"{path}: array {min(arrays)!r} is not one of the prototypes or "
                          f"the utterances u00000..u{i - 1:05d}")
    return Dataset(utterances=utterances, prototypes=prototypes, task=task)


def heldout_task(cfg: SyntheticTaskConfig, seed: int, n_utterances: int) -> SyntheticTaskConfig:
    """Same distribution and prototypes, disjoint utterance stream."""
    return replace(cfg, seed=seed, n_utterances=n_utterances, prototype_seed=cfg.proto_seed)

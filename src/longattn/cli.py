"""Experiment command line.

Subcommands: gen-data, train, eval, sweep, heatmap, memcheck. Configuration
comes from one JSON file plus ``--set section.key=value`` overrides; every
output path is explicit. Exit codes: 0 success, 2 configuration error,
3 runtime or divergence error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import traceback
from dataclasses import astuple

from .attention.params import AttentionVariant
from .container import build, write_csv
from .encoder import TrainedModel, check_utterance, load_checkpoint, save_checkpoint
from .errors import ConfigError, DivergenceError, LongattnError, reading
from .harness.configio import config_hash, load_config
from .harness.evaluation import ReportRow, SweepRow, evaluate, run_length_sweep
from .harness.heatmap import dump_heatmap
from .harness.memory import MemoryFootprint, check_lengths, memory_footprint_estimate
from .harness.synth import (SyntheticTaskConfig, concat_eval, gen_dataset, heldout_task,
                             load_dataset, save_dataset)
from .harness.training import TrainResult, train_model

log = logging.getLogger("longattn")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"expected a non-empty comma-separated integer list, got {text!r}")
    return values


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file (defaults used when absent)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override one config value")


def _load(args) -> tuple:
    cfg = load_config(args.config, args.overrides)
    return cfg, config_hash(cfg)


def _check_outputs(args) -> None:
    """Every file a command writes goes into a directory that exists, and is not
    itself a directory."""
    for name in ("out", "curve", "out_prefix"):
        path = getattr(args, name, None)
        if path is None:
            continue
        flag = f"--{name.replace('_', '-')} {path}"
        for file in (f"{path}.csv", f"{path}.pgm") if name == "out_prefix" else (path,):
            if not os.path.isdir(os.path.dirname(file) or "."):
                raise ConfigError(f"{flag}: no such directory")
            if os.path.isdir(file):
                raise ConfigError(f"{flag}: {file} is a directory")


def _heldout_dataset(cfg):
    return gen_dataset(heldout_task(cfg.task, cfg.eval.seed, cfg.eval.n_utterances))


def cmd_gen_data(args) -> int:
    cfg, digest = _load(args)
    dataset = gen_dataset(cfg.task)
    save_dataset(args.out, dataset)
    frames = sum(u.features.shape[0] for u in dataset)
    log.info("wrote %d utterances (%d frames) to %s [config %s]",
             len(dataset), frames, args.out, digest)
    return 0


def cmd_train(args) -> int:
    if args.variant is not None:
        args.overrides = list(args.overrides) + [f"model.variant={args.variant}"]
    for name in ("steps", "lr", "seed"):
        value = getattr(args, name)
        if value is not None:
            args.overrides.append(f"train.{name}={value}")
    cfg, digest = _load(args)
    if args.data is None:
        dataset, source = gen_dataset(cfg.task), "the task config"
    else:
        with reading("dataset", args.data):
            dataset = load_dataset(args.data)
        if dataset.task is not None and dataset.task != cfg.task:
            raise ConfigError(f"dataset {args.data} was generated from a different task config")
        source = f"dataset {args.data}"
    for i, utt in enumerate(dataset):
        check_utterance(cfg.model, utt, f"training utterance {i} from {source}", train=True)
    result = train_model(cfg.model, cfg.task, cfg.train.steps, cfg.train.lr,
                         cfg.train.seed, dataset=dataset)
    result.model.meta["config_hash"] = digest
    try:
        save_checkpoint(args.out, result.model)
    except ConfigError as exc:  # the writer refuses the weights of a diverged model
        raise DivergenceError(f"training diverged: {exc}") from None
    if args.curve is not None:
        write_csv(args.curve, f"config_hash={digest}",
                  [TrainResult.curve_columns, *enumerate(result.curve)])
    log.info("trained %s for %d steps in %.1fs, final loss %.4f -> %s",
             cfg.model.variant.value, cfg.train.steps, result.wall_clock_s,
             result.curve[-1] if result.curve else float("nan"), args.out)
    return 0


def _load_model(path, cfg) -> TrainedModel:
    """The checkpoint at ``path``; it must take the task's features, tokens and prototypes."""
    with reading("checkpoint", path):
        model = load_checkpoint(path)
    if model.config.feat_dim != cfg.task.feat_dim:
        raise ConfigError(f"checkpoint {path} takes {model.config.feat_dim}-wide features, "
                          f"but task.feat_dim is {cfg.task.feat_dim}")
    if model.config.vocab_size != cfg.task.vocab_size:
        raise ConfigError(f"checkpoint {path} was trained on task.vocab_size "
                          f"{model.config.vocab_size}, not {cfg.task.vocab_size}")
    task = model.meta.get("task") if isinstance(model.meta, dict) else None
    if task is not None:
        task = build(SyntheticTaskConfig, task, f"checkpoint {path}: task metadata")
        seed = "task.seed" if cfg.task.prototype_seed is None else "task.prototype_seed"
        if task.proto_seed != cfg.task.proto_seed:
            raise ConfigError(f"checkpoint {path} was trained on the prototypes of {seed} "
                              f"{task.proto_seed}, not {cfg.task.proto_seed}")
    return model


def cmd_eval(args) -> int:
    cfg, digest = _load(args)
    model = _load_model(args.checkpoint, cfg)
    eval_set = concat_eval(_heldout_dataset(cfg), args.concat_k, seed=args.eval_seed)
    report = evaluate(model, {f"concat{args.concat_k}": eval_set},
                      bucket_edges=cfg.eval.bucket_edges)
    write_csv(args.out, f"config_hash={digest} checkpoint={args.checkpoint} seed={args.eval_seed}",
              [ReportRow.columns, *map(astuple, report.rows)])
    for row in report.rows:
        log.info("%s %s: %d utts, error %.4f", row.eval_set, row.bucket,
                 row.n_utterances, row.token_error_rate)
    log.info("report -> %s (%.1fs)", args.out, report.wall_clock_s)
    return 0


def cmd_sweep(args) -> int:
    cfg, digest = _load(args)
    specs = {}
    for item in args.checkpoint:
        if "=" not in item:
            raise ConfigError(f"--checkpoint takes VARIANT=PATH, got {item!r}")
        name, path = item.split("=", 1)
        AttentionVariant.parse(name)
        if name in specs:
            raise ConfigError(f"--checkpoint label {name!r} is given more than once")
        specs[name] = path
    models = {}
    for name, path in specs.items():
        model = _load_model(path, cfg)
        if model.config.variant.value != name:
            raise ConfigError(
                f"checkpoint {path} holds variant {model.config.variant.value!r}, "
                f"labelled {name!r}"
            )
        models[name] = model
    heldout = _heldout_dataset(cfg)
    rows = run_length_sweep(models, heldout, _int_list(args.lengths), _int_list(args.seeds))
    write_csv(args.out, f"config_hash={digest}", [SweepRow.columns, *map(astuple, rows)])
    log.info("sweep -> %s", args.out)
    return 0


def cmd_heatmap(args) -> int:
    cfg, digest = _load(args)
    model = _load_model(args.checkpoint, cfg)
    eval_set = concat_eval(_heldout_dataset(cfg), args.concat_k, seed=args.eval_seed)
    if not (0 <= args.utterance < len(eval_set)):
        raise ConfigError(f"utterance {args.utterance} out of range [0, {len(eval_set)})")
    utt = eval_set.utterances[args.utterance]
    check_utterance(model.config, utt, f"utterance {args.utterance} of eval set "
                    f"concat{args.concat_k}", train=False)
    attn = dump_heatmap(model, utt.features, args.layer, args.head, args.out_prefix,
                        config_hash=digest)
    log.info("heatmap %dx%d -> %s.csv / %s.pgm", attn.shape[0], attn.shape[1],
             args.out_prefix, args.out_prefix)
    return 0


def cmd_memcheck(args) -> int:
    cfg, digest = _load(args)
    if args.variants == "all":
        variants = list(AttentionVariant)
    else:
        variants = [AttentionVariant.parse(v) for v in args.variants.split(",") if v]
        if not variants:
            raise ConfigError("--variants needs at least one variant, or 'all'")
    lengths = check_lengths(_int_list(args.lengths))
    rows = [memory_footprint_estimate(variant, length, cfg.model)
            for variant in variants for length in lengths]
    if args.out:
        write_csv(args.out, f"config_hash={digest}",
                  [MemoryFootprint.columns, *map(astuple, rows)])
    for r in rows:
        log.info("%-22s L=%-5d analytic=%-10d measured=%d",
                 r.variant, r.length, r.analytic, r.measured)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longattn",
                                     description="attention length-mismatch experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    _common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant and write a checkpoint")
    _common(p)
    p.add_argument("--variant", default=None,
                   choices=[v.value for v in AttentionVariant])
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data", default=None, help="pre-generated dataset file")
    p.add_argument("--curve", default=None, help="write the loss curve CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on concatenated held-out data")
    _common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--concat-k", type=int, default=1)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="error-vs-length sweep over trained checkpoints")
    _common(p)
    p.add_argument("--checkpoint", action="append", required=True,
                   metavar="VARIANT=PATH")
    p.add_argument("--lengths", default="1,8,16")
    p.add_argument("--seeds", default="0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("heatmap", help="dump one head's attention matrix")
    _common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--head", type=int, required=True)
    p.add_argument("--utterance", type=int, default=0)
    p.add_argument("--concat-k", type=int, default=1)
    p.add_argument("--eval-seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("memcheck", help="attention-path memory accounting")
    _common(p)
    p.add_argument("--lengths", default="64,128,256,512")
    p.add_argument("--variants", default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_memcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LongattnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:  # runtime contract: anything unexpected is exit 3
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

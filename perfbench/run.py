"""longattn benchmark: train-short, eval-long and eval-short.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 10 --trace 0

Every workload is a closed loop with one client in one process. With
``--trace 0`` the run measures the end-to-end metrics with no tracing at
all. With ``--trace 1`` it measures half the time untraced, then replays the
same operations with every layer wrapped in spans, which gives the per-layer
split and the tracing overhead, then replays one round under tracemalloc for
the forward-pass memory peak. The spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json``.

Every reported time is scaled by the speed probe of ``speed.py`` to a nominal
host, so that a host whose speed drifts does not move the figures; the raw
end-to-end times are printed in brackets.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when an output check failed and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("train-short", "eval-long", "eval-short")
# set-up runs at least SETUP_REPEATS times and for SETUP_SECONDS; setup_s is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
WARMUP_SECONDS = 1.0

# name -> unit; the names and units BENCHMARK.json lists
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "frames_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "encoder.forward_ms": "ms",
    "encoder.subsample_ms": "ms",
    "encoder.block_ms": "ms",
    "encoder.ffn_ms": "ms",
    "attention.mha_ms": "ms",
    "attention.weights_ms": "ms",
    "tensor.forward_peak_mb": "MB",
    "attention.pair_elements": "count",
    "synth.gen_dataset_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.uncovered_pct": "%",
}
# What the generic end-to-end names mean for each kind of operation.
ALIASES = {
    "step": {"ops_per_s": "steps_per_s", "op_ms_p50": "step_ms_p50",
             "op_ms_p90": "step_ms_p90"},
    "utt": {"ops_per_s": "utts_per_s", "op_ms_p50": "utt_ms_p50",
            "op_ms_p90": "utt_ms_p90"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="longattn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def missing_program(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that ``longattn``
    comes from there, not from an installed copy."""
    src = ROOT / "src"
    if not (src / "longattn" / "__init__.py").is_file():
        missing_program(f"no longattn sources under {src}")
    # one client, one thread: BLAS must not add threads of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import longattn

    if Path(longattn.__file__).resolve().parent != (src / "longattn").resolve():
        missing_program(f"imported longattn from {longattn.__file__}, not from {src}")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_rounds(workload, state, rec, seconds: float = 0.0, rounds: int = 1,
               per_pass: int = 1) -> tuple[int, float]:
    """Run rounds from round 0: at least ``rounds`` of them and until ``seconds``
    have passed, stopping only after a multiple of ``per_pass`` rounds.
    Returns the rounds run and the wall time."""
    start = time.perf_counter()
    done = 0
    while True:
        workload.run_round(state, done, rec)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= rounds and elapsed >= seconds and done % per_pass == 0:
            return done, elapsed


# set-up span name -> (metric, unit, ns per unit)
SETUP_LAYERS = {
    "synth.gen_dataset": ("synth.gen_dataset_ms", "ms", 1e6),
    "synth.concat_eval": ("synth.concat_eval_ms", "ms", 1e6),
    "training.setup_train": ("training.setup_train_s", "s", 1e9),
    "container.save": ("container.save_ms", "ms", 1e6),
    "container.load": ("container.load_ms", "ms", 1e6),
}
# train-step phase span -> the name of its per-variant metric
TRAIN_PHASES = {"train.step": "step", "encoder.forward": "forward", "ctc.loss": "ctc",
                "tensor.backward": "backward", "optim.adam": "adam"}


def layer_metrics(tracer, rec, setup_spans, setup_scales, traced_ms, untraced_ms, peaks):
    """Every per-layer metric of the traced run as name -> (value, unit). Times
    are scaled, and per operation of the traced pass unless the name says
    otherwise."""
    from tracing import span_totals
    from workloads import BENCH_SPANS

    incl, self_ = span_totals(tracer.spans)
    traced = [r for r in rec.ops if r.phase == "traced"]
    incl_ns: dict[str, float] = defaultdict(float)
    self_ns: dict[str, float] = defaultdict(float)
    tagged: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0])
    uncovered = op_total = 0.0
    for span, d_incl, d_self in zip(tracer.spans, incl, self_):
        _, name, tag, _, _, parent, op_id = span
        if op_id is None:  # a set-up span
            continue
        scale = rec.ops[op_id].scale
        d_incl *= scale
        d_self *= scale
        incl_ns[name] += d_incl
        self_ns[name] += d_self
        tagged[name, tag][0] += d_incl
        tagged[name, tag][1] += 1
        if parent is None:
            op_total += d_incl
            uncovered += d_incl
        elif name not in BENCH_SPANS and tracer.spans[parent][1] in BENCH_SPANS:
            uncovered -= d_incl  # an outermost call into the program

    metrics = {f"{name}_ms": (ns / 1e6 / len(traced), "ms")
               for name, ns in sorted(incl_ns.items()) if name not in BENCH_SPANS}
    metrics["encoder.ffn_ms"] = (self_ns["encoder.block"] / 1e6 / len(traced), "ms")
    metrics["tensor.forward_peak_mb"] = (max(peaks) / 2**20, "MB")
    metrics["trace.overhead_pct"] = (100 * (traced_ms - untraced_ms) / untraced_ms, "%")
    metrics["trace.overhead_ms"] = ((traced_ms - untraced_ms) / len(traced), "ms")
    metrics["trace.uncovered_pct"] = (100 * uncovered / op_total, "%")
    for key in sorted({key for r in traced for key in r.counts}):
        metrics[key] = (statistics.fmean(r.counts[key] for r in traced), "count")
    steps = {tag: calls for (name, tag), (_, calls) in tagged.items() if name == "train.step"}
    for (name, tag), (ns, calls) in sorted(tagged.items()):
        if name in TRAIN_PHASES and tag in steps:
            metrics[f"train.{tag}.{TRAIN_PHASES[name]}_ms"] = (ns / 1e6 / steps[tag], "ms")
        elif name == "eval.model":
            metrics[f"eval.{tag}.utt_ms"] = (ns / 1e6 / calls, "ms")
    # set-up layers: the median over the set-up repeats of each repeat's total
    per_repeat: dict[str, list[float]] = defaultdict(list)
    for repeat, scale in zip(setup_spans, setup_scales):
        sums: dict[str, float] = defaultdict(float)
        for span in repeat:
            sums[span[1]] += (span[4] - span[3]) * scale
        for name, ns in sums.items():
            per_repeat[name].append(ns)
    for name, values in per_repeat.items():
        key, unit, scale = SETUP_LAYERS[name]
        metrics[key] = (statistics.median(values) / scale, unit)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from speed import NOMINAL_MS, SpeedProbe
    from tracing import Tracer, call_peaks
    from workloads import (FORWARD_TARGETS, RUN_TARGETS, SETUP_TARGETS, Recorder,
                           make_workload)

    OUT.mkdir(exist_ok=True)
    workload = make_workload(workload_name, seed, OUT)
    tracer = Tracer() if trace else None
    rec = Recorder()
    probe = SpeedProbe()
    probe.warm()

    setup_raw: list[float] = []
    setup_scales: list[float] = []
    setup_spans: list[list[list]] = []
    fingerprints: set[str] = set()
    setups_started = time.perf_counter()
    while (len(setup_raw) < SETUP_REPEATS
           or time.perf_counter() - setups_started < SETUP_SECONDS):
        first_span = len(tracer.spans) if tracer else 0
        probe.sample()
        with tracer.patched(SETUP_TARGETS) if tracer else nullcontext():
            start = time.perf_counter()
            state = workload.setup(probe.maybe_sample)
            end = time.perf_counter()
        probe.sample()
        setup_raw.append(end - start)
        setup_scales.append(probe.scale(start, end))
        if tracer:
            setup_spans.append([s for s in tracer.spans[first_span:] if s[5] is None])
        fingerprints.add(workload.fingerprint(state))
    if len(fingerprints) != 1:
        rec.problem("repeated set-ups gave different inputs or checkpoints")
    for message in workload.prepare(state):
        rec.problem(message)

    rec.probe = probe
    run_rounds(workload, state, rec, seconds=WARMUP_SECONDS)
    rec.phase = "measure"
    rounds, _ = run_rounds(workload, state, rec, seconds=seconds / 2 if trace else seconds,
                           per_pass=workload.rounds_per_pass(state))
    if tracer:
        rec.phase = "traced"
        rec.tracer = tracer
        with tracer.patched(RUN_TARGETS):
            run_rounds(workload, state, rec, rounds=rounds)
        rec.tracer = None
    probe.sample()
    rec.probe = None
    for r in rec.ops:
        if r.phase in ("measure", "traced"):
            r.scale = probe.scale(r.start, r.start + r.ms / 1e3)
    layers = None
    if tracer:
        rec.phase = "memory"
        peaks: list[int] = []
        with call_peaks(FORWARD_TARGETS, peaks):
            run_rounds(workload, state, rec)
        layers = layer_metrics(
            tracer, rec, setup_spans, setup_scales,
            sum(r.ms * r.scale for r in rec.ops if r.phase == "traced"),
            sum(r.ms * r.scale for r in rec.ops if r.phase == "measure"), peaks)
    for path in getattr(state, "checkpoints", ()):
        path.unlink(missing_ok=True)

    measured = [r for r in rec.ops if r.phase == "measure"]

    def figures(times_ms: list[float], setup: list[float]) -> dict[str, float]:
        total_s = sum(times_ms) / 1e3
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(times_ms) / total_s,
            "frames_per_s": sum(r.frames for r in measured) / total_s,
            "op_ms_p50": percentile(times_ms, 50),
            "op_ms_p90": percentile(times_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    end_to_end = figures([r.ms * r.scale for r in measured],
                         [t * k for t, k in zip(setup_raw, setup_scales)])
    raw = figures([r.ms for r in measured], setup_raw)
    failed = sum(not r.ok for r in rec.ops)
    attempted = len(rec.ops)
    correct = failed == 0 and not rec.problems

    print(f"workload {workload_name}  seed {seed}  closed loop, one client  "
          f"{len(measured)} operations in {rounds} rounds, "
          f"{sum(r.ms for r in measured) / 1e3:.2f} s untraced")
    print(f"speed probe: median {statistics.median(probe.ms):.3f} ms over {len(probe.ms)} "
          f"probes, nominal {NOMINAL_MS} ms; times below are scaled to the nominal host "
          f"(raw in brackets)")
    aliases = ALIASES[workload.op_kind]
    for name, value in end_to_end.items():
        alias = aliases.get(name, name)
        print(f"  {name:<24} {value:>16.6f} {END_TO_END[name]:<6} ({alias})  [{raw[name]:.6f}]")
    print(f"  {'failed_ratio':<24} {failed / attempted:>16.6f} {'ratio':<6} "
          f"({failed} of {attempted} operations failed a check or raised)")
    for variant, ter in getattr(state, "ter", {}).items():
        print(f"  k=1 token error rate of {variant}: {ter:.4f}")
    if layers is not None:
        print("per-layer (traced run, per operation unless stated; * in BENCHMARK.json):")
        for name, (value, unit) in layers.items():
            notes = ("*" if name in PER_LAYER else " ") + (" computed" if unit == "count" else "")
            print(f"  {name:<40} {value:>16.6f} {unit:<6} {notes}")
        trace_path = OUT / f"trace-{workload_name}-seed{seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload_name, "seed": seed,
                       "span_fields": ["id", "name", "tag", "start_ns", "end_ns",
                                       "parent_id", "op_id"],
                       "spans": tracer.spans,
                       "metrics": layers}, fh)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    if not correct:
        print(f"perfbench: {workload_name}: OUTPUT CHECKS FAILED "
              f"({failed} operations, {len(rec.problems)} problems)", file=sys.stderr)

    if trace:
        metrics = {k: {"value": layers[k][0], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

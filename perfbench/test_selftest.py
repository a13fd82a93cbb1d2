"""Smoke-size self-test of the benchmark, run from the root of a checkout:

    python3 -m pytest perfbench/test_selftest.py

It shrinks the set-up repeats, the warm-up and the held-out set, runs each
workload once traced, and checks that every metric is printed with a unit,
that the wrapped ``longattn`` functions are restored afterwards, and that a
failed output check makes the run fail.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import speed  # noqa: E402
import workloads  # noqa: E402

VARIANTS = ("standard", "soft_mask", "relative_pe", "shared_qk", "gaussian",
            "gaussian_frame_index", "standard_frame_index")
COMMON = {"setup_s", "frames_per_s", "peak_rss_mb", "failed_ratio",
          "encoder.forward_ms", "encoder.subsample_ms", "encoder.block_ms",
          "encoder.ffn_ms", "attention.mha_ms", "attention.weights_ms",
          "tensor.forward_peak_mb", "attention.pair_elements", "synth.gen_dataset_ms",
          "trace.overhead_pct", "trace.uncovered_pct"}
EXPECTED = {
    "train-short": COMMON | {
        "steps_per_s", "step_ms_p50", "step_ms_p90", "ctc.loss_ms", "tensor.backward_ms",
        "optim.zero_grad_ms", "optim.adam_ms", "ctc.lattice_cells",
    } | {f"train.{v}.{p}_ms" for v in VARIANTS
         for p in ("step", "forward", "ctc", "backward", "adam")},
    "eval-long": COMMON | {
        "utt_ms_p50", "utt_ms_p90", "ctc.greedy_ms", "ctc.edit_distance_ms",
        "ctc.edit_cells", "synth.concat_eval_ms", "training.setup_train_s",
        "container.save_ms", "container.load_ms",
    } | {f"eval.{v}.k{k}.utt_ms" for v in workloads.EVAL_MODELS for k in (16, 32)},
}
EXPECTED["eval-short"] = (EXPECTED["eval-long"] - {
    f"eval.{v}.k{k}.utt_ms" for v in workloads.EVAL_MODELS for k in (16, 32)
}) | {f"eval.{v}.k1.utt_ms" for v in workloads.EVAL_MODELS}

LINE = re.compile(r"^\s+(\S+)\s+(-?\d+\.\d+)\s+(\S+)(?:\s+\((\S+)\))?")


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WARMUP_SECONDS", 0.0)
    monkeypatch.setattr(workloads, "HELDOUT_UTTERANCES", 64)


def run_bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def printed_units(lines) -> dict[str, str]:
    units = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            name, _, unit, alias = match.groups()
            units[name] = unit
            if alias:
                units[alias] = unit
    return units


def wrapped_attributes() -> dict:
    targets = workloads.RUN_TARGETS + workloads.SETUP_TARGETS
    return {(owner, attr): getattr(owner, attr)
            for owner, attr, *_ in targets + workloads.FORWARD_TARGETS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_metric_and_restores_the_program(smoke, capsys, workload):
    originals = wrapped_attributes()
    code, lines, result = run_bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert all(m["unit"] == run.PER_LAYER[k] for k, m in result["metrics"].items())
    units = printed_units(lines)
    missing = EXPECTED[workload] - set(units)
    assert not missing, f"not printed with a unit: {sorted(missing)}"
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner}.{attr} left wrapped"


def test_failed_check_fails_the_run(smoke, capsys, monkeypatch):
    monkeypatch.setattr(workloads.training, "loss_decreased", lambda curve: False)
    code, _, result = run_bench(capsys, "train-short", trace=0)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_speed_probe_scales_by_the_median_probe_around_an_interval():
    probe = speed.SpeedProbe(window_s=1.0)
    probe.times = [1.0, 2.0, 3.0, 4.0, 9.0]
    probe.ms = [10.0, 20.0, 40.0, 80.0, 160.0]
    # the probes within a second of [2.5, 3.2]: 20, 40 and 80 ms
    assert probe.scale(2.5, 3.2) == speed.NOMINAL_MS / 40.0
    # none within the window after 6.0: the nearest on each side still count
    assert probe.scale(6.0, 6.1) == speed.NOMINAL_MS / 120.0

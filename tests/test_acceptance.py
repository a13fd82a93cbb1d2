"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them. The trend criterion
trains the three compared variants at the shipped default budget, so this
module takes a few minutes of CPU.
"""

import itertools
import math
import multiprocessing
import multiprocessing.pool
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from conftest import head_weights, mul, screen_seed, sum_all
from longattn.attention import (
    AttentionVariant,
    attn_kernel_form,
    init_attention_params,
)
from longattn.container import write_csv
from longattn.ctc import ctc_brute_force, ctc_loss, ctc_loss_op, min_frames_required
from longattn.encoder import EncoderConfig, encoder_forward, init_model, save_checkpoint
from longattn.errors import InfeasibleAlignmentError
from longattn.harness import (
    attention_map,
    concat_eval,
    evaluate,
    gen_dataset,
    heldout_task,
    overall_error,
    memory_footprint_estimate,
    train_model,
)
from longattn.harness.configio import resolve_config
from longattn.harness.evaluation import ReportRow
from longattn.numerics import check_gradients, const, param

GRAD_TOL = 1e-5
SEEDS = range(5)


def report(num: int, text: str) -> None:
    print(f"[criterion {num}] PASS  {text}")


def make_params(variant, d_model, d_k, d_v, seed):
    rng = np.random.default_rng(seed)
    return init_attention_params(variant, d_model, d_k, d_v, 100.0, rng)


# ---------------------------------------------------------------------------
# 1. shared-QK / kernel-form identity
# ---------------------------------------------------------------------------


def test_criterion_1_kernel_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 17))
        D = int(rng.integers(1, 9))
        d_k = int(rng.integers(1, 9))
        x = rng.normal(size=(L, D))
        w_s = rng.normal(scale=1.0 / math.sqrt(D + 1), size=(d_k, D + 1))
        direct = head_weights(x, {"w_s": const(w_s)}, AttentionVariant.SHARED_QK).data
        rewritten = attn_kernel_form(x, w_s)
        worst = max(worst, np.abs(rewritten - direct).max() / np.abs(direct).max())
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, f"kernel-form identity on 100 instances, max rel err {worst:.2e}, "
              f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. shift invariance
# ---------------------------------------------------------------------------


def test_criterion_2_shift_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(20):
        p = make_params(AttentionVariant.GAUSSIAN, 4, 4, 4, 2000 + trial)
        x = rng.normal(size=(8, 4))
        base = head_weights(x, p, AttentionVariant.GAUSSIAN).data
        for _ in range(5):
            c = rng.normal(size=(1, 4))
            shifted = head_weights(x + c, p, AttentionVariant.GAUSSIAN).data
            worst = max(worst, np.abs(shifted - base).max())
    assert worst <= 1e-10

    hits = 0
    for trial in range(100):
        p = make_params(AttentionVariant.STANDARD, 4, 4, 4, 3000 + trial)
        x = rng.normal(size=(6, 4))
        base = head_weights(x, p, AttentionVariant.STANDARD).data
        for _ in range(10):
            c = rng.normal(size=(1, 4))
            if np.abs(head_weights(x + c, p, AttentionVariant.STANDARD).data
                      - base).max() > 1e-3:
                hits += 1
                break
    elapsed = time.perf_counter() - started
    assert hits >= 95
    assert elapsed < 5.0
    report(2, f"Gaussian shift-invariant to {worst:.2e}; standard witness found in "
              f"{hits}/100 trials, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. index-translation invariance
# ---------------------------------------------------------------------------


def test_criterion_3_index_translation():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(20):
        p = make_params(AttentionVariant.GAUSSIAN_FRAME_INDEX, 4, 4, 4, 4000 + trial)
        x = rng.normal(size=(9, 4))
        outs = [head_weights(x, p, AttentionVariant.GAUSSIAN_FRAME_INDEX,
                             alpha=100.0, start_index=s).data
                for s in (0, 37, 1000)]
        worst = max(worst, np.abs(outs[1] - outs[0]).max(),
                    np.abs(outs[2] - outs[0]).max())
    assert worst <= 1e-10

    hits = 0
    for trial in range(100):
        p = make_params(AttentionVariant.STANDARD_FRAME_INDEX, 4, 4, 4, 5000 + trial)
        x = rng.normal(size=(6, 4))
        base = head_weights(x, p, AttentionVariant.STANDARD_FRAME_INDEX,
                            alpha=100.0, start_index=0).data
        moved = head_weights(x, p, AttentionVariant.STANDARD_FRAME_INDEX,
                             alpha=100.0, start_index=1000).data
        hits += np.abs(moved - base).max() > 1e-3
    assert hits >= 95
    report(3, f"Gaussian+frame-index invariant across offsets 0/37/1000 to {worst:.2e}; "
              f"standard+frame-index violated in {hits}/100 trials")


# ---------------------------------------------------------------------------
# 4. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_suite():
    started = time.perf_counter()
    worst_overall = 0.0
    # every attention variant
    for variant in AttentionVariant:
        for seed in SEEDS:
            rng = np.random.default_rng(6000 + 17 * seed)
            params = init_attention_params(variant, 4, 3, 4, 100.0, rng)
            x = param(rng.normal(size=(5, 4)))
            probe = const(rng.normal(size=(5, 5)))

            def f():
                attn = head_weights(x, params, variant, alpha=100.0, start_index=2)
                return sum_all(mul(probe, attn))

            named = [("x", x)] + [(n, t) for n, t in params.items() if n != "w_v"]
            errors = check_gradients(f, named)
            worst = max(errors.values())
            worst_overall = max(worst_overall, worst)
            assert worst <= GRAD_TOL, (variant.value, seed, errors)

    # full toy encoder (2 layers, d_model 8, 6 output frames)
    enc_cfg = EncoderConfig(feat_dim=3, d_model=8, n_layers=2, n_heads=2, d_k=4,
                            d_ff=16, subsample_factor=4, vocab_size=4,
                            variant=AttentionVariant.GAUSSIAN_FRAME_INDEX)
    for seed in SEEDS:
        state = {}

        def make_case(s):
            params = init_model(enc_cfg, seed=s, zero_residual=False)
            rng = np.random.default_rng(s + 13)
            feats = rng.normal(size=(24, enc_cfg.feat_dim))
            probe = const(rng.normal(size=(6, enc_cfg.vocab_size)))

            def f():
                return sum_all(mul(probe, encoder_forward(feats, params, enc_cfg)))

            state["f"], state["params"] = f, params
            return f

        screen_seed(make_case, 7000 + seed)
        errors = check_gradients(state["f"], state["params"].named())
        worst = max(errors.values())
        worst_overall = max(worst_overall, worst)
        assert worst <= GRAD_TOL, (seed, max(errors.items(), key=lambda kv: kv[1]))

    # CTC loss through the lattice
    for seed in SEEDS:
        rng = np.random.default_rng(8000 + seed)
        logits = rng.normal(size=(5, 4))
        lattice = param(logits - np.log(np.exp(logits).sum(axis=1, keepdims=True)))
        errors = check_gradients(lambda: ctc_loss_op(lattice, [1, 3]),
                                 [("lattice", lattice)])
        worst_overall = max(worst_overall, errors["lattice"])
        assert errors["lattice"] <= GRAD_TOL

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(4, f"all variants + encoder + ctc vs finite differences, worst rel err "
              f"{worst_overall:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. CTC oracle equivalence and completeness
# ---------------------------------------------------------------------------


def test_criterion_5_ctc_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    vocab = 3
    worst = 0.0
    for n_frames in range(1, 7):
        logits = rng.normal(size=(n_frames, vocab))
        lattice = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        for n_labels in range(0, 4):
            for labels in itertools.product([1, 2], repeat=n_labels):
                if min_frames_required(labels) > n_frames:
                    continue
                loss, _ = ctc_loss(lattice, labels)
                worst = max(worst, abs(loss - ctc_brute_force(lattice, labels)))
    assert worst <= 1e-10

    completeness_gap = 0.0
    for n_frames in (2, 3, 4):
        logits = rng.normal(size=(n_frames, vocab))
        lattice = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        total = 0.0
        for n_labels in range(0, n_frames + 1):
            for labels in itertools.product([1, 2], repeat=n_labels):
                try:
                    loss, _ = ctc_loss(lattice, labels)
                except InfeasibleAlignmentError:
                    continue
                total += math.exp(-loss)
        completeness_gap = max(completeness_gap, abs(total - 1.0))
    elapsed = time.perf_counter() - started
    assert completeness_gap <= 1e-8
    assert elapsed < 60.0
    report(5, f"forward-backward vs brute force gap {worst:.2e}; completeness gap "
              f"{completeness_gap:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. row-stochasticity
# ---------------------------------------------------------------------------


def test_criterion_6_row_stochastic():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for variant in AttentionVariant:
        for trial in range(15):
            L = int(rng.integers(1, 14))
            x = rng.normal(size=(L, 6))
            p = make_params(variant, 6, 4, 6, 9000 + trial)
            w = head_weights(x, p, variant, alpha=100.0).data
            worst = max(worst, np.abs(w.sum(axis=1) - 1.0).max())
            assert np.all(w > 0)
    assert worst <= 1e-12
    report(6, f"attention rows sum to 1 within {worst:.2e} across all variants")


# ---------------------------------------------------------------------------
# 7. memory scaling
# ---------------------------------------------------------------------------


def test_criterion_7_memory_scaling():
    started = time.perf_counter()
    cfg = EncoderConfig()
    for length in (64, 256):
        rel = memory_footprint_estimate(AttentionVariant.RELATIVE_PE, length, cfg)
        std = memory_footprint_estimate(AttentionVariant.STANDARD, length, cfg)
        assert rel.measured > 2 * std.measured
        assert rel.analytic > 2 * std.analytic
    ratios = []
    for variant in (AttentionVariant.STANDARD, AttentionVariant.GAUSSIAN):
        for length in (64, 256):
            small = memory_footprint_estimate(variant, length, cfg)
            big = memory_footprint_estimate(variant, 2 * length, cfg)
            for field in ("analytic", "measured"):
                ratio = getattr(big, field) / getattr(small, field)
                ratios.append(ratio)
                assert abs(ratio - 4.0) <= 0.4, (variant.value, length, field, ratio)
        # measured must also sit within 20% of the analytic count
        fp = memory_footprint_estimate(variant, 128, cfg)
        assert abs(fp.measured - fp.analytic) <= 0.2 * fp.analytic
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(7, f"relative > 2x standard; doubling ratios {min(ratios):.2f}.."
              f"{max(ratios):.2f} within 4 +/- 10%, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. qualitative length-mismatch trend (trains the compared variants)
# ---------------------------------------------------------------------------


TREND_VARIANTS = ("standard", "gaussian", "gaussian_frame_index")


def training_pool(workers: int) -> multiprocessing.pool.Pool:
    """Spawned workers, one per training. They inherit the environment that
    importing longattn set up here, so each runs BLAS on one thread (unless the
    user chose a count), and the thread count leaves the trained bytes as they
    are. With two workers one trained two models back to back while the other
    core idled; on a 2-core x86-64 VM, three alternating runs of this module
    took the fixture 129.0/123.9/124.8 s with two workers and 107.8/112.0/113.4 s
    with three."""
    return multiprocessing.get_context("spawn").Pool(workers)


@pytest.fixture(scope="module")
def trend_setup():
    cfg = resolve_config({})
    heldout = gen_dataset(heldout_task(cfg.task, cfg.eval.seed, cfg.eval.n_utterances))
    jobs = [(replace(cfg.model, variant=AttentionVariant(vname)), cfg.task, cfg.train.steps,
             cfg.train.lr, cfg.train.seed, None, 0) for vname in TREND_VARIANTS]
    with training_pool(len(jobs)) as pool:
        results = pool.starmap(train_model, jobs)
    models = {vname: r.model for vname, r in zip(TREND_VARIANTS, results)}
    wall = {vname: r.wall_clock_s for vname, r in zip(TREND_VARIANTS, results)}
    return cfg, heldout, models, wall


def test_criterion_8_length_mismatch_trend(trend_setup):
    cfg, heldout, models, wall = trend_setup
    assert all(w < 1800.0 for w in wall.values()), "training budget exceeded 30 min"
    errs: dict[str, dict[int, float]] = {}
    for vname, model in models.items():
        errs[vname] = {}
        lengths = (1, 4, 8, 16) if vname == "standard" else (1, 8, 16)
        for k in lengths:
            vals = [overall_error(
                evaluate(model, {"e": concat_eval(heldout, k, seed=s)}), "e")
                for s in (0, 1)]
            errs[vname][k] = float(np.mean(vals))
    for vname in TREND_VARIANTS:
        e = errs[vname]
        print(f"    {vname:22s} k1 {e[1]:.4f}  k8 {e[8]:.4f}  k16 {e[16]:.4f}  "
              f"ratio {e[16] / e[1]:.2f}  (train {wall[vname]:.0f}s)")
    r_std = errs["standard"][16] / errs["standard"][1]
    r_gau = errs["gaussian"][16] / errs["gaussian"][1]
    r_gfi = errs["gaussian_frame_index"][16] / errs["gaussian_frame_index"][1]
    # regression floor established on the first validated run
    assert all(errs[v][1] < 0.20 for v in TREND_VARIANTS)
    assert r_std >= 3.0, f"(a) standard k16/k1 = {r_std:.2f} < 3"
    assert r_gfi <= 1.5, f"(b) gaussian+frame-index k16/k1 = {r_gfi:.2f} > 1.5"
    assert r_gau >= 1.1, f"(c) gaussian k16/k1 = {r_gau:.2f}, pinned floor 1.1"
    assert r_std > r_gfi and r_gau > r_gfi
    std = errs["standard"]
    assert std[1] < std[4] < std[8] < std[16], f"standard not monotone: {std}"
    report(8, f"trend ratios: standard {r_std:.2f} (>=3), gaussian {r_gau:.2f} "
              f"(degrades), gaussian+frame-index {r_gfi:.2f} (<=1.5)")


def test_criterion_8b_heatmap_locality(trend_setup):
    # the Fig-2-style check: the first dumped map keeps >=80% of each row's
    # mass within the +/-W band learned on short data, even at 10x length
    cfg, heldout, models, _ = trend_setup
    fi = models["gaussian_frame_index"]

    def first_map(features):
        return attention_map(fi, features, layer=0, head=0)

    def min_w(attn, target=0.8):
        L = attn.shape[0]
        for w in range(0, L + 1):
            if all(attn[i, max(0, i - w):i + w + 1].sum() >= target for i in range(L)):
                return w
        return L

    shorts = concat_eval(heldout, 1, seed=0).utterances[:10]
    width = max(min_w(first_map(u.features)) for u in shorts)
    long_utt = concat_eval(heldout, 10, seed=0).utterances[0]
    attn = first_map(long_utt.features)
    worst = min(attn[i, max(0, i - width):i + width + 1].sum()
                for i in range(attn.shape[0]))
    assert worst >= 0.8, f"row mass {worst:.3f} within +/-{width} frames"
    report(8, f"locality: short-data band W={width}, worst 10x-concat row mass "
              f"{worst:.3f} >= 0.8")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    cfg = resolve_config({
        "task": {"n_utterances": 40},
        "model": {"d_model": 16, "n_layers": 2, "n_heads": 2, "d_k": 8, "d_ff": 32},
        "train": {"steps": 120},
    })
    ckpts, reports = [], []
    for run in range(2):
        result = train_model(cfg.model, cfg.task, cfg.train.steps, cfg.train.lr,
                             cfg.train.seed, log_every=0)
        ckpt = tmp_path / f"run{run}.ckpt"
        save_checkpoint(ckpt, result.model)
        ckpts.append(ckpt.read_bytes())
        heldout = gen_dataset(heldout_task(cfg.task, cfg.eval.seed, 10))
        rep = evaluate(result.model, {"short": heldout,
                                      "long": concat_eval(heldout, 5, seed=0)})
        out = tmp_path / f"run{run}.csv"
        write_csv(out, "config_hash=pin checkpoint=run seed=0",
                  [ReportRow.columns, *map(astuple, rep.rows)])
        reports.append(out.read_bytes())
    assert ckpts[0] == ckpts[1]
    assert reports[0] == reports[1]
    report(9, "repeated (config, seed) runs: checkpoints and reports bit-identical")

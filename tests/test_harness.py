"""Harness: synthetic data, training loop, evaluation, heatmaps, memory, CLI."""

import json
import math
import os
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import MARKER, poison, use_copy_always
from longattn.attention import AttentionVariant
from longattn.cli import main as cli_main
from longattn.encoder import (
    EncoderConfig,
    TrainedModel,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from longattn.errors import ConfigError, DivergenceError
from longattn.harness import (
    Dataset,
    SyntheticTaskConfig,
    Utterance,
    concat_eval,
    config_hash,
    dump_heatmap,
    evaluate,
    gen_dataset,
    heldout_task,
    load_config,
    load_dataset,
    loss_decreased,
    memory_footprint_estimate,
    overall_error,
    run_length_sweep,
    save_dataset,
    token_prototypes,
    train_model,
)
from longattn.harness.configio import resolve_config

SMALL_TASK = dict(n_utterances=24, seed=5)
TINY_MODEL = dict(d_model=16, n_layers=2, n_heads=2, d_k=8, d_ff=32)


def small_task(**over):
    kw = dict(SMALL_TASK)
    kw.update(over)
    return SyntheticTaskConfig(**kw)


def tiny_model(variant=AttentionVariant.GAUSSIAN_FRAME_INDEX, task=None, **over):
    task = task or small_task()
    kw = dict(TINY_MODEL)
    kw.update(over)
    return EncoderConfig(variant=variant, feat_dim=task.feat_dim,
                         vocab_size=task.vocab_size, **kw)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def test_gen_dataset_deterministic():
    a = gen_dataset(small_task())
    b = gen_dataset(small_task())
    assert len(a) == len(b) == 24
    for ua, ub in zip(a, b):
        npt.assert_array_equal(ua.features, ub.features)
        assert ua.labels == ub.labels


def test_gen_dataset_noise_zero_exact_prototypes():
    cfg = small_task(noise=0.0, frames_per_token=(5, 5), silence_frames=(0, 0))
    ds = gen_dataset(cfg)
    protos = token_prototypes(cfg)
    for utt in ds:
        assert utt.features.shape[0] == 5 * len(utt.labels)
        for i, tok in enumerate(utt.labels):
            npt.assert_array_equal(utt.features[5 * i:5 * (i + 1)],
                                   np.tile(protos[tok - 1], (5, 1)))


def test_gen_dataset_rejects_degenerate_vocab():
    with pytest.raises(ConfigError):
        small_task(vocab_size=1)


def test_gen_dataset_two_tokens_in_two_dimensions_is_finite():
    # the one token is its own partner's anchor, so its tilt takes the fallback
    # orthogonal direction; one dimension has none, and is out of range
    cfg = small_task(feat_dim=2, vocab_size=2)
    ds = gen_dataset(cfg)
    npt.assert_allclose(np.linalg.norm(token_prototypes(cfg), axis=1), 1.0)
    assert all(np.isfinite(u.features).all() for u in ds)
    with pytest.raises(ConfigError, match="feat_dim must be in"):
        small_task(feat_dim=1, vocab_size=2)


def test_token_recoverable_by_nearest_prototype():
    # classify each run by the nearest prototype to its mean emission; fixed
    # durations and no silence make the run boundaries known
    cfg = small_task(noise=0.1, n_utterances=80, silence_frames=(0, 0),
                     frames_per_token=(12, 12))
    ds = gen_dataset(cfg)
    protos = token_prototypes(cfg)
    correct = total = 0
    for utt in ds:
        for i, tok in enumerate(utt.labels):
            run = utt.features[12 * i:12 * (i + 1)]
            pred = 1 + np.argmin(np.linalg.norm(protos - run.mean(axis=0), axis=1))
            correct += pred == tok
            total += 1
    assert correct / total > 0.99


def test_heldout_shares_prototypes():
    cfg = small_task()
    train = gen_dataset(cfg)
    held = gen_dataset(heldout_task(cfg, seed=99, n_utterances=10))
    npt.assert_array_equal(train.prototypes, held.prototypes)
    assert held.utterances[0].features.shape != train.utterances[0].features.shape or \
        not np.array_equal(held.utterances[0].features, train.utterances[0].features)


def test_concat_eval_k1_is_permutation():
    ds = gen_dataset(small_task())
    k1 = concat_eval(ds, 1, seed=3)
    originals = sorted(tuple(u.labels) for u in ds)
    permuted = sorted(tuple(u.labels) for u in k1)
    assert originals == permuted


def test_concat_eval_lengths_add():
    ds = gen_dataset(small_task())
    k4 = concat_eval(ds, 4, seed=0)
    assert len(k4) == 6
    total_rows = sum(u.features.shape[0] for u in k4)
    # every source utterance is used exactly once when k divides the size
    assert total_rows == sum(u.features.shape[0] for u in ds)
    for u in k4:
        assert len(u.labels) >= 4


def test_concat_eval_rejects_bad_k():
    ds = gen_dataset(small_task())
    with pytest.raises(ConfigError):
        concat_eval(ds, 0, seed=0)
    with pytest.raises(ConfigError):
        concat_eval(ds, len(ds) + 1, seed=0)


def test_dataset_file_round_trip_and_determinism(tmp_path):
    ds = gen_dataset(small_task())
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(p1, ds)
    save_dataset(p2, gen_dataset(small_task()))
    assert p1.read_bytes() == p2.read_bytes()
    back = load_dataset(p1)
    assert len(back) == len(ds)
    for ua, ub in zip(ds, back):
        npt.assert_array_equal(ua.features, ub.features)
        assert ua.labels == ub.labels
    assert back.task == ds.task


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_zero_steps_equals_init():
    task = small_task()
    cfg = tiny_model(task=task)
    from longattn.encoder import init_model

    result = train_model(cfg, task, steps=0, lr=1e-3, seed=4, log_every=0)
    reference = init_model(cfg, seed=4)
    for (na, a), (nb, b) in zip(result.model.params.named(), reference.named()):
        assert na == nb
        npt.assert_array_equal(a.data, b.data)


def test_train_deterministic_and_loss_decreases():
    task = small_task()
    cfg = tiny_model(task=task)
    r1 = train_model(cfg, task, steps=60, lr=2e-3, seed=4, log_every=0)
    r2 = train_model(cfg, task, steps=60, lr=2e-3, seed=4, log_every=0)
    assert r1.curve == r2.curve
    for (_, a), (_, b) in zip(r1.model.params.named(), r2.model.params.named()):
        npt.assert_array_equal(a.data, b.data)
    assert loss_decreased(r1.curve)


@pytest.fixture(scope="module")
def default_data():
    return gen_dataset(SyntheticTaskConfig())


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_training_bytes_do_not_depend_on_gradient_ownership(variant, default_data, monkeypatch):
    """A few default-config steps train the same bytes as with every first
    gradient copied; both runs share one BLAS core, whichever it is."""
    task = SyntheticTaskConfig()
    cfg = EncoderConfig(variant=variant, feat_dim=task.feat_dim, vocab_size=task.vocab_size)

    def run():
        return train_model(cfg, task, steps=5, lr=2e-3, seed=1, dataset=default_data,
                           log_every=0)

    shipped = run()
    use_copy_always(monkeypatch)
    reference = run()
    assert shipped.curve == reference.curve
    for (name, a), (_, b) in zip(shipped.model.params.named(), reference.model.params.named()):
        assert a.data.tobytes() == b.data.tobytes(), name


def test_train_divergence_aborts():
    task = small_task()
    cfg = tiny_model(task=task)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="step"):
        train_model(cfg, task, steps=50, lr=1e160, seed=4, log_every=0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def trained_tiny(task, variant=AttentionVariant.GAUSSIAN_FRAME_INDEX, steps=300):
    cfg = tiny_model(variant=variant, task=task)
    return train_model(cfg, task, steps=steps, lr=2e-3, seed=4, log_every=0).model


def test_evaluate_buckets_partition_and_reproducible():
    task = small_task()
    model = trained_tiny(task, steps=60)
    held = gen_dataset(heldout_task(task, seed=11, n_utterances=12))
    sets = {"short": held, "long": concat_eval(held, 3, seed=0)}
    rep1 = evaluate(model, sets, bucket_edges=(0, 80, 160, 320))
    rep2 = evaluate(model, sets, bucket_edges=(0, 80, 160, 320))
    assert [r.__dict__ for r in rep1.rows] == [r.__dict__ for r in rep2.rows]
    for name, ds in sets.items():
        bucket_rows = [r for r in rep1.rows if r.eval_set == name and r.bucket != "all"]
        all_row = next(r for r in rep1.rows if r.eval_set == name and r.bucket == "all")
        assert sum(r.n_utterances for r in bucket_rows) == len(ds) == all_row.n_utterances
        assert sum(r.edit_distance for r in bucket_rows) == all_row.edit_distance


def test_evaluate_vocab_mismatch():
    task = small_task()
    model = trained_tiny(task, steps=10)
    bad_task = small_task(vocab_size=20, seed=12)
    with pytest.raises(ConfigError):
        evaluate(model, {"bad": gen_dataset(bad_task)})


def test_evaluate_checks_each_set_before_decoding_it(monkeypatch):
    import longattn.harness.evaluation as evaluation

    task = small_task()
    cfg = tiny_model(task=task)
    model = TrainedModel(cfg, init_model(cfg, seed=0))
    held = gen_dataset(heldout_task(task, seed=11, n_utterances=3))
    short = Dataset([held.utterances[0], Utterance(np.zeros((3, 8)), [1])], held.prototypes)
    decoded = []
    monkeypatch.setattr(evaluation, "decode_utterance",
                        lambda model, features: decoded.append(features) or [1])
    with pytest.raises(ConfigError) as info:
        evaluate(model, {"held": held, "short": short})
    assert str(info.value) == ("utterance 1 of eval set short has 3 frames, "
                               "fewer than model.subsample_factor 4")
    assert len(decoded) == len(held)  # no utterance of the short set, not even its first


def test_run_length_sweep_shape_and_k1_consistency():
    task = small_task()
    model = trained_tiny(task, steps=60)
    held = gen_dataset(heldout_task(task, seed=14, n_utterances=12))
    result = run_length_sweep({"gaussian_frame_index": model}, held,
                              lengths=[1, 3], seeds=[0, 1])
    # per-seed rows plus one mean row per (variant, k)
    assert len(result) == 2 * 2 + 2
    direct = evaluate(model, {"sweep": concat_eval(held, 1, seed=0)})
    k1_row = next(r for r in result if r.k == 1 and r.seed == "0")
    assert k1_row.token_error_rate == overall_error(direct, "sweep")
    k3_mean = next(r for r in result if r.k == 3 and r.seed == "mean")
    assert k3_mean.token_error_rate >= 0.0


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------


def test_dump_heatmap_files_and_row_sums(tmp_path):
    task = small_task()
    model = trained_tiny(task, steps=30)
    held = gen_dataset(heldout_task(task, seed=15, n_utterances=3))
    prefix = tmp_path / "hm"
    attn = dump_heatmap(model, held.utterances[0].features, layer=0, head=1,
                        out_prefix=str(prefix), config_hash="deadbeef")
    csv_lines = (tmp_path / "hm.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config_hash=deadbeef")
    parsed = np.array([[float(v) for v in line.split(",")] for line in csv_lines[1:]])
    npt.assert_allclose(parsed.sum(axis=1), np.ones(parsed.shape[0]), atol=1e-9)
    npt.assert_array_equal(parsed, attn)
    pgm = (tmp_path / "hm.pgm").read_bytes()
    assert pgm.startswith(b"P5\n")
    header, rest = pgm.split(b"255\n", 1)
    assert len(rest) == attn.size
    assert max(rest) == 255  # max-normalized


def test_dump_heatmap_single_frame(tmp_path):
    task = small_task()
    model = trained_tiny(task, steps=10)
    feats = gen_dataset(heldout_task(task, seed=16, n_utterances=1)).utterances[0].features
    attn = dump_heatmap(model, feats[:4], layer=0, head=0,
                        out_prefix=str(tmp_path / "one"))
    npt.assert_array_equal(attn, [[1.0]])


def test_dump_heatmap_peak_memory_is_under_three_maps(tmp_path):
    # T = 3904 subsamples to L = 976, several row blocks; only the dumped
    # head's blocks are kept, not the 8 maps of every layer and head
    cfg = EncoderConfig()
    model = TrainedModel(cfg, init_model(cfg, seed=0))
    feats = np.random.default_rng(21).normal(size=(3904, cfg.feat_dim))
    tracemalloc.start()
    try:
        attn = dump_heatmap(model, feats, layer=1, head=1, out_prefix=str(tmp_path / "big"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    length = attn.shape[0]
    assert attn.shape == (976, 976)
    assert peak < 3 * length * length * 8, peak


@pytest.mark.parametrize("variant", [AttentionVariant.GAUSSIAN_FRAME_INDEX,
                                     AttentionVariant.STANDARD], ids=lambda v: v.value)
def test_attention_map_is_byte_identical_pooled_and_in_order(variant, monkeypatch):
    # T = 4000 subsamples to L = 1000, several row blocks a head; the observer
    # runs on the pool's workers, and each writes only its own block's rows
    from longattn.attention import multihead
    from longattn.harness.heatmap import attention_map

    cfg = EncoderConfig(variant=variant)
    model = TrainedModel(cfg, init_model(cfg, seed=0, zero_residual=False))
    feats = np.random.default_rng(22).normal(size=(4000, cfg.feat_dim))
    pooled = attention_map(model, feats, layer=1, head=1)
    monkeypatch.setattr(multihead, "row_block_pool", lambda: None)
    in_order = attention_map(model, feats, layer=1, head=1)
    assert pooled.shape == (1000, 1000)
    assert pooled.tobytes() == in_order.tobytes()


def test_dump_heatmap_range_errors(tmp_path):
    task = small_task()
    model = trained_tiny(task, steps=10)
    feats = np.ones((8, task.feat_dim))
    with pytest.raises(ConfigError):
        dump_heatmap(model, feats, layer=99, head=0, out_prefix=str(tmp_path / "x"))
    with pytest.raises(ConfigError):
        dump_heatmap(model, feats, layer=0, head=99, out_prefix=str(tmp_path / "x"))


# ---------------------------------------------------------------------------
# memory accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_memory_measured_within_tolerance(variant):
    # each registry count must state exactly what the pairwise stage allocates
    cfg = EncoderConfig()
    for length in (1, 7, 64, 256):
        fp = memory_footprint_estimate(variant, length, cfg)
        assert fp.measured == fp.analytic, fp


def test_memory_quadratic_law():
    cfg = EncoderConfig()
    for variant in (AttentionVariant.STANDARD, AttentionVariant.GAUSSIAN):
        for length in (64, 128, 256):
            small = memory_footprint_estimate(variant, length, cfg)
            big = memory_footprint_estimate(variant, 2 * length, cfg)
            for field in ("analytic", "measured"):
                ratio = getattr(big, field) / getattr(small, field)
                assert abs(ratio - 4.0) <= 0.4, (variant, length, field, ratio)


def test_memory_gaussian_ratio_constant():
    cfg = EncoderConfig()
    ratios = []
    for length in (64, 256):
        g = memory_footprint_estimate(AttentionVariant.GAUSSIAN, length, cfg)
        s = memory_footprint_estimate(AttentionVariant.STANDARD, length, cfg)
        ratios.append(g.measured / s.measured)
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.05


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def test_config_defaults_and_hash_stability():
    cfg = resolve_config({})
    assert cfg.model.feat_dim == cfg.task.feat_dim
    assert cfg.model.vocab_size == cfg.task.vocab_size
    assert config_hash(cfg) == config_hash(resolve_config({}))


def test_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": {"noise": 0.1}, "train": {"steps": 7}}))
    cfg = load_config(str(path), ["model.variant=standard", "task.seed=3"])
    assert cfg.task.noise == 0.1
    assert cfg.train.steps == 7
    assert cfg.model.variant is AttentionVariant.STANDARD
    assert cfg.task.seed == 3
    assert config_hash(cfg) != config_hash(resolve_config({}))
    assert config_hash(resolve_config({})) == "e816386701f82dcb"


def test_config_rejects_mismatched_model_dims(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config({"model": {"feat_dim": 5}})
    with pytest.raises(ConfigError):
        resolve_config({"unknown_section": {}})
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json", [])


def test_config_fuzz_raises_only_config_error(tmp_path, monkeypatch, capsys):
    # each example runs resolve_config, then gen-data through cli.main with the
    # same values as --set overrides; the command's work is stubbed out, so an
    # accepted config starts no job, but every size is bounded all the same
    from dataclasses import asdict, fields

    import longattn.cli as cli_module

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from longattn.container import canonical_json
    from longattn.harness import ExperimentConfig

    keys = [(section.name, f.name) for section in fields(ExperimentConfig)
            for f in fields(section.default_factory)]
    scalars = st.one_of(
        st.integers(-3, 40), st.integers(), st.floats(),
        st.sampled_from([5e-324, 1e-320, 2**63, 10**400, -(2**70), math.nan, math.inf,
                         -math.inf, 0.5, "standard", "gaussian", "7", ""]),
        st.text(max_size=4), st.booleans(), st.none())
    values = st.one_of(scalars, st.lists(scalars, max_size=4),
                       st.dictionaries(st.text(max_size=2), scalars, max_size=2))

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(st.dictionaries(st.sampled_from(keys), values, min_size=1, max_size=3))
    def check(entries):
        raw: dict = {}
        for (section, key), value in entries.items():
            raw.setdefault(section, {})[key] = value
        try:
            cfg = resolve_config(raw)
        except ConfigError as exc:
            assert "\n" not in str(exc)
            expected = 2
        else:  # what resolves serialises, and resolves back to itself
            assert resolve_config(json.loads(canonical_json(asdict(cfg)))) == cfg
            expected = 0
        sets = [f"--set={section}.{key}={json.dumps(value)}"
                for (section, key), value in entries.items()]
        capsys.readouterr()
        assert cli_main(["gen-data", "--out", str(tmp_path / "d.bin"), *sets]) == expected
        if expected == 2:
            assert len(capsys.readouterr().err.strip().splitlines()) == 1

    monkeypatch.setattr(cli_module, "gen_dataset", lambda task: [])
    monkeypatch.setattr(cli_module, "save_dataset", lambda path, dataset: None)
    check()


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


CLI_SETS = [
    "--set", "task.n_utterances=16",
    "--set", "model.d_model=16", "--set", "model.n_layers=1",
    "--set", "model.n_heads=2", "--set", "model.d_k=8", "--set", "model.d_ff=32",
    "--set", "train.steps=25", "--set", "eval.n_utterances=6",
]


def test_cli_full_pipeline(tmp_path):
    digest = config_hash(load_config(None, CLI_SETS[1::2]))
    data = tmp_path / "data.bin"
    ckpt = tmp_path / "model.ckpt"
    report = tmp_path / "report.csv"
    sweep = tmp_path / "sweep.csv"
    hm = tmp_path / "hm"
    mem = tmp_path / "mem.csv"
    curve = tmp_path / "curve.csv"

    assert cli_main(["gen-data", "--out", str(data), *CLI_SETS]) == 0
    assert load_dataset(data).task.n_utterances == 16

    assert cli_main(["train", "--out", str(ckpt), "--curve", str(curve),
                     "--data", str(data), *CLI_SETS]) == 0
    model = load_checkpoint(ckpt)
    assert model.meta["steps"] == 25
    assert curve.read_text().count("\n") == 25 + 2
    assert curve.read_text().splitlines()[:2] == [f"# config_hash={digest}", "step,loss"]

    assert cli_main(["eval", "--checkpoint", str(ckpt), "--concat-k", "2",
                     "--out", str(report), *CLI_SETS]) == 0
    assert report.read_text().splitlines()[:2] == [
        f"# config_hash={digest} checkpoint={ckpt} seed=0",
        "eval_set,bucket,n_utterances,ref_tokens,edit_distance,token_error_rate"]

    assert cli_main(["sweep", "--checkpoint", f"gaussian_frame_index={ckpt}",
                     "--lengths", "1,2", "--seeds", "0", "--out", str(sweep),
                     *CLI_SETS]) == 0
    assert sweep.read_text().count("mean") == 2
    assert sweep.read_text().splitlines()[:2] == [
        f"# config_hash={digest}", "variant,k,seed,n_utterances,token_error_rate"]

    assert cli_main(["heatmap", "--checkpoint", str(ckpt), "--layer", "0",
                     "--head", "0", "--utterance", "1", "--out-prefix", str(hm),
                     *CLI_SETS]) == 0
    assert (tmp_path / "hm.pgm").exists()
    hm_lines = (tmp_path / "hm.csv").read_text().splitlines()
    assert hm_lines[0] == f"# config_hash={digest} layer=0 head=0"
    assert len(hm_lines) == 1 + len(hm_lines[1].split(","))  # no header row

    assert cli_main(["memcheck", "--lengths", "16,32", "--variants",
                     "standard,gaussian", "--out", str(mem), *CLI_SETS]) == 0
    assert mem.read_text().count("\n") == 2 + 4
    assert mem.read_text().splitlines()[:2] == [
        f"# config_hash={digest}", "variant,length,analytic_elements,measured_elements"]


def test_cli_exit_code_config_error(tmp_path, capsys, monkeypatch):
    import longattn.cli as cli_module

    # invalid variant value inside the config system
    rc = cli_main(["train", "--out", str(tmp_path / "x.ckpt"),
                   "--set", "model.variant=bogus", "--set", "train.steps=1"])
    assert rc == 2
    # every config section is checked before anything runs
    config = tmp_path / "cfg.json"
    config.write_text('{"model": 3}')
    for bad in ["train.lr=nan", 'train.lr="abc"', "train.lr=NaN", "train.lr=Infinity",
                "train.lr=0", "train.lr=-1e-3", "train.lr=true", "train.seed=-1",
                "train.seed=1.5", 'train.seed="7"', "train.steps=-3", "train.steps=2.0",
                'task.seed="abc"', "task.seed=1.5", "task.frames_per_token=[3]",
                "task.n_utterances=2.5", "model.d_k=2.5", "model.subsample_factor=2.5",
                "eval.seed=-1", "eval.n_utterances=2.5", 'eval.bucket_edges="ab"',
                "eval.bucket_edges=[]", "model.alpha=1e-320", "model.n_layers=true",
                'model.use_abs_pe="yes"', "eval.bucket_edges=[5,1]", "model.d_k=" + "9" * 5000,
                "eval.bucket_edges=[150,200]", "task.n_utterances=1000000000",
                "eval.n_utterances=1000000000", "task.silence_frames=[0,1000000000]",
                "model.d_model=1000000000", "model.n_layers=" + "9" * 400,
                "model.d_k=" + "[" * 10**5 + "]" * 10**5, f"--config={config}"]:
        capsys.readouterr()
        flag = [bad] if bad.startswith("--") else ["--set", bad]
        assert cli_main(["train", "--out", str(tmp_path / "x.ckpt"), *flag]) == 2, bad[:40]
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, bad[:40]
    # an empty length or variant list is an error, not a run that does nothing
    for empty in (["--lengths", ""], ["--variants", ""], ["--variants", ","]):
        assert cli_main(["memcheck", *empty]) == 2, empty
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, empty
    # a length past the bound fails before its stage is allocated, and before
    # any length of the list is measured
    import longattn.harness.memory as memory_module

    measured = []
    monkeypatch.setattr(memory_module, "measure_pair_elements", lambda *a: measured.append(a))
    for lengths in ("4097", "16,20000", "1" + "0" * 30):
        assert cli_main(["memcheck", "--lengths", lengths]) == 2, lengths
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, lengths
    assert measured == []
    # an output in a missing directory or that is a directory, and an input
    # that is missing or a directory, fail before the command runs: train
    # never trains
    trained = []
    monkeypatch.setattr(cli_module, "train_model", lambda *a, **kw: trained.append(a))
    missing = tmp_path / "none"
    ckpt = f"{tmp_path}/none.ckpt"
    folder = str(tmp_path)
    (tmp_path / "hm.pgm").mkdir()
    # training data that passes every config check but that no step could
    # train on: utterance 1 of each file is too short, holds a non-token or
    # cannot be aligned to its 2 subsampled frames
    prototypes = token_prototypes(SyntheticTaskConfig())
    for name, frames, labels in [("short", 3, [1]), ("token", 8, [12]), ("blank", 8, [0]),
                                 ("align", 8, [5, 5])]:
        bad = Utterance(np.zeros((frames, 8)), labels)
        good = Utterance(np.zeros((40, 8)), [1, 2])
        save_dataset(tmp_path / f"{name}.bin", Dataset([good, bad, good], prototypes))
    tiny = ["--set", "task.frames_per_token=[1,1]", "--set", "task.silence_frames=[0,0]"]
    # a held-out set of 2-frame utterances, too short to subsample: eval, sweep
    # and heatmap name the first one, and nothing is decoded or written
    import longattn.harness.evaluation as evaluation
    import longattn.harness.heatmap as heatmap

    decoded = []
    for module in (evaluation, heatmap):
        monkeypatch.setattr(module, "encoder_forward", lambda *a, **kw: decoded.append(a))
    small = load_config(None, CLI_SETS[1::2]).model
    small_ckpt = f"{tmp_path}/small.ckpt"
    save_checkpoint(small_ckpt, TrainedModel(small, init_model(small, seed=0)))
    held_short = [*CLI_SETS, *tiny, "--set", "task.tokens_per_utterance=[2,2]"]
    too_short = "utterance 0 of eval set concat1 has 2 frames, fewer than model.subsample_factor 4"
    for argv, named in [
        (["eval", "--checkpoint", small_ckpt, "--out", f"{tmp_path}/r.csv", *held_short],
         too_short),
        (["sweep", "--checkpoint", f"gaussian_frame_index={small_ckpt}", "--lengths", "1",
          "--out", f"{tmp_path}/s.csv", *held_short], too_short),
        # k = 2 gives 4-frame inputs that a model reads: every set is checked
        # before the first decode, so nothing is decoded before k = 1 fails
        (["sweep", "--checkpoint", f"gaussian_frame_index={small_ckpt}", "--lengths", "2,1",
          "--seeds", "0,1", "--out", f"{tmp_path}/s.csv", *held_short], too_short),
        (["heatmap", "--checkpoint", small_ckpt, "--layer", "0", "--head", "0",
          "--out-prefix", f"{tmp_path}/short", *held_short], too_short),
        (["train", "--out", ckpt, *tiny, "--set", "task.tokens_per_utterance=[8,8]"],
         "utterance 0 from the task config needs 8 frames after subsampling for its "
         "labels, but its 8 frames give 2"),
        (["train", "--out", ckpt, *tiny, "--set", "task.tokens_per_utterance=[2,2]"],
         "utterance 0 from the task config has 2 frames, fewer than model.subsample_factor 4"),
        (["train", "--out", ckpt, "--data", f"{tmp_path}/short.bin"],
         f"utterance 1 from dataset {tmp_path}/short.bin has 3 frames"),
        (["train", "--out", ckpt, "--data", f"{tmp_path}/token.bin"],
         f"utterance 1 from dataset {tmp_path}/token.bin has label 12 outside"),
        (["train", "--out", ckpt, "--data", f"{tmp_path}/blank.bin"], "has label 0 outside"),
        (["train", "--out", ckpt, "--data", f"{tmp_path}/align.bin"],
         f"utterance 1 from dataset {tmp_path}/align.bin needs 3 frames"),
        (["train", "--out", folder], folder),
        (["train", "--out", ckpt, "--curve", folder], folder),
        (["eval", "--checkpoint", ckpt, "--out", folder], folder),
        (["sweep", "--checkpoint", f"standard={ckpt}", "--out", folder], folder),
        (["memcheck", "--lengths", "4", "--variants", "standard", "--out", folder], folder),
        (["gen-data", "--out", folder], folder),
        (["heatmap", "--checkpoint", ckpt, "--layer", "0", "--head", "0",
          "--out-prefix", f"{tmp_path}/hm"], f"{tmp_path}/hm.pgm is a directory"),
        (["train", "--out", f"{missing}/m.ckpt"], f"{missing}/m.ckpt"),
        (["train", "--out", ckpt, "--curve", f"{missing}/c.csv"], f"{missing}/c.csv"),
        (["eval", "--checkpoint", ckpt, "--out", f"{missing}/r.csv"], f"{missing}/r.csv"),
        (["sweep", "--checkpoint", f"standard={ckpt}", "--out", f"{missing}/s.csv"],
         f"{missing}/s.csv"),
        (["memcheck", "--lengths", "4", "--out", f"{missing}/m.csv"], f"{missing}/m.csv"),
        (["gen-data", "--out", f"{missing}/d.bin"], f"{missing}/d.bin"),
        (["heatmap", "--checkpoint", ckpt, "--layer", "0", "--head", "0",
          "--out-prefix", f"{missing}/hm"], f"{missing}/hm"),
        (["train", "--out", ckpt, "--data", f"{missing}.bin"], f"dataset {missing}.bin"),
        (["train", "--out", ckpt, "--data", str(tmp_path)], f"dataset {tmp_path}"),
        (["train", "--out", ckpt, "--config", str(tmp_path)], f"config file {tmp_path}"),
    ]:
        capsys.readouterr()
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0], (argv, err)
    assert trained == [] and decoded == []
    assert not any((tmp_path / name).exists() for name in ("r.csv", "s.csv", "short.csv"))
    # missing checkpoint listed explicitly
    rc = cli_main(["sweep", "--checkpoint", f"standard={tmp_path}/none.ckpt",
                   "--lengths", "1", "--seeds", "0",
                   "--out", str(tmp_path / "s.csv")])
    assert rc == 2


@pytest.mark.parametrize("kind", ["eval", "eval-hard-link", "train-data", "train-curve",
                                  "heatmap-prefix", "sweep-out", "config"])
def test_cli_refuses_an_output_that_names_an_input_or_another_output(kind, tmp_path, capsys):
    # each command would run and then overwrite the file it names twice
    ckpt, link, data, config, hm = (str(tmp_path / name)
                                    for name in ("m.ckpt", "h.ckpt", "d.bin", "c.json", "hm"))
    small = load_config(None, CLI_SETS[1::2]).model
    for path in (ckpt, f"{hm}.pgm"):
        save_checkpoint(path, TrainedModel(small, init_model(small, seed=0)))
    os.link(ckpt, link)
    assert cli_main(["gen-data", "--out", data, *CLI_SETS]) == 0
    (tmp_path / "c.json").write_text('{"task": {"n_utterances": 4}}')
    argv, kept, named = {
        "eval": (["eval", "--checkpoint", ckpt, "--out", ckpt],
                 ckpt, f"--out {ckpt}: {ckpt} is also --checkpoint {ckpt}"),
        "eval-hard-link": (["eval", "--checkpoint", ckpt, "--out", link],
                           ckpt, f"--out {link}: {link} is also --checkpoint {ckpt}"),
        "train-data": (["train", "--data", data, "--out", data],
                       data, f"--out {data}: {data} is also --data {data}"),
        "train-curve": (["train", "--out", ckpt, "--curve", ckpt],
                        ckpt, f"--curve {ckpt}: {ckpt} is also --out {ckpt}"),
        "heatmap-prefix": (["heatmap", "--checkpoint", f"{hm}.pgm", "--layer", "0", "--head",
                            "0", "--out-prefix", hm],
                           f"{hm}.pgm", f"--out-prefix {hm}: {hm}.pgm is also --checkpoint"),
        "sweep-out": (["sweep", "--checkpoint", f"gaussian_frame_index={ckpt}", "--lengths",
                       "1", "--out", ckpt],
                      ckpt, f"--out {ckpt}: {ckpt} is also --checkpoint {ckpt}"),
        "config": (["gen-data", "--config", config, "--out", config],
                   config, f"--out {config}: {config} is also --config {config}"),
    }[kind]
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert cli_main(argv + (CLI_SETS if kind != "config" else [])) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and named in err[0], err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files
    assert kept in map(str, files)


def test_cli_exit_code_corrupt_checkpoint_and_removed_key(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert cli_main(["train", "--out", str(ckpt), *CLI_SETS]) == 0
    data = ckpt.read_bytes()
    report = str(tmp_path / "r.csv")
    for blob in (data[:len(data) // 2], data + b"x"):
        ckpt.write_bytes(blob)
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--out", report, *CLI_SETS]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
    # the evaluation thread pool, the split-in-half frame budget and their keys are gone
    for removed in ("eval.workers=2", "eval.max_frames=64"):
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--out", report, *CLI_SETS,
                         "--set", removed]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
    # negative eval seeds and empty seed or length lists, on a good checkpoint
    ckpt.write_bytes(data)
    sweep = ["sweep", "--checkpoint", f"gaussian_frame_index={ckpt}", "--out", report]
    # a label given twice, the first time with a missing checkpoint
    repeated = ["sweep", "--checkpoint", f"gaussian_frame_index={tmp_path}/none.ckpt", *sweep[1:],
                "--lengths", "1", "--seeds", "0"]
    for argv in (["eval", "--checkpoint", str(ckpt), "--out", report, "--eval-seed", "-1"],
                 ["heatmap", "--checkpoint", str(ckpt), "--layer", "0", "--head", "0",
                  "--out-prefix", str(tmp_path / "hm"), "--eval-seed", "-1"],
                 [*sweep, "--seeds", "-1"], [*sweep, "--seeds", ""], [*sweep, "--lengths", ""],
                 repeated):
        assert cli_main([*argv, *CLI_SETS]) == 2, argv
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, argv


def test_cli_exit_code_bad_checkpoint_and_dataset_metadata(tmp_path, capsys):
    from longattn.container import write_container

    bad = tmp_path / "bad.bin"
    report = str(tmp_path / "r.csv")
    checkpoints = [
        {"format": "longattn-checkpoint-v1"},
        {"format": "longattn-checkpoint-v1", "encoder": [64]},
        {"format": "longattn-checkpoint-v1", "encoder": {"d_model": 16, "n_blocks": 2}},
        {"format": "longattn-checkpoint-v1", "encoder": {"d_k": 2.5}},
        {"format": "longattn-checkpoint-v1", "encoder": {"variant": 3}},
    ]
    for meta in checkpoints:
        write_container(bad, meta, [])
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", str(bad), "--out", report, *CLI_SETS]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
    datasets = [
        ({"format": "longattn-dataset-v1", "task": "default"}, [("prototypes", np.eye(2))]),
        ({"format": "longattn-dataset-v1", "task": {"speakers": 3}}, [("prototypes", np.eye(2))]),
        ({"format": "longattn-dataset-v1", "task": {"seed": "abc"}}, [("prototypes", np.eye(2))]),
        ({"format": "longattn-dataset-v1", "task": None}, []),
        ({"format": "longattn-dataset-v1", "task": None},
         [("prototypes", np.eye(2)), ("u00000.features", np.zeros((3, 8)))]),
        # no utterances at all, and an utterance 1 without an utterance 0
        ({"format": "longattn-dataset-v1", "task": None}, [("prototypes", np.eye(11, 8))]),
        ({"format": "longattn-dataset-v1", "task": None},
         [("prototypes", np.eye(11, 8)), ("u00001.features", np.zeros((30, 8))),
          ("u00001.labels", np.ones((1, 3), dtype=np.int64))]),
    ]
    for meta, arrays in datasets:
        write_container(bad, meta, arrays)
        capsys.readouterr()
        assert cli_main(["train", "--data", str(bad), "--out", str(tmp_path / "m.ckpt"),
                         *CLI_SETS]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_cli_exit_code_metadata_larger_than_the_arrays_draws_no_model(tmp_path, capsys,
                                                                     monkeypatch):
    # each size is within its bound, but together they imply 9.8e9 weights (78 GB)
    import longattn.encoder as encoder_module
    from longattn.container import write_container

    def refuse(*args, **kwargs):
        raise AssertionError("init_model drew a model the file does not hold")

    monkeypatch.setattr(encoder_module, "init_model", refuse)
    ckpt = tmp_path / "huge.ckpt"
    write_container(ckpt, {"format": "longattn-checkpoint-v1", "encoder": {
        "n_layers": 64, "n_heads": 64, "d_model": 1024, "d_k": 1024, "d_ff": 8192,
        "variant": "standard"}},
        [("w_out", np.zeros((12, 1025)))])
    for argv in (["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "r.csv")],
                 ["sweep", "--checkpoint", f"standard={ckpt}", "--lengths", "1",
                  "--seeds", "0", "--out", str(tmp_path / "s.csv")],
                 ["heatmap", "--checkpoint", str(ckpt), "--layer", "0", "--head", "0",
                  "--out-prefix", str(tmp_path / "hm")]):
        capsys.readouterr()
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "encoder metadata implies" in err[0], (argv, err)
    assert [path.name for path in tmp_path.iterdir()] == ["huge.ckpt"]  # no report written


def test_cli_exit_code_repeated_array_name(tmp_path, capsys):
    meta = b'{"format":"longattn-checkpoint-v1"}'
    entry = struct.pack("<H", 5) + b"w_out" + struct.pack("<BII", 0, 1, 1) + bytes(8)
    ckpt = tmp_path / "twice.ckpt"
    ckpt.write_bytes(b"LATNBIN1" + struct.pack("<I", len(meta)) + meta
                     + struct.pack("<I", 2) + 2 * entry)
    report = str(tmp_path / "r.csv")
    assert cli_main(["eval", "--checkpoint", str(ckpt), "--out", report, *CLI_SETS]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "duplicate array name 'w_out'" in err[0]


def _train_on(tmp_path, arrays) -> int:
    from longattn.container import write_container

    data = tmp_path / "data.bin"
    write_container(data, {"format": "longattn-dataset-v1", "task": None}, arrays)
    return cli_main(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"), *CLI_SETS])


def test_cli_exit_code_non_finite_checkpoint(tmp_path, capsys):
    small = load_config(None, CLI_SETS[1::2]).model
    model = TrainedModel(small, init_model(small, seed=0))
    model.params.w_out.data[3, 1] = MARKER
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, model)
    poison(tmp_path / "m.ckpt", math.nan)  # the writer refuses a NaN weight
    out = str(tmp_path / "r.csv")
    for argv in (["eval", "--checkpoint", ckpt, "--out", out],
                 ["sweep", "--checkpoint", f"gaussian_frame_index={ckpt}", "--out", out],
                 ["heatmap", "--checkpoint", ckpt, "--layer", "0", "--head", "0",
                  "--out-prefix", str(tmp_path / "hm")]):
        capsys.readouterr()
        assert cli_main([*argv, *CLI_SETS]) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "array 'w_out' holds a non-finite value" in err[0], err
    assert list(tmp_path.iterdir()) == [tmp_path / "m.ckpt"]


def test_cli_exit_code_non_finite_dataset(tmp_path, capsys):
    dataset = gen_dataset(load_config(None, CLI_SETS[1::2]).task)
    dataset.utterances[3].features[2, 1] = MARKER
    save_dataset(tmp_path / "d.bin", dataset)
    poison(tmp_path / "d.bin", -math.inf)  # the writer refuses an infinite feature
    assert cli_main(["train", "--data", str(tmp_path / "d.bin"),
                     "--out", str(tmp_path / "m.ckpt"), *CLI_SETS]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "array 'u00003.features' holds a non-finite value" in err[0], err
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_exit_code_non_finite_trained_weight(tmp_path, capsys, monkeypatch):
    # a model that ends training with a non-finite weight has diverged: train
    # exits 3 naming the weight, and writes neither checkpoint nor curve
    import longattn.cli as cli_module
    from longattn.harness import TrainResult

    def diverged(enc_cfg, *args, **kwargs):
        model = TrainedModel(enc_cfg, init_model(enc_cfg, seed=0), {})
        model.params.blocks[0].heads[1]["w_v"].data[0, 2] = math.inf
        return TrainResult(model, curve=[1.0])

    monkeypatch.setattr(cli_module, "train_model", diverged)
    out, curve = tmp_path / "m.ckpt", tmp_path / "c.csv"
    assert cli_main(["train", "--out", str(out), "--curve", str(curve), *CLI_SETS]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: training diverged"), err
    assert "array 'block0.head1.w_v' holds a non-finite value" in err[0], err
    assert list(tmp_path.iterdir()) == []


def test_cli_exit_code_labels_without_rows(tmp_path, capsys):
    arrays = [("prototypes", np.eye(11, 8)), ("u00000.features", np.zeros((30, 8))),
              ("u00000.labels", np.zeros((0, 1), dtype=np.int64))]
    assert _train_on(tmp_path, arrays) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "labels must be one row" in err[0]


def test_cli_exit_code_every_declared_bound(tmp_path, monkeypatch, capsys):
    # one step outside each finite end of each bounded field exits 2 with one
    # line naming the field; a field declared later is covered as it is added
    import typing
    from dataclasses import fields

    import longattn.cli as cli_module
    from longattn.harness import ExperimentConfig

    monkeypatch.setattr(cli_module, "gen_dataset", lambda task: [])
    monkeypatch.setattr(cli_module, "save_dataset", lambda path, dataset: None)
    probes = 0
    for section in fields(ExperimentConfig):
        cls = section.default_factory
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if "range" not in f.metadata:
                continue
            floats = hints[f.name] is float
            for end, direction in zip(f.metadata["range"], (-1, 1)):
                if not math.isfinite(end):
                    continue
                step = math.nextafter(end, direction * math.inf) if floats else end + direction
                pair = isinstance(f.default, tuple)
                for value in ([step, f.default[1]], [f.default[0], step]) if pair else (step,):
                    setting = f"{section.name}.{f.name}={json.dumps(value)}"
                    capsys.readouterr()
                    rc = cli_main(["gen-data", "--out", str(tmp_path / "d.bin"), "--set", setting])
                    err = capsys.readouterr().err.strip().splitlines()
                    assert rc == 2 and len(err) == 1, (setting, err)
                    assert f"{section.name}: {f.name} must be in" in err[0], (setting, err)
                    probes += 1
    assert probes >= 30


def test_cli_exit_code_feature_width_differs_from_model(tmp_path, capsys):
    labels = np.array([[1, 2, 3]], dtype=np.int64)
    narrow = [("prototypes", np.eye(11, 3)), ("u00000.features", np.zeros((30, 3))),
              ("u00000.labels", labels)]
    assert _train_on(tmp_path, narrow) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "3-wide" in err[0] and "feat_dim is 8" in err[0]
    # features narrower than the dataset's own prototypes fail at load time
    mixed = [("prototypes", np.eye(11, 8)), ("u00000.features", np.zeros((30, 3))),
             ("u00000.labels", labels)]
    assert _train_on(tmp_path, mixed) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "prototypes are 8 wide" in err[0]
    # a checkpoint that takes 8-wide features, read under a task of another width
    ckpt = str(tmp_path / "m.ckpt")
    assert cli_main(["train", "--out", ckpt, *CLI_SETS, "--steps", "1"]) == 0
    out = str(tmp_path / "r.csv")
    for width, argv in [
        (5, ["eval", "--checkpoint", ckpt, "--out", out]),
        (9, ["sweep", "--checkpoint", f"gaussian_frame_index={ckpt}", "--out", out]),
        (3, ["heatmap", "--checkpoint", ckpt, "--layer", "0", "--head", "0",
             "--out-prefix", str(tmp_path / "hm")]),
    ]:
        capsys.readouterr()
        assert cli_main([*argv, *CLI_SETS, "--set", f"task.feat_dim={width}"]) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "8-wide" in err[0] and f"feat_dim is {width}" in err[0], err


def test_cli_exit_code_checkpoint_from_another_task(tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    assert cli_main(["train", "--out", ckpt, *CLI_SETS, "--steps", "1"]) == 0
    out = str(tmp_path / "r.csv")
    commands = [
        ["eval", "--checkpoint", ckpt, "--out", out],
        ["sweep", "--checkpoint", f"gaussian_frame_index={ckpt}", "--out", out],
        ["heatmap", "--checkpoint", ckpt, "--layer", "0", "--head", "0",
         "--out-prefix", str(tmp_path / "hm")],
    ]
    for sets, words in [
        (["task.seed=8"], "trained on the prototypes of task.seed 7, not 8"),
        (["task.prototype_seed=3"], "trained on the prototypes of task.prototype_seed 7, not 3"),
        (["task.vocab_size=10"], "trained on task.vocab_size 12, not 10"),
        # the feature width is checked first, with its own message
        (["task.seed=8", "task.feat_dim=5"], "feat_dim is 5"),
    ]:
        for argv in commands:
            capsys.readouterr()
            sets_args = [arg for entry in sets for arg in ("--set", entry)]
            assert cli_main([*argv, *CLI_SETS, *sets_args]) == 2, (argv, sets)
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and words in err[0], err
    # the same prototypes under another noise and utterance stream
    same = ["--set", "task.seed=8", "--set", "task.prototype_seed=7", "--set", "task.noise=0.3"]
    assert cli_main([*commands[0], *CLI_SETS, *same]) == 0
    # a checkpoint that records no task is checked for its prototypes no more,
    # but its model still names its vocabulary size
    model = load_checkpoint(ckpt)
    del model.meta["task"]
    save_checkpoint(ckpt, model)
    assert cli_main([*commands[0], *CLI_SETS, "--set", "task.seed=8"]) == 0
    for vocab in (10, 14):
        for argv in commands:
            capsys.readouterr()
            assert cli_main([*argv, *CLI_SETS, "--set", f"task.vocab_size={vocab}"]) == 2, argv
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and f"trained on task.vocab_size 12, not {vocab}" in err[0], err
    # malformed task metadata is a user error
    model.meta["task"] = {"vocab_size": "twelve"}
    save_checkpoint(ckpt, model)
    capsys.readouterr()
    assert cli_main([*commands[0], *CLI_SETS]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "task metadata" in err[0], err


def test_cli_checkpoint_records_the_task_of_its_dataset(tmp_path):
    # a dataset of seed-8 prototypes that records no task trains under the
    # default config (task seed 7): the checkpoint records no task, so eval
    # under the data's real task runs, and so does eval under the default one
    seed8 = load_config(None, [*CLI_SETS[1::2], "task.seed=8"]).task
    data, ckpt = tmp_path / "d.bin", str(tmp_path / "m.ckpt")
    seed8_data = gen_dataset(seed8)
    save_dataset(data, Dataset(seed8_data.utterances, seed8_data.prototypes))
    assert cli_main(["train", "--out", ckpt, "--data", str(data), *CLI_SETS,
                     "--steps", "1"]) == 0
    assert load_checkpoint(ckpt).meta["task"] is None
    evaluate_under = ["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "r.csv"), *CLI_SETS]
    assert cli_main([*evaluate_under, "--set", "task.seed=8"]) == 0
    assert cli_main(evaluate_under) == 0
    # a dataset that records its task gives that task, not the one passed
    cfg = tiny_model(task=seed8)
    model = train_model(cfg, small_task(), steps=0, lr=1e-3, seed=4, dataset=seed8_data,
                        log_every=0).model
    assert SyntheticTaskConfig(**model.meta["task"]) == seed8


def test_cli_exit_code_runtime_error(tmp_path):
    # overflow-inducing learning rate diverges -> runtime error contract
    with np.errstate(all="ignore"):
        rc = cli_main(["train", "--out", str(tmp_path / "x.ckpt"), *CLI_SETS,
                       "--lr", "1e160", "--steps", "50"])
    assert rc == 3


def test_cli_reports_are_bit_identical(tmp_path):
    args = lambda n: ["eval", "--checkpoint", str(tmp_path / "m.ckpt"),
                      "--out", str(tmp_path / f"r{n}.csv"), "--concat-k", "2",
                      *CLI_SETS]
    assert cli_main(["train", "--out", str(tmp_path / "m.ckpt"), *CLI_SETS]) == 0
    assert cli_main(args(1)) == 0
    assert cli_main(args(2)) == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_evaluate_overfit_model_near_zero_on_training_data():
    task = small_task(n_utterances=4, seed=21)
    cfg = tiny_model(task=task)
    res = train_model(cfg, task, steps=1500, lr=2e-3, seed=2, log_every=0)
    rep = evaluate(res.model, {"train": gen_dataset(task)})
    assert overall_error(rep, "train") <= 0.02


def test_concat_per_segment_hypotheses_are_exact():
    ds = gen_dataset(small_task())
    k = 3
    long_set = concat_eval(ds, k, seed=2)
    # match each long utterance back to its source segments by features, then
    # check that the segments' labels, concatenated, are the long utterance's
    by_first_row = {tuple(np.round(u.features[0], 12)): u for u in ds}
    for long_utt in long_set:
        cursor = 0
        rebuilt: list[int] = []
        for _ in range(k):
            src = by_first_row[tuple(np.round(long_utt.features[cursor], 12))]
            npt.assert_array_equal(
                long_utt.features[cursor:cursor + src.features.shape[0]], src.features)
            rebuilt += src.labels
            cursor += src.features.shape[0]
        assert cursor == long_utt.features.shape[0]
        assert rebuilt == long_utt.labels

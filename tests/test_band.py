"""The exact key band of gaussian_frame_index attention.

Every comparison runs both of its sides in one process: the one-block logits
of a trained model already differ between one and two OpenBLAS threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import longattn
from conftest import head_weights, mul, sum_all
from longattn.attention import AttentionVariant, init_attention_params
from longattn.attention.multihead import key_window, multi_head_attention
from longattn.attention.params import VARIANTS
from longattn.attention.variants import pairwise_sqdist_scores
from longattn.ctc import greedy_decode
from longattn.encoder import EncoderConfig, encoder_forward
from longattn.errors import InternalError
from longattn.harness import SyntheticTaskConfig, concat_eval, gen_dataset, heldout_task
from longattn.harness.training import TrainSettings, train_model
from longattn.numerics import check_gradients, const, linalg, no_grad, param

GFI = AttentionVariant.GAUSSIAN_FRAME_INDEX


def rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module")
def trained_gfi():
    """The gfi model of the eval-long benchmark: 200 steps on the default task."""
    task = SyntheticTaskConfig()
    settings = TrainSettings()
    result = train_model(EncoderConfig(variant=GFI), task, 200, settings.lr, settings.seed,
                         log_every=0)
    heldout = gen_dataset(heldout_task(task, 100_003, 200))
    return result.model, heldout


def forward(model, features, monkeypatch, one_block=False):
    """No-grad logits and every (layer, head, rows, keys) the observer saw."""
    windows = []
    length = -(-len(features) // model.config.subsample_factor)
    with monkeypatch.context() as m, no_grad():
        if one_block:
            m.setattr(linalg, "CHUNK_ELEMENTS", length * length)
        logits = encoder_forward(features, model.params, model.config,
                                 observe=lambda *seen: windows.append(seen[:4])).data
    return logits, windows, length


@pytest.mark.parametrize("k", [16, 32, 64])
def test_banded_logits_match_one_block(trained_gfi, k, monkeypatch):
    model, heldout = trained_gfi
    features = concat_eval(heldout, k, seed=3).utterances[0].features
    banded, windows, length = forward(model, features, monkeypatch)
    whole, whole_windows, _ = forward(model, features, monkeypatch, one_block=True)
    assert length > 256 and len(whole_windows) == 8  # one block per layer and head
    narrow = [keys for *_, keys in windows if keys != slice(None)
              and keys.indices(length) != (0, length, 1)]
    assert narrow, "no window was narrower than the input"
    assert rel_diff(banded, whole) <= 1e-11
    assert greedy_decode(banded) == greedy_decode(whole)


@pytest.mark.parametrize("k", [32, 64])
def test_trained_band_is_exact_and_within_a_few_frames_of_the_reach(trained_gfi, k, monkeypatch):
    # every head of the trained model, at L = 976 and 1 950: a softmax over
    # every key, computed one row at a time, is exactly 0.0 more than W frames
    # off the diagonal, and some row reaches nearly that far
    from longattn.attention import params

    model, heldout = trained_gfi
    features = concat_eval(heldout, k, seed=0).utterances[0].features
    project, seen = params.gaussian_projection, []

    def recorded(*args):
        projected = project(*args)
        seen.append(projected)
        return projected

    monkeypatch.setattr(params, "gaussian_projection", recorded)
    with no_grad():
        encoder_forward(features, model.params, model.config)
    assert len(seen) == model.config.n_layers * model.config.n_heads
    for projected in seen:
        a, half = projected.operands[0].data, projected.half
        length = len(a)
        assert length >= 976 and half is not None and half < length // 2
        reach = 0
        for i in range(length):
            scores = -0.5 * ((a - a[i]) ** 2).sum(axis=1)
            direct = np.exp(scores - scores.max())
            kept = np.flatnonzero(direct)
            reach = max(reach, i - kept[0], kept[-1] - i)
        assert half - 10 <= reach <= half, (half, reach)  # 3-9 frames apart here


@pytest.mark.parametrize("core, feature", [("Haswell", "AVX2"), ("SkylakeX", "AVX512F")])
def test_blocked_forwards_match_one_block_under_every_blas_kernel(core, feature):
    # OpenBLAS picks its kernels when numpy loads it, so each core runs the two
    # row-blocking tests, tolerances unchanged, in a child process of its own
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get(feature):
        pytest.skip(f"{core} kernels need {feature}, which this CPU lacks")
    tests = Path(__file__).parent
    src = str(Path(longattn.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{tests / 'test_attention.py'}::test_blocked_forward_matches_one_block",
         f"{tests / 'test_band.py'}::test_banded_logits_match_one_block"],
        cwd=tests.parent, env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]


def outlier_frames(rng, length, d_model):
    x = rng.normal(size=(length, d_model))
    x[rng.choice(length, size=5, replace=False)] *= 20.0  # r is large, the bound is loose
    return x


def far_twin(rng, length, d_model, head, alpha):
    """Frames whose projections cancel the index drift between frame 100 and
    frame 100 + 180, so one weight far off the diagonal is not zero."""
    x = rng.normal(size=(length, d_model))
    d_k = head["w_s"].data.shape[0]
    w_x = head["w_s"].data[:, :d_model] * d_k**-0.25
    step = head["w_s"].data[:, d_model] * d_k**-0.25 / alpha
    # f(x_j) = f(x_i) - 180 * step, solved for x_j in least squares
    x[280] = x[100] + np.linalg.lstsq(w_x, -180.0 * step, rcond=None)[0]
    return x


@pytest.mark.parametrize("start_index", [0, 1000, 10**6, 10**7])
@pytest.mark.parametrize("inputs", ["normal", "outliers", "far_twin"])
def test_one_block_weights_are_zero_outside_every_window(inputs, start_index):
    rng = np.random.default_rng(start_index + len(inputs))
    d_model, length, alpha = 16, 2000, 100.0
    checked = 0
    for seed in range(4):
        head = init_attention_params(GFI, d_model, 8, 8, alpha, np.random.default_rng(seed))
        if inputs == "normal":
            x = rng.normal(size=(length, d_model))
        elif inputs == "outliers":
            x = outlier_frames(rng, length, d_model)
        else:
            x = far_twin(rng, length, d_model, head, alpha)
        half = VARIANTS[GFI].projections(const(x), head, alpha, start_index).half
        assert half is not None and half < length // 2
        full = head_weights(x, head, GFI, alpha, start_index).data
        if inputs == "far_twin":
            assert full[100, 280] > 0.0 and half > 180
        for rows in linalg.row_chunks(length, length):
            keys = key_window(rows, half, length)
            outside = np.ones(length, dtype=bool)
            outside[keys] = False
            assert (full[rows][:, outside] == 0.0).all(), (seed, rows, keys)
            checked += outside.sum()
    assert checked > 0


def test_gaussian_has_no_band():
    rng = np.random.default_rng(3)
    heads = [init_attention_params(AttentionVariant.GAUSSIAN, 16, 8, 8, 100.0, rng)
             for _ in range(2)]
    w_o = const(rng.normal(size=(16, 17)))
    x = const(rng.normal(size=(600, 16)))
    seen = []
    with no_grad():
        multi_head_attention(x, heads, w_o, AttentionVariant.GAUSSIAN,
                             observe=lambda head, rows, keys, w: seen.append((keys, w.shape)))
    assert VARIANTS[AttentionVariant.GAUSSIAN].projections(x, heads[0], 100.0, 0).half is None
    assert len(seen) > 2 and all(keys == slice(None) and shape[1] == 600
                                 for keys, shape in seen)


def test_attention_weights_rejects_a_window_for_a_variant_without_band():
    head = init_attention_params(AttentionVariant.STANDARD, 4, 3, 4, 100.0,
                                 np.random.default_rng(0))
    with pytest.raises(InternalError):
        head_weights(np.ones((5, 4)), head, AttentionVariant.STANDARD, keys=slice(0, 3))


@pytest.mark.parametrize("rows, keys", [(slice(0, 1), slice(0, 1)),
                                        (slice(65, 130), slice(8, 200)),
                                        (slice(280, 300), slice(216, 300))])
def test_pairwise_sqdist_scores_window_is_bit_identical_to_its_expression(rows, keys):
    a = np.random.default_rng(rows.start).normal(scale=3.0, size=(300, 16))
    g = np.einsum("ij,ij->i", a, a)
    expected = -0.5 * (g[rows, None] + g[None, keys]) + a[rows] @ a[keys].T
    got = pairwise_sqdist_scores(const(a), g, rows, keys).data
    npt.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_multi_head_gradients_through_the_band(monkeypatch):
    # blocks of 2 rows over L = 40, and an index step of 5 per frame: W is
    # about 10 frames, so most blocks see a window narrower than L
    monkeypatch.setattr(linalg, "CHUNK_ELEMENTS", 80)
    rng = np.random.default_rng(9100)
    d_model, d_k, d_v, L = 4, 3, 2, 40
    heads = [init_attention_params(GFI, d_model, d_k, d_v, 100.0, rng) for _ in range(2)]
    for head in heads:
        head["w_s"].data[:, d_model] *= 30.0
    w_o = param(rng.normal(size=(d_model, 2 * d_v + 1)))
    x = param(rng.normal(size=(L, d_model)))
    probe = const(rng.normal(size=(L, d_model)))
    windows = []

    def f():
        out = multi_head_attention(x, heads, w_o, GFI, alpha=100.0,
                                   observe=lambda h, rows, keys, w: windows.append(keys))
        return sum_all(mul(probe, out))

    named = [("x", x), ("w_o", w_o)]
    for i, h in enumerate(heads):
        named += [(f"h{i}.{name}", t) for name, t in h.items()]
    errors = check_gradients(f, named)
    assert max(errors.values()) <= 1e-5, errors
    assert any(keys.indices(L)[1] - keys.indices(L)[0] < L for keys in windows)


def test_lecture_length_rows_match_a_direct_softmax_and_memory_grows_linearly():
    # L = 8 000 with an index step of 5 per frame, so that W is about 10 frames
    # and each block holds CHUNK_ELEMENTS / (2W + 128) rows: sampled rows of the
    # banded forward match a softmax over every key computed one row at a time,
    # and the forward's peak memory doubles with L, where one L x L matrix
    # would be 512 MB
    import tracemalloc

    rng = np.random.default_rng(8000)
    d_model, d_k, d_v, alpha = 8, 4, 4, 100.0
    heads = [init_attention_params(GFI, d_model, d_k, d_v, alpha, rng) for _ in range(2)]
    for head in heads:
        head["w_s"].data[:, d_model] *= 30.0
    w_o = const(rng.normal(size=(d_model, 2 * d_v + 1)))
    peaks = {}
    for length in (4000, 8000):
        x = rng.normal(size=(length, d_model))
        sample = set(rng.choice(length, size=24, replace=False)) | {0, length - 1}
        rows_seen = {}

        def observe(head, rows, keys, weights):
            for i in sample.intersection(range(*rows.indices(length))):
                rows_seen[head, i] = rows, keys, weights[i - rows.start].copy()

        tracemalloc.start()
        try:
            with no_grad():
                multi_head_attention(const(x), heads, w_o, GFI, alpha=alpha, observe=observe)
            peaks[length] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows_seen) == 2 * len(sample)
        for h, head in enumerate(heads):
            half = VARIANTS[GFI].projections(const(x), head, alpha, 0).half
            assert half is not None and half < 32
            step = linalg.CHUNK_ELEMENTS // (2 * half + 128)
            index = np.arange(length, dtype=np.float64)[:, None] / alpha
            xa = np.concatenate([x, index, np.ones((length, 1))], axis=1)
            a = xa @ head["w_s"].data.T * d_k**-0.25
            for i in sample:
                rows, keys, kept = rows_seen[h, i]
                assert rows.start % step == 0 and rows.stop - rows.start == step
                # the block's rows and W frames on each side, clipped to the input
                assert keys == slice(max(0, rows.start - half), min(length, rows.stop + half))
                scores = -0.5 * ((a - a[i]) ** 2).sum(axis=1)
                direct = np.exp(scores - scores.max())
                direct /= direct.sum()
                got = np.zeros(length)
                got[keys] = kept
                # the scores round as eps * ||a||^2 in the Gram form, a growing
                # with the frame index even when centred (the weights agree to
                # about 1.5e-7 here); a weight the softmax drops is subnormal
                # in the oracle
                npt.assert_allclose(got, direct, rtol=1e-5, atol=1e-300)
    assert peaks[8000] <= 2.2 * peaks[4000], peaks

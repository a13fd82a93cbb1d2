"""Encoder: subsampling, block structure, shape laws, gradients, checkpoints."""

import json
import math
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import longattn
from conftest import (MARKER, assert_packed, mul, parameter_count, poison, sqnorms, sum_all,
                      transpose)
from longattn.attention import AttentionVariant
from longattn.encoder import (
    EncoderConfig,
    TrainedModel,
    encoder_forward,
    init_model,
    load_checkpoint,
    sa_block_forward,
    save_checkpoint,
    subsample,
    weight_count,
)
from longattn.errors import ConfigError, ShortInputError
from longattn.numerics import check_gradients, const, no_grad, param, recording
from longattn.numerics import tensor as T

TINY = dict(feat_dim=3, d_model=8, n_layers=2, n_heads=2, d_k=4, d_ff=16,
            subsample_factor=4, vocab_size=4)


def tiny_cfg(variant=AttentionVariant.GAUSSIAN_FRAME_INDEX, **over):
    kw = dict(TINY)
    kw.update(over)
    return EncoderConfig(variant=variant, **kw)


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def test_subsample_factor_one_preserves_length():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 3))
    proj = const(np.concatenate([np.eye(3), np.zeros((3, 1))], axis=1))
    out = subsample(x, 1, proj)
    npt.assert_allclose(out.data, x, atol=1e-15)


def test_subsample_length_arithmetic():
    proj = const(np.zeros((5, 13)))
    assert subsample(np.ones((8, 3)), 4, proj).data.shape == (2, 5)


def test_subsample_tail_zero_padding():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 2))
    # identity-like projection exposing the stacked frame contents
    proj = const(np.concatenate([np.eye(8), np.zeros((8, 1))], axis=1))
    out = subsample(x, 4, proj).data
    assert out.shape == (3, 8)
    npt.assert_allclose(out[2, :2], x[8], atol=1e-15)
    npt.assert_array_equal(out[2, 2:], np.zeros(6))


def test_subsample_too_short():
    with pytest.raises(ShortInputError):
        subsample(np.ones((3, 2)), 4, const(np.zeros((5, 9))))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_block_is_identity_with_zero_residual_weights():
    cfg = tiny_cfg(AttentionVariant.STANDARD)
    params = init_model(cfg, seed=0, zero_residual=True)
    rng = np.random.default_rng(2)
    x = const(rng.normal(size=(6, cfg.d_model)))
    out = sa_block_forward(x, params.blocks[0], cfg)
    npt.assert_allclose(out.data, x.data, atol=1e-12)


@pytest.mark.parametrize("length", [1, 5, 40])
def test_block_preserves_shape(length):
    cfg = tiny_cfg(AttentionVariant.GAUSSIAN)
    params = init_model(cfg, seed=3, zero_residual=False)
    rng = np.random.default_rng(4)
    x = const(rng.normal(size=(length, cfg.d_model)))
    assert sa_block_forward(x, params.blocks[0], cfg).data.shape == x.data.shape


@pytest.mark.parametrize("seed", range(2))
def test_gradient_through_two_stacked_blocks(seed):
    from conftest import screen_seed

    cfg = tiny_cfg(AttentionVariant.GAUSSIAN_FRAME_INDEX)
    state = {}

    def make_case(s):
        params = init_model(cfg, seed=s, zero_residual=False)
        rng = np.random.default_rng(s + 7)
        x = param(rng.normal(size=(4, cfg.d_model)))
        probe = const(rng.normal(size=(4, cfg.d_model)))

        def f():
            h = sa_block_forward(x, params.blocks[0], cfg)
            h = sa_block_forward(h, params.blocks[1], cfg)
            return sum_all(mul(probe, h))

        state["named"] = ([("x", x)] + params.blocks[0].named("b0.")
                          + params.blocks[1].named("b1."))
        state["f"] = f
        return f

    screen_seed(make_case, 10 + seed)
    errors = check_gradients(state["f"], state["named"])
    assert max(errors.values()) <= 1e-5, errors


# ---------------------------------------------------------------------------
# full encoder
# ---------------------------------------------------------------------------


def test_encoder_output_shape():
    cfg = tiny_cfg(AttentionVariant.STANDARD)
    params = init_model(cfg, seed=5)
    rng = np.random.default_rng(6)
    out = encoder_forward(rng.normal(size=(100, cfg.feat_dim)), params, cfg)
    assert out.data.shape == (25, cfg.vocab_size)


def test_encoder_deterministic():
    cfg = tiny_cfg(AttentionVariant.SOFT_MASK)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(17, cfg.feat_dim))
    a = encoder_forward(x, init_model(cfg, seed=8), cfg).data
    b = encoder_forward(x, init_model(cfg, seed=8), cfg).data
    npt.assert_array_equal(a, b)


def test_encoder_identity_at_initialization():
    # with residual outputs zeroed the block stack is the identity, so the
    # encoder reduces to final-LN(subsample (+ PE)) through the output map
    cfg = tiny_cfg(AttentionVariant.STANDARD)
    params = init_model(cfg, seed=9, zero_residual=True)
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(21, cfg.feat_dim))
    full = encoder_forward(feats, params, cfg).data

    from longattn.attention import sinusoid_encoding
    from longattn.numerics.tensor import add, append_const_col, layer_norm_rows, matmul

    x = subsample(feats, cfg.subsample_factor, params.subsample_proj)
    x = add(x, const(sinusoid_encoding(x.data.shape[0], cfg.d_model)))
    x = layer_norm_rows(x, params.final_gain, params.final_bias)
    direct = matmul(append_const_col(x), transpose(params.w_out)).data
    npt.assert_allclose(full, direct, atol=1e-12)


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_length_law(factor):
    cfg = tiny_cfg(AttentionVariant.GAUSSIAN, subsample_factor=factor)
    params = init_model(cfg, seed=11)
    for t in range(factor, 65):
        out = encoder_forward(np.ones((t, cfg.feat_dim)), params, cfg)
        assert out.data.shape[0] == math.ceil(t / factor), t


@pytest.mark.parametrize("seed", range(2))
def test_end_to_end_gradient_check(seed):
    from conftest import screen_seed

    cfg = tiny_cfg(AttentionVariant.GAUSSIAN_FRAME_INDEX)
    state = {}

    def make_case(s):
        params = init_model(cfg, seed=s, zero_residual=False)
        rng = np.random.default_rng(s + 11)
        feats = rng.normal(size=(4 * 6, cfg.feat_dim))
        probe = const(rng.normal(size=(6, cfg.vocab_size)))

        def f():
            return sum_all(mul(probe, encoder_forward(feats, params, cfg)))

        state["f"], state["params"] = f, params
        return f

    screen_seed(make_case, 30 + seed)
    errors = check_gradients(state["f"], state["params"].named())
    assert max(errors.values()) <= 1e-5, max(errors.items(), key=lambda kv: kv[1])


def localized_frame_index_model(cfg, seed, window):
    """Model whose kernel window over frame offsets is ~``window`` frames."""
    params = init_model(cfg, seed=seed, zero_residual=False)
    norm = cfg.alpha * cfg.d_k**0.25 / window
    for block in params.blocks:
        for head in block.heads:
            head["w_s"].data[:, cfg.d_model] = norm / math.sqrt(cfg.d_k)
    return params


def test_shifted_input_matches_on_overlap():
    cfg = tiny_cfg(AttentionVariant.GAUSSIAN_FRAME_INDEX)
    params = localized_frame_index_model(cfg, seed=12, window=1.5)
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(160, cfg.feat_dim))
    k = 3
    shifted_feats = np.concatenate([np.zeros((k * cfg.subsample_factor, cfg.feat_dim)),
                                    feats], axis=0)
    base = encoder_forward(feats, params, cfg).data
    shifted = encoder_forward(shifted_feats, params, cfg).data
    # two blocks double the attention radius; keep the compared region clear
    # of both sequence starts
    margin = 16
    diff = np.abs(shifted[margin + k:] - base[margin:]).max()
    assert diff <= 1e-8, diff


def test_observer_sees_each_row_block_once_per_layer_and_head(fast_switching):
    # taped, a head's blocks come in row order on the calling thread; with no
    # tape, in any order on any thread, so sorted by rows they tile the head
    # once, and a lost call would leave a gap. Either way a head's calls end
    # before the next head's begin.
    from contextlib import nullcontext

    from longattn.numerics import linalg

    length = 300
    assert len(linalg.row_blocks(length, None)) >= 2
    for variant in AttentionVariant:
        cfg = tiny_cfg(variant)
        params = init_model(cfg, seed=14, zero_residual=False)
        feats = np.random.default_rng(17).normal(size=(length * cfg.subsample_factor,
                                                      cfg.feat_dim))
        for taped in (True, False):
            calls = []

            def observe(layer, head, rows, keys, weights):
                calls.append(((layer, head), rows, weights, threading.get_ident()))

            with nullcontext() if taped else no_grad():
                encoder_forward(feats, params, cfg, observe=observe)
            order = [at for at, *_ in calls]
            assert order == sorted(order), (variant, taped)
            heads = {at: [] for at in order}
            for at, *block in calls:
                heads[at].append(block)
            assert list(heads) == [(i, h) for i in range(cfg.n_layers) for h in range(cfg.n_heads)]
            for blocks in heads.values():
                if taped:
                    assert {thread for *_, thread in blocks} == {threading.get_ident()}
                else:
                    blocks.sort(key=lambda block: block[0].indices(length))
                covered = 0
                for rows, weights, _ in blocks:
                    start, stop, _ = rows.indices(length)
                    assert start == covered and stop > start, (variant, taped, rows)
                    assert weights.shape == (stop - start, length)
                    npt.assert_allclose(weights.sum(axis=1), np.ones(stop - start), atol=1e-12)
                    covered = stop
                assert covered == length and len(blocks) >= 2


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_no_grad_forward_is_bit_identical(variant):
    # 37 frames are one row block; 4000 frames (L = 1000) are several, which
    # the no-grad forward runs on the pool and the taped one in row order
    cfg = tiny_cfg(variant)
    params = init_model(cfg, seed=15, zero_residual=False)
    for frames in (37, 4000):
        feats = np.random.default_rng(16).normal(size=(frames, cfg.feat_dim))
        taped = encoder_forward(feats, params, cfg)
        with no_grad():
            free = encoder_forward(feats, params, cfg)
        assert taped.requires_grad and not free.requires_grad
        assert free._grad_fn is None
        npt.assert_array_equal(free.data, taped.data)


def block_threads(monkeypatch, run) -> set[int]:
    """The threads that scored a row block while ``run()`` ran."""
    from longattn.attention import multihead

    threads, weights = set(), multihead.attention_weights

    def counted(*args, **kwargs):
        threads.add(threading.get_ident())
        return weights(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(multihead, "attention_weights", counted)
        run()
    return threads


def test_no_grad_row_blocks_run_on_every_cpu_and_taped_ones_in_order(monkeypatch):
    cfg = tiny_cfg(AttentionVariant.STANDARD)
    params = init_model(cfg, seed=15, zero_residual=False)
    feats = np.random.default_rng(16).normal(size=(4000, cfg.feat_dim))  # 16 blocks a head

    def decode():
        with no_grad():
            encoder_forward(feats, params, cfg)

    def observed_decode():  # an observer runs where its block is scored, on the pool
        with no_grad():
            encoder_forward(feats, params, cfg, observe=lambda *block: None)

    for run in (decode, observed_decode):
        pooled = block_threads(monkeypatch, run)
        if len(os.sched_getaffinity(0)) > 1:
            assert len(pooled) > 1 and threading.get_ident() not in pooled, run.__name__
        else:
            assert pooled == {threading.get_ident()}
    taped = block_threads(monkeypatch, lambda: encoder_forward(feats, params, cfg))
    assert taped == {threading.get_ident()}


def test_a_failed_pooled_block_cancels_the_blocks_not_started_and_outlives_none(monkeypatch):
    # the first of 16 blocks raises while the others sleep: the call raises
    # only once no block of it runs, and no queued block starts afterwards
    import time

    from longattn.attention import multihead

    cfg = tiny_cfg(AttentionVariant.STANDARD, n_layers=1, n_heads=1)
    params = init_model(cfg, seed=15, zero_residual=False)
    feats = np.random.default_rng(16).normal(size=(4000, cfg.feat_dim))  # 16 blocks
    started, ended = [], []
    weights, matmul = multihead.attention_weights, multihead.matmul

    def first_fails(projected, head, variant, *, rows, keys):
        started.append(rows)
        if rows.start == 0:
            raise RuntimeError("first block")
        time.sleep(0.05)
        return weights(projected, head, variant, rows=rows, keys=keys)

    def counted(attn, values):
        out = matmul(attn, values)
        ended.append(out)
        return out

    monkeypatch.setattr(multihead, "attention_weights", first_fails)
    monkeypatch.setattr(multihead, "matmul", counted)
    with pytest.raises(RuntimeError, match="first block"), no_grad():
        encoder_forward(feats, params, cfg)
    at_raise = len(started), len(ended)
    pool, workers = multihead.row_block_pool(), len(os.sched_getaffinity(0))
    if pool is not None:  # every worker waits at one barrier, so none runs a block
        barrier = threading.Barrier(workers, timeout=60)
        for done in [pool.submit(barrier.wait) for _ in range(workers)]:
            done.result(timeout=60)
    assert (len(started), len(ended)) == at_raise
    assert at_raise[1] == at_raise[0] - 1  # every block that started but the first ended
    assert at_raise[0] < 16


def test_a_forked_child_decodes_after_a_pooled_decode():
    # the parent's pool threads do not exist in a forked child, which must
    # start a pool of its own rather than wait on them
    cfg = tiny_cfg(AttentionVariant.GAUSSIAN_FRAME_INDEX)
    params = init_model(cfg, seed=15, zero_residual=False)
    feats = np.random.default_rng(16).normal(size=(4000, cfg.feat_dim))
    with no_grad():
        expected = encoder_forward(feats, params, cfg).data.tobytes()
    context = multiprocessing.get_context("fork")
    results = context.Queue()

    def child():
        with no_grad():
            results.put(encoder_forward(feats, params, cfg).data.tobytes())

    process = context.Process(target=child)
    process.start()
    try:
        got = results.get(timeout=60)
    finally:
        process.join(timeout=10)
        if process.is_alive():
            process.kill()
    assert got == expected and process.exitcode == 0


@pytest.fixture
def fast_switching():
    """Threads switch every 10 us, so two threads' ops interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def test_a_decode_on_one_thread_leaves_training_on_another_as_it_runs_alone(fast_switching):
    # each thread has its own current tape: no_grad around a pooled decode turns
    # no other thread's recording off, and recording() on one thread captures
    # none of another thread's ops (memcheck counts one head's ops that way)
    from longattn.ctc import ctc_loss_op
    from longattn.numerics.optim import Adam

    cfg = tiny_cfg(AttentionVariant.GAUSSIAN_FRAME_INDEX)
    decoded = init_model(cfg, seed=15, zero_residual=False)
    long_feats = np.random.default_rng(16).normal(size=(4000, cfg.feat_dim))  # 10 blocks a head
    decoding, stop, decodes = threading.Event(), threading.Event(), []

    def decode_until_stopped():
        while not decodes or not stop.is_set():
            with no_grad():
                decoding.set()
                decodes.append(encoder_forward(long_feats, decoded, cfg).data.tobytes())

    def train(steps=8):  # train_model's step on fresh 37-frame utterances
        params = init_model(cfg, seed=18)
        optimizer = Adam(params.tensors(), lr=2e-3)
        rng = np.random.default_rng(19)
        curve = []
        for _ in range(steps):
            feats = rng.normal(size=(37, cfg.feat_dim))
            loss = ctc_loss_op(T.log_softmax_rows(encoder_forward(feats, params, cfg)), [1, 2, 3])
            optimizer.zero_grad()
            T.backward(loss)
            optimizer.step()
            curve.append(loss.item())
        return np.array(curve).tobytes(), b"".join(t.data.tobytes() for t in params.tensors())

    with no_grad():
        expected = encoder_forward(long_feats, decoded, cfg).data.tobytes()
    trained = train()
    decoder = threading.Thread(target=decode_until_stopped, daemon=True)
    decoder.start()
    try:
        assert decoding.wait(timeout=60)
        assert train() == trained
    finally:
        stop.set()
        decoder.join(timeout=60)
    assert not decoder.is_alive() and decodes and set(decodes) == {expected}

    def count_ops(frames, barrier=None):
        """Ops a taped forward of ``frames`` frames records; with ``barrier``, the
        other thread's recording() block is open all the while."""
        feats = np.random.default_rng(frames).normal(size=(frames, cfg.feat_dim))
        with recording() as tape:
            if barrier:
                barrier.wait(timeout=60)
            encoder_forward(feats, decoded, cfg)
            if barrier:
                barrier.wait(timeout=60)
        return len(tape)

    alone, barrier, counts = [count_ops(37), count_ops(1200)], threading.Barrier(2), []
    other = threading.Thread(target=lambda: counts.append(count_ops(1200, barrier)), daemon=True)
    other.start()
    try:
        counts.insert(0, count_ops(37, barrier))
    finally:
        other.join(timeout=60)
    assert not other.is_alive() and counts == alone and alone[0] < alone[1]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs /proc and 2 CPUs")
@pytest.mark.parametrize("chosen, variables, threads", [
    ({}, ["1", "1", "1"], 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None], 2),
], ids=["unset", "user-set"])
def test_importing_longattn_runs_blas_on_one_thread_unless_a_count_is_set(
        chosen, variables, threads):
    # the pool is the parallelism: with no count set, OpenBLAS starts no threads
    # of its own when numpy loads it, and a count the user set is kept as it is
    src = str(Path(longattn.__file__).parents[1])
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    env.update(chosen, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    code = ("import json, os, longattn.cli; print(json.dumps([[os.environ.get(name) for name in "
            f"{BLAS_THREAD_VARIABLES!r}], len(os.listdir('/proc/self/task'))]))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    assert json.loads(child.stdout) == [variables, threads]


# tape ops one default training step records: the per-op fixed cost scales with these
STEP_OPS = {"standard": 102, "soft_mask": 102, "relative_pe": 133, "shared_qk": 86,
            "gaussian": 101, "gaussian_frame_index": 109, "standard_frame_index": 110}


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_default_training_step_records_the_stated_ops(variant):
    # forward, log-softmax and CTC loss, as train_model runs them, on 115 frames
    # (29 subsampled, one row block)
    from longattn.ctc import ctc_loss_op

    cfg = EncoderConfig(variant=variant)
    params = init_model(cfg, seed=21)
    feats = np.random.default_rng(22).normal(size=(115, cfg.feat_dim))
    with recording() as tape:
        loss = ctc_loss_op(T.log_softmax_rows(encoder_forward(feats, params, cfg)), [1, 5, 2])
    assert tape[-1]() is loss
    assert len(tape) == STEP_OPS[variant.value]


def forward_peak_bytes(cfg, feats, tape=no_grad) -> int:
    params = init_model(cfg, seed=17, zero_residual=False)
    tracemalloc.start()
    try:
        with tape():
            encoder_forward(feats, params, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", [AttentionVariant.GAUSSIAN_FRAME_INDEX,
                                     AttentionVariant.RELATIVE_PE], ids=lambda v: v.value)
def test_no_grad_forward_memory_does_not_grow_with_depth(variant):
    # a k=16 concatenation is about 1864 frames; without a tape each block's
    # intermediates die before the next block runs. A row block holds its
    # score buffer and at most two temporaries as large at once, and up to one
    # block per pool worker is alive, so a forward's peak moves by up to that
    # much with thread timing alone
    from longattn.numerics import linalg

    timing = (len(os.sched_getaffinity(0)) - 1) * 3 * linalg.CHUNK_ELEMENTS * 8

    def bound(shallow):
        return 1.2 * shallow + timing

    feats = np.random.default_rng(18).normal(size=(1864, 8))
    shallow = forward_peak_bytes(EncoderConfig(variant=variant, n_layers=1), feats)
    deep = forward_peak_bytes(EncoderConfig(variant=variant, n_layers=4), feats)
    assert deep <= bound(shallow), (deep, shallow, timing)
    # a forward that keeps its layers alive (a recorded graph) exceeds the bound
    shallow = forward_peak_bytes(EncoderConfig(variant=variant, n_layers=1), feats, recording)
    deep = forward_peak_bytes(EncoderConfig(variant=variant, n_layers=4), feats, recording)
    assert deep > bound(shallow), (deep, shallow, timing)


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_no_grad_forward_never_holds_a_full_attention_matrix(variant, monkeypatch):
    # T = 4000 subsamples to L = 1000; attention runs in blocks of query rows,
    # so the peak stays below a single L x L float64 matrix
    from longattn.attention import encodings

    monkeypatch.setattr(encodings, "_tables", {})  # a cached table would escape the count
    feats = np.random.default_rng(19).normal(size=(4000, 8))
    peak = forward_peak_bytes(EncoderConfig(variant=variant), feats)
    assert peak < 1000 * 1000 * 8, peak


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_no_grad_forward_hands_the_pair_kernels_one_row_block(variant, monkeypatch):
    # softmax_rows and pairwise_sqdist_scores are whole-matrix expressions; a
    # long decode stays cache-sized because attention calls them per row block,
    # with the squared norms g that the head's projection computed once
    from longattn.attention import params
    from longattn.numerics import linalg
    from longattn.numerics import tensor as tensor_module

    softmax_sizes, sqdist_sizes, norms, halves = [], [], [], []
    softmax, sqdist = tensor_module._softmax, params.pairwise_sqdist_scores
    project = params.gaussian_projection

    def counted_softmax(m, out=None):
        softmax_sizes.append(m.size)
        assert out is not None and out.base is m  # the block is normalised in place
        return softmax(m, out)

    def counted_sqdist(a, g, rows=slice(None), keys=slice(None)):
        out = sqdist(a, g, rows, keys)
        sqdist_sizes.append(out.data.size)
        npt.assert_array_equal(g, sqnorms(a))
        norms.append(g)  # kept alive, so each computed g has its own id
        return out

    def banded_projection(*args):
        projected = project(*args)
        halves.append(projected.half)
        return projected

    monkeypatch.setattr(tensor_module, "_softmax", counted_softmax)
    monkeypatch.setattr(params, "pairwise_sqdist_scores", counted_sqdist)
    monkeypatch.setattr(params, "gaussian_projection", banded_projection)
    cfg = EncoderConfig(variant=variant)
    model = init_model(cfg, seed=17)
    if variant == AttentionVariant.GAUSSIAN_FRAME_INDEX:
        for block in model.blocks:  # an index step of 30x the init's: W is about 9 frames
            for head in block.heads:
                head["w_s"].data[:, cfg.d_model] *= 30.0
    feats = np.random.default_rng(20).normal(size=(4000, 8))
    with no_grad():
        encoder_forward(feats, model, cfg)
    # L = 1000: the blocks row_blocks plans for each head and layer, 16 of 65
    # rows over every key without a band, each within CHUNK_ELEMENTS
    heads = cfg.n_layers * cfg.n_heads
    banded = [half for half in halves if half is not None]
    assert len(banded) == (heads if variant == AttentionVariant.GAUSSIAN_FRAME_INDEX else 0)
    assert all(half < 16 for half in banded)
    blocks = sum(len(linalg.row_blocks(1000, half)) for half in banded)
    blocks += len(linalg.row_blocks(1000, None)) * (heads - len(banded))
    assert len(softmax_sizes) == blocks
    assert max(softmax_sizes) <= linalg.CHUNK_ELEMENTS
    gaussian = variant in (AttentionVariant.GAUSSIAN, AttentionVariant.GAUSSIAN_FRAME_INDEX)
    assert len(sqdist_sizes) == (blocks if gaussian else 0)
    assert max(sqdist_sizes, default=0) <= max(softmax_sizes)
    # once per layer and head (8), not once per block
    assert len({id(g) for g in norms}) == (cfg.n_layers * cfg.n_heads if gaussian else 0)


# ---------------------------------------------------------------------------
# config validation and checkpoints
# ---------------------------------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        tiny_cfg(AttentionVariant.STANDARD, d_model=9, n_heads=2)


@pytest.mark.parametrize("bad", [dict(n_heads=0), dict(alpha=math.nan), dict(alpha=math.inf),
                                 dict(alpha=0.0)], ids=str)
def test_config_rejects_zero_heads_and_non_finite_alpha(bad):
    # a checkpoint's metadata reaches here unchecked; JSON allows NaN and Infinity
    with pytest.raises(ConfigError):
        tiny_cfg(AttentionVariant.GAUSSIAN_FRAME_INDEX, **bad)


def test_config_rejects_small_vocab():
    with pytest.raises(ConfigError):
        tiny_cfg(AttentionVariant.STANDARD, vocab_size=1)


def test_abs_pe_defaults_per_variant():
    assert tiny_cfg(AttentionVariant.STANDARD).abs_pe_enabled
    assert tiny_cfg(AttentionVariant.SOFT_MASK).abs_pe_enabled
    assert not tiny_cfg(AttentionVariant.GAUSSIAN).abs_pe_enabled
    assert not tiny_cfg(AttentionVariant.RELATIVE_PE).abs_pe_enabled
    assert tiny_cfg(AttentionVariant.GAUSSIAN, use_abs_pe=True).abs_pe_enabled


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg(AttentionVariant.RELATIVE_PE)
    params = init_model(cfg, seed=15, zero_residual=False)
    model = TrainedModel(cfg, params, {"seed": 15, "steps": 0})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.meta == {"seed": 15, "steps": 0}
    for (name_a, a), (name_b, b) in zip(params.named(), loaded.params.named()):
        assert name_a == name_b
        npt.assert_array_equal(a.data, b.data)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(20, cfg.feat_dim))
    npt.assert_array_equal(encoder_forward(x, params, cfg).data,
                           encoder_forward(x, loaded.params, cfg).data)


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_weight_count_is_what_init_model_draws(variant):
    # load_checkpoint compares it with the file's arrays before it draws a model
    for cfg in (tiny_cfg(variant), EncoderConfig(variant=variant)):
        assert weight_count(cfg) == parameter_count(init_model(cfg, seed=0))


def test_init_model_and_load_checkpoint_pack_each_model_into_one_buffer(tmp_path):
    cfg = tiny_cfg(AttentionVariant.RELATIVE_PE)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, TrainedModel(cfg, init_model(cfg, seed=18), {}))
    for params in (init_model(cfg, seed=18), load_checkpoint(path).params):
        tensors = params.tensors()
        data, grads = tensors[0].data.base, tensors[0].grad.base
        assert_packed(tensors, data, grads)
        assert not grads.any()
        again = T.pack(tensors)
        assert again[0] is data and again[1] is grads


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = tiny_cfg(AttentionVariant.GAUSSIAN)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, TrainedModel(cfg, init_model(cfg, seed=17), {"seed": 17}))
    save_checkpoint(p2, TrainedModel(cfg, init_model(cfg, seed=17), {"seed": 17}))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_container_rejects_every_truncation_and_trailing_byte(tmp_path):
    from longattn.container import read_container, write_container

    path = tmp_path / "small.bin"
    write_container(path, {"k": [1, "v"]}, [("a", np.arange(6.0).reshape(2, 3)),
                                             ("b", np.array([[7]], dtype=np.int64))])
    data = path.read_bytes()
    meta, arrays = read_container(path)
    assert meta == {"k": [1, "v"]} and sorted(arrays) == ["a", "b"]
    bad = tmp_path / "bad.bin"
    for blob in [data[:n] for n in range(len(data))] + [data + b"\0"]:
        bad.write_bytes(blob)
        with pytest.raises(ConfigError) as info:
            read_container(bad)
        assert "\n" not in str(info.value), len(blob)


def test_container_rejects_non_finite_floats(tmp_path):
    from longattn.container import read_container, write_container

    path = tmp_path / "c.bin"
    for bad in (math.nan, math.inf, -math.inf):
        values = np.arange(6.0).reshape(2, 3)
        values[1, 2] = MARKER
        write_container(path, {}, [("ok", np.ones((1, 1))), ("w", values),
                                   ("n", np.array([[-1]], dtype=np.int64))])
        poison(path, bad)  # the writer refuses such an array, so write its bytes by hand
        with pytest.raises(ConfigError) as info:
            read_container(path)
        assert str(info.value) == f"{path}: array 'w' holds a non-finite value"
    # the extreme finite floats and integers read back
    edges = np.array([[sys.float_info.max, -sys.float_info.max, 5e-324, -0.0]])
    write_container(path, {}, [("w", edges), ("n", np.array([[2**63 - 1]], dtype=np.int64))])
    npt.assert_array_equal(read_container(path)[1]["w"], edges)


def test_write_container_refuses_an_array_before_it_opens_the_file(tmp_path):
    # every array that read_container would refuse is refused by name, and the
    # file is neither created nor, when it exists, touched
    from longattn.container import write_container

    one = np.ones((1, 1))
    for arrays, named in [
        ([("ok", one), ("cube", np.ones((1, 1, 1)))], "'cube' has shape (1, 1, 1)"),
        ([("ok", one), ("f32", np.ones((1, 1), dtype=np.float32))], "for array 'f32'"),
        ([("ok", one), ("nan", np.array([[1.0, math.nan]]))], "array 'nan' holds a non-finite"),
        ([("ok", one), ("inf", np.array([[-math.inf]]))], "array 'inf' holds a non-finite"),
        ([("ok", one), ("ok", one)], "duplicate array name"),
    ]:
        path = tmp_path / "new.bin"
        with pytest.raises(ConfigError, match=re.escape(named)):
            write_container(path, {}, arrays)
        assert not path.exists(), named
        kept = tmp_path / "kept.bin"
        kept.write_bytes(b"earlier")
        with pytest.raises(ConfigError, match=re.escape(named)):
            write_container(kept, {}, arrays)
        assert kept.read_bytes() == b"earlier", named


def test_container_rejects_repeated_array_names(tmp_path):
    from longattn.container import read_container, write_container

    one = np.zeros((1, 1))
    with pytest.raises(ConfigError, match="duplicate"):
        write_container(tmp_path / "w.bin", {}, [("a", one), ("b", one), ("a", one)])
    assert not (tmp_path / "w.bin").exists()
    entry = struct.pack("<H", 1) + b"a" + struct.pack("<BII", 0, 1, 1) + one.tobytes()
    path = tmp_path / "r.bin"
    path.write_bytes(b"LATNBIN1" + struct.pack("<I", 2) + b"{}" + struct.pack("<I", 2) + 2 * entry)
    with pytest.raises(ConfigError, match="duplicate array name 'a'"):
        read_container(path)


def test_write_csv_floats_read_back_exactly(tmp_path):
    from longattn.container import write_csv

    floats = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, np.float64(2 / 7)]
    path = tmp_path / "t.csv"
    write_csv(path, "config_hash=x k=1", [("name", "n", "value"), ("a", 3, floats[0]),
                                           ("b", np.int64(-4), floats[1])])
    assert path.read_text() == ("# config_hash=x k=1\nname,n,value\n"
                                "a,3,0.10000000000000001\nb,-4,0.33333333333333331\n")
    write_csv(path, "no header", [floats, floats[::-1]])  # a matrix: no header row
    lines = path.read_text().splitlines()
    assert lines[0] == "# no header" and len(lines) == 3
    back = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert back == [floats, floats[::-1]]


def _hostile_container(fields: dict) -> bytes:
    """Container bytes from raw header fields, none of them checked."""
    out = b"LATNBIN1" + struct.pack("<I", fields["meta_len"]) + fields["meta"]
    out += struct.pack("<I", fields["n_arrays"])
    for name, code, rows, cols, payload in fields["arrays"]:
        out += struct.pack("<H", fields.get("name_len", len(name))) + name
        out += struct.pack("<BII", code, rows, cols) + payload
    return out


def _truncations_and_bit_flips(data: bytes):
    from hypothesis import strategies as st

    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.integers(0, 8 * len(data) - 1).map(lambda bit: _flip(data, bit)),
    )


def _flip(data: bytes, bit: int) -> bytes:
    return data[:bit // 8] + bytes([data[bit // 8] ^ (1 << bit % 8)]) + data[bit // 8 + 1:]


def _container_mutations():
    """Truncations, single-bit flips, and hostile length, shape, dtype and name fields."""
    from hypothesis import strategies as st

    meta = b'{"format":"longattn-checkpoint-v1"}'
    arrays = [(b"a", 0, 2, 3, np.arange(6.0).tobytes()), (b"b", 1, 1, 1, bytes(8))]
    base = {"meta_len": len(meta), "meta": meta, "n_arrays": 2, "arrays": arrays}
    u32 = st.sampled_from([0, 1, 2, 3, 6, 7, 2**16, 2**31 - 1, 2**31, 2**32 - 1])
    names = st.sampled_from([b"a", b"", b"\xff\xfe", b"\n", "\u00e9".encode(), b"a" * 300])
    metas = st.sampled_from([b"", b"[]", b"null", b"{", b"\xff", b"[" * 5000 + b"]" * 5000,
                             b'{"n":' + b"9" * 5000 + b"}", b'{"a":NaN}'])
    hostile = st.one_of(
        u32.map(lambda n: {**base, "meta_len": n}),
        metas.map(lambda m: {**base, "meta_len": len(m), "meta": m}),
        u32.map(lambda n: {**base, "n_arrays": n}),
        st.integers(0, 2**16 - 1).map(lambda n: {**base, "name_len": n}),
        names.map(lambda nm: {**base, "arrays": [(nm, *arrays[0][1:]), arrays[1]]}),
        st.integers(0, 255).map(lambda c: {**base, "arrays": [(b"a", c, 2, 3, arrays[0][4])]}),
        st.tuples(u32, u32).map(lambda rc: {**base, "arrays": [(b"a", 0, *rc, arrays[0][4])]}),
    ).map(_hostile_container)
    return st.one_of(_truncations_and_bit_flips(_hostile_container(base)), hostile)


def test_container_fuzz_raises_only_config_error(tmp_path):
    from hypothesis import HealthCheck, given, settings

    from longattn.container import read_container

    path = tmp_path / "fuzz.bin"

    @settings(max_examples=300, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_container_mutations())
    def check(blob):
        path.write_bytes(blob)
        try:
            read_container(path)
        except ConfigError as exc:
            assert "\n" not in str(exc)

    check()


def test_checkpoint_fuzz_raises_only_config_error(tmp_path):
    from hypothesis import HealthCheck, given, settings

    path = tmp_path / "m.ckpt"
    cfg = tiny_cfg(AttentionVariant.SOFT_MASK)
    save_checkpoint(path, TrainedModel(cfg, init_model(cfg, seed=19), {"seed": 19}))
    data = path.read_bytes()

    def check(blob):
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except ConfigError as exc:
            assert "\n" not in str(exc)

    # every single-bit flip of the metadata: n_heads 2 -> 0 is one of them
    header_bits = 8 * (12 + int.from_bytes(data[8:12], "little"))
    for bit in range(header_bits):
        check(_flip(data, bit))

    @settings(max_examples=300, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_truncations_and_bit_flips(data))
    def fuzz(blob):
        check(blob)

    fuzz()


def test_parameter_count_positive():
    cfg = tiny_cfg(AttentionVariant.STANDARD)
    assert parameter_count(init_model(cfg, seed=18)) > 0


@pytest.mark.parametrize("seed", range(2))
def test_encoder_ctc_chain_gradient(seed):
    # the deepest chain: features -> encoder -> log-softmax -> ctc loss
    from conftest import screen_seed
    from longattn.ctc import ctc_loss_op
    from longattn.numerics.tensor import log_softmax_rows

    cfg = tiny_cfg(AttentionVariant.GAUSSIAN_FRAME_INDEX)
    state = {}

    def make_case(s):
        params = init_model(cfg, seed=s, zero_residual=False)
        rng = np.random.default_rng(s + 29)
        feats = rng.normal(size=(4 * 6, cfg.feat_dim))
        labels = [1, 3, 2]

        def f():
            logits = encoder_forward(feats, params, cfg)
            return ctc_loss_op(log_softmax_rows(logits), labels)

        state["f"], state["params"] = f, params
        return f

    screen_seed(make_case, 60 + seed)
    errors = check_gradients(state["f"], state["params"].named())
    assert max(errors.values()) <= 1e-5, max(errors.items(), key=lambda kv: kv[1])

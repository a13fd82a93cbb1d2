"""Substrate tests: tape op contracts, autodiff, optimizer."""

import threading
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from conftest import (
    ReferenceAdam,
    assert_packed,
    dot_product_chain,
    mul,
    relative_terms_chain,
    sqnorms,
    sum_all,
    transpose,
    use_copy_always,
)
from longattn.attention.variants import (
    dot_product_scores,
    pairwise_sqdist_scores,
    relative_terms,
)
from longattn.errors import ConfigError, DimensionError, EvaluationError, StateError
from longattn.numerics import (
    Adam,
    backward,
    check_gradients,
    const,
    finite_diff_grad,
    linalg,
    max_relative_error,
    no_grad,
    param,
    recording,
)
from longattn.numerics import tensor as T

GRAD_TOL = 1e-5


def matmul(a, b) -> np.ndarray:
    return T.matmul(const(a), const(b)).data


def layer_norm(x, gain, bias) -> np.ndarray:
    return T.layer_norm_rows(const(x), const(gain), const(bias)).data


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(2, 2))
    npt.assert_array_equal(matmul(np.eye(2), m), m)


def test_matmul_hand_case():
    out = matmul([[1.0, 2.0], [3.0, 4.0]], [[0.0], [1.0]])
    npt.assert_array_equal(out, [[2.0], [4.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 3))
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(4):
                ref[i, j] += a[i, k] * b[k, j]
    npt.assert_allclose(matmul(a, b), ref, atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_matmul_associativity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 5))
        c = rng.normal(size=(5, 3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        scale = np.abs(left).max()
        assert np.abs(left - right).max() <= 1e-9 * max(scale, 1.0)


def test_softmax_singleton_and_symmetry():
    for x in (-3.0, 0.0, 1e4):
        npt.assert_array_equal(linalg.softmax_rows([[x]]), [[1.0]])
    npt.assert_allclose(linalg.softmax_rows([[0.0, 0.0, 0.0]]), [[1 / 3] * 3], atol=1e-15)


def test_softmax_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    row = [1000.0, 1000.5]
    es = [mpmath.exp(v) for v in row]
    total = es[0] + es[1]
    expected = np.array([[float(e / total) for e in es]])
    npt.assert_allclose(linalg.softmax_rows([row]), expected, atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        scale = rng.uniform(0.1, 50.0)
        m = rng.normal(scale=scale, size=(6, 7))
        p = linalg.softmax_rows(m)
        npt.assert_allclose(p.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(p > 0) and np.all(p <= 1.0)
        shifted = linalg.softmax_rows(m + 123.456)
        assert np.abs(p - shifted).max() <= 1e-12


def test_softmax_no_overflow_at_1e4_range():
    p = linalg.softmax_rows([[1e4, -1e4, 0.0]])
    assert np.all(np.isfinite(p))
    npt.assert_allclose(p.sum(), 1.0, atol=1e-12)


def plain_softmax_rows(m: np.ndarray) -> np.ndarray:
    """Whole-matrix softmax that keeps subnormal weights in every row sum, then
    sets each weight whose shifted score is below ``EXP_NORMAL_MIN`` to +0.0:
    the oracle for ``linalg.softmax_rows``, whose kept weights must not move
    by a bit when it leaves those terms out."""
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    p[shifted < linalg.EXP_NORMAL_MIN] = 0.0
    return p


def hard_rows(rng, n_rows: int, n_cols: int) -> np.ndarray:
    """Rows mixing ordinary scores with shifted values where exp underflows to
    +0.0 (below -746), where it is subnormal ([-745.2, -708.4]) and -inf; every
    fifth row is constant."""
    m = rng.normal(size=(n_rows, n_cols))
    band = rng.integers(0, 5, size=m.shape)
    m[band == 1] = rng.uniform(-3000.0, -746.0, size=(band == 1).sum())
    m[band == 2] = rng.uniform(-745.2, -708.4, size=(band == 2).sum())
    m[band == 3] = -np.inf
    m[:, 0] = 0.0  # the row maximum, so the planted values are already shifted
    m[::5] = 1.5
    return m + rng.integers(-40, 40, size=(n_rows, 1))


@pytest.mark.parametrize("shape", [(0, 5), (1, 1), (31, 31), (1000, 200), (3, 2**16 + 5)])
def test_softmax_rows_is_bit_identical_to_the_whole_matrix_oracle(shape):
    # (1000, 200) is larger than one row block, and 2**16 + 5 columns are
    # wider than a block: whole-matrix calls, as the memory tool makes
    rng = np.random.default_rng(shape[0])
    for m in (rng.normal(scale=5.0, size=shape), hard_rows(rng, *shape)):
        before = m.copy()
        got = linalg.softmax_rows(m)
        expected = plain_softmax_rows(m).view(np.int64)
        npt.assert_array_equal(got.view(np.int64), expected)
        npt.assert_array_equal(m, before)  # the input is not modified
        # normalised in place, through a view as attention hands its blocks over
        scores = T.Tensor(before)
        weights = T.softmax_rows(scores, fresh=True).data
        assert weights.base is before
        npt.assert_array_equal(before.view(np.int64), expected)


def test_row_blocks_tile_the_rows_and_fit_each_block_in_chunk_elements():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    chunk = linalg.CHUNK_ELEMENTS

    @st.composite
    def lengths_and_bands(draw):
        length = draw(st.integers(1, 10**5))
        return length, draw(st.none() | st.integers(1, length))

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(lengths_and_bands())
    def check(length_and_band):
        length, half = length_and_band
        blocks = linalg.row_blocks(length, half)
        assert all(r.step is None and k.step is None for r, k in blocks)
        starts, stops = np.array([(r.start, r.stop) for r, _ in blocks]).T
        step = stops[0]
        # the rows tile [0, L) once, in order, in blocks of one size
        npt.assert_array_equal(starts, np.arange(0, length, step))
        npt.assert_array_equal(stops, np.minimum(starts + step, length))
        if half is None:
            assert all(k == slice(None) for _, k in blocks)
            widths = length
        else:  # the rows and W frames on each side, clipped
            first, last = np.array([(k.start, k.stop) for _, k in blocks]).T
            npt.assert_array_equal(first, np.maximum(0, starts - half))
            npt.assert_array_equal(last, np.minimum(length, stops + half))
            widths = last - first
        sizes = (stops - starts) * widths
        assert ((stops - starts == 1) | (sizes <= chunk)).all(), (length, half, sizes.max())
        if half is None:  # the plan every unbanded byte was computed under
            assert step == min(length, max(1, chunk // length))
        elif step < length:  # one row more would not fit
            assert (step + 1) * min(length, step + 1 + 2 * half) > chunk, (length, half, step)

    check()
    # a window of 10 frames: blocks of 246 rows over 266 keys
    assert linalg.row_blocks(8000, 10)[1] == (slice(246, 492), slice(236, 502))


def test_softmax_rows_hard_rows_hit_every_band():
    m = hard_rows(np.random.default_rng(0), 40, 300)
    shifted = m - m.max(axis=1, keepdims=True)
    assert (shifted < -746.0).any() and np.isneginf(shifted).any()
    subnormal = (shifted >= -745.2) & (shifted <= -708.4)
    assert subnormal.any() and (np.exp(shifted[subnormal]) < np.finfo(np.float64).tiny).all()
    assert (np.ptp(m, axis=1) == 0).any()
    p = linalg.softmax_rows(m)
    # every score below the floor, the subnormal band included, gives +0.0;
    # every other weight is that of the expression that keeps subnormals
    below = shifted < linalg.EXP_NORMAL_MIN
    assert below[subnormal].all() and (p[below] == 0.0).all() and not np.signbit(p).any()
    npt.assert_array_equal(p.view(np.int64), plain_softmax_rows(m).view(np.int64))


@pytest.mark.parametrize("length", [1, 7, 300, 2100])
def test_pairwise_sqdist_scores_is_bit_identical_to_the_whole_matrix_sum(length):
    a = np.random.default_rng(length).normal(scale=3.0, size=(length, 16))
    g = np.einsum("ij,ij->i", a, a)
    expected = -0.5 * (g[:, None] + g[None, :]) + a @ a.T
    got = pairwise_sqdist_scores(const(a), g).data
    npt.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("rows", [slice(0, 1), slice(65, 130), slice(280, 300)])
def test_pairwise_sqdist_scores_block_is_bit_identical_to_its_expression(rows):
    a = np.random.default_rng(rows.start).normal(scale=3.0, size=(300, 16))
    g = np.einsum("ij,ij->i", a, a)
    expected = -0.5 * (g[rows, None] + g[None, :]) + a[rows] @ a.T
    got = pairwise_sqdist_scores(const(a), g, rows).data
    npt.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_layer_norm_constant_vector_is_zero():
    out = layer_norm([[5.0] * 4], np.ones((1, 4)), np.zeros((1, 4)))
    npt.assert_allclose(out, np.zeros((1, 4)), atol=1e-6)


def test_layer_norm_fixed_point():
    out = layer_norm([[1.0, -1.0]], np.ones((1, 2)), np.zeros((1, 2)))
    npt.assert_allclose(out, [[1.0, -1.0]], atol=1e-9)


def test_layer_norm_statistics():
    rng = np.random.default_rng(4)
    x = rng.normal(loc=3.0, scale=2.5, size=(1, 8))
    out = layer_norm(x, np.ones((1, 8)), np.zeros((1, 8)))
    assert abs(out.mean()) <= 1e-10
    assert abs(out.var() - 1.0) <= 1e-6


def test_layer_norm_length_mismatch():
    with pytest.raises(DimensionError):
        layer_norm(np.zeros((1, 4)), np.ones((1, 3)), np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# autodiff
# ---------------------------------------------------------------------------


def test_backward_linear_case():
    rng = np.random.default_rng(5)
    w = param(rng.normal(size=(3, 4)))
    x = const(rng.normal(size=(4, 1)))
    backward(sum_all(T.matmul(w, x)))
    npt.assert_allclose(w.grad, np.outer(np.ones(3), x.data[:, 0]), atol=1e-12)


def test_backward_softmax_singleton_is_constant():
    x = param([[2.5]])
    backward(sum_all(T.softmax_rows(x)))
    npt.assert_array_equal(x.grad, [[0.0]])


def test_backward_before_forward_raises():
    with pytest.raises(StateError):
        backward(const([[1.0]]))


def test_add_row_is_the_tiled_add():
    rng = np.random.default_rng(6)
    a = param(rng.normal(size=(5, 3)))
    v = param(rng.normal(size=(1, 3)))
    out = T.add_row(a, v)
    npt.assert_array_equal(out.data, a.data + np.repeat(v.data, 5, axis=0))
    probe = rng.normal(size=(5, 3))
    backward(sum_all(mul(const(probe), out)))
    npt.assert_array_equal(a.grad, probe)
    npt.assert_array_equal(v.grad, probe.sum(axis=0, keepdims=True))
    with pytest.raises(DimensionError):
        T.add_row(a, param(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        T.add_row(a, param(np.ones((1, 4))))


def test_backward_requires_scalar():
    x = param(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        backward(T.add(x, x))


def test_no_grad_result_is_a_constant():
    w = param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    x = const(np.array([[1.0], [-1.0]]))
    with no_grad():
        loss = sum_all(T.matmul(w, x))
    assert not loss.requires_grad and loss._grad_fn is None
    assert loss.item() == -2.0
    with pytest.raises(StateError):
        backward(loss)
    # outside the block the tape records again, but backward inside a block
    # has no tape to walk, even for a loss recorded before it
    taped = sum_all(T.matmul(w, x))
    assert taped.requires_grad
    with no_grad(), pytest.raises(StateError):
        backward(taped)


def test_second_backward_on_the_same_loss_raises():
    x = param([[1.0, 2.0]])
    loss = sum_all(mul(x, x))
    backward(loss)
    with pytest.raises(StateError):
        backward(loss)
    npt.assert_array_equal(x.grad, [[2.0, 4.0]])


def test_forward_that_never_reaches_backward_is_freed():
    rng = np.random.default_rng(8)
    w = param(rng.normal(size=(4, 4)))
    gain, bias = param(np.ones((1, 4))), param(np.zeros((1, 4)))
    hidden = T.layer_norm_rows(T.matmul(w, w), gain, bias)
    out = T.softmax_rows(hidden)
    assert out.requires_grad
    refs = [weakref.ref(hidden), weakref.ref(out)]
    del hidden, out
    assert all(ref() is None for ref in refs)


def test_backward_clears_the_tape_when_a_grad_fn_raises():
    def broken_grad_fn(u):
        raise EvaluationError("broken backward")

    x = param([[1.0, 2.0]])
    broken = T.make_op(x.data * 3.0, (x,), broken_grad_fn)
    with pytest.raises(EvaluationError):
        backward(sum_all(mul(broken, x)))
    assert T._tape.get() == []
    x.zero_grad()
    backward(sum_all(mul(x, x)))
    npt.assert_array_equal(x.grad, [[2.0, 4.0]])


def test_no_grad_restores_the_flag_when_the_block_raises():
    w = param(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        with no_grad():
            T.add(w, const(np.ones((3, 3))))
    assert T.add(w, w).requires_grad
    # so does ``recording``: the outer tape comes back, and gets nothing of the block's
    outer = T._tape.get()
    recorded = len(outer)
    with pytest.raises(DimensionError):
        with recording() as tape:
            inner = T.add(w, w)
            T.add(w, const(np.ones((3, 3))))
    assert [ref() for ref in tape] == [inner]
    assert T._tape.get() is outer and len(outer) == recorded
    assert T.add(w, w).requires_grad and len(outer) == recorded + 1


def test_backward_on_another_thread_raises_and_leaves_the_tape():
    # a graph is differentiated in the context that recorded it: another
    # thread's tape does not hold the loss
    x = param([[1.0, 2.0]])
    loss = sum_all(mul(x, x))
    raised = []

    def other():
        with pytest.raises(StateError, match="this thread's tape"):
            backward(loss)
        raised.append(True)

    thread = threading.Thread(target=other, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert raised == [True]
    npt.assert_array_equal(x.grad, [[0.0, 0.0]])
    backward(loss)
    npt.assert_array_equal(x.grad, [[2.0, 4.0]])


def test_grad_accumulates_across_backward_calls():
    x = param([[1.0, 2.0]])
    for _ in range(2):
        backward(sum_all(mul(x, x)))
    npt.assert_allclose(x.grad, [[4.0, 8.0]], atol=1e-12)


def test_param_grad_zero_after_reset():
    x = param([[1.0, 2.0]])
    npt.assert_array_equal(x.grad, np.zeros((1, 2)))
    backward(sum_all(mul(x, x)))
    x.zero_grad()
    npt.assert_array_equal(x.grad, np.zeros((1, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_primitive_op_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    a = param(rng.normal(size=(3, 4)))
    b = param(rng.normal(size=(3, 4)))
    w = param(rng.normal(size=(4, 5)))
    w_aff = param(rng.normal(size=(3, 5)))  # 4 inputs plus the bias column
    g = param(rng.normal(size=(1, 4)) * 0.3 + 1.0)
    bias = param(rng.normal(size=(1, 4)) * 0.3)
    log_sigma = param(rng.normal(size=(1, 1)))
    probe = const(rng.normal(size=(3, 4)))
    probe5 = const(rng.normal(size=(3, 5)))
    twos = const(np.full((2, 8), 2.0))
    kr = param(rng.normal(size=(5, 4)))  # all 2L-1 offsets for L = 3
    probe3 = const(rng.normal(size=(3, 3)))
    probe23 = const(rng.normal(size=(2, 3)))
    probe24 = const(rng.normal(size=(2, 4)))
    probe54 = const(rng.normal(size=(5, 4)))

    def frame_stack_squares():
        stacked = T.add(T.frame_stack(a, 2), twos)
        return sum_all(T.mul_scalar(mul(stacked, stacked), 0.5))

    cases = {
        "add": (lambda: sum_all(mul(probe, T.add(a, b))), [("a", a), ("b", b)]),
        "mul": (lambda: sum_all(mul(probe, mul(a, b))), [("a", a), ("b", b)]),
        "mul_scalar": (lambda: sum_all(mul(probe, T.mul_scalar(a, 1.7))), [("a", a)]),
        "relu": (lambda: sum_all(mul(probe, T.relu(a))), [("a", a)]),
        "matmul": (
            lambda: sum_all(mul(probe5, T.matmul(a, w))),
            [("a", a), ("w", w)],
        ),
        "transpose": (lambda: sum_all(T.matmul(transpose(a), probe)), [("a", a)]),
        "matmul_t": (
            lambda: sum_all(mul(probe3, T.matmul_t(a, b))),
            [("a", a), ("b", b)],
        ),
        "affine": (
            lambda: sum_all(mul(probe3, T.affine(a, w_aff))),
            [("a", a), ("w_aff", w_aff)],
        ),
        "affine_const_input": (
            lambda: sum_all(mul(probe3, T.affine(probe, w_aff))),
            [("w_aff", w_aff)],
        ),
        "add_row": (lambda: sum_all(mul(probe, T.add_row(a, g))), [("a", a), ("g", g)]),
        "append_const_col": (
            lambda: sum_all(mul(probe5, T.append_const_col(a))),
            [("a", a)],
        ),
        "concat_axis_1": (
            lambda: sum_all(T.matmul(T.concat([a, b], axis=1),
                                     transpose(T.concat([a, b], axis=1)))),
            [("a", a), ("b", b)],
        ),
        "frame_stack": (frame_stack_squares, [("a", a)]),
        "softmax_rows": (lambda: sum_all(mul(probe, T.softmax_rows(a))), [("a", a)]),
        "log_softmax_rows": (
            lambda: sum_all(mul(probe, T.log_softmax_rows(a))),
            [("a", a)],
        ),
        "layer_norm_rows": (
            lambda: sum_all(mul(probe, T.layer_norm_rows(a, g, bias))),
            [("a", a), ("g", g), ("bias", bias)],
        ),
        "dot_product_scores": (
            lambda: sum_all(mul(probe3, dot_product_scores(a, b))),
            [("a", a), ("b", b)],
        ),
        "dot_product_scores_block": (
            lambda: sum_all(mul(probe23, dot_product_scores(a, b, slice(1, 3)))),
            [("a", a), ("b", b)],
        ),
        "dot_product_scores_shared_block": (
            lambda: sum_all(mul(probe23, dot_product_scores(a, a, slice(1, 3)))),
            [("a", a)],
        ),
        "relative_terms": (
            lambda: sum_all(mul(probe3, relative_terms(a, b, kr, g, bias))),
            [("a", a), ("b", b), ("kr", kr), ("g", g), ("bias", bias)],
        ),
        "relative_terms_block": (
            lambda: sum_all(mul(probe23, relative_terms(a, b, kr, g, bias, slice(1, 3)))),
            [("a", a), ("b", b), ("kr", kr), ("g", g), ("bias", bias)],
        ),
        "pairwise_sqdist_scores": (
            lambda: sum_all(mul(probe3, pairwise_sqdist_scores(a, sqnorms(a)))),
            [("a", a)],
        ),
        "pairwise_sqdist_scores_block": (
            lambda: sum_all(mul(probe23, pairwise_sqdist_scores(a, sqnorms(a), slice(1, 3)))),
            [("a", a)],
        ),
        "dot_product_scores_soft_mask": (
            lambda: sum_all(mul(probe3, dot_product_scores(a, b, slice(None), log_sigma))),
            [("a", a), ("b", b), ("log_sigma", log_sigma)],
        ),
        "dot_product_scores_soft_mask_block": (
            lambda: sum_all(mul(probe23, dot_product_scores(a, b, slice(1, 3), log_sigma))),
            [("a", a), ("b", b), ("log_sigma", log_sigma)],
        ),
        "slice_rows": (
            lambda: sum_all(mul(probe24, T.slice_rows(a, slice(1, 3)))),
            [("a", a)],
        ),
        "concat_axis_0": (
            lambda: sum_all(mul(probe54, T.concat([T.slice_rows(a, slice(1, 3)), b], axis=0))),
            [("a", a), ("b", b)],
        ),
    }
    for name, (f, params) in cases.items():
        errors = check_gradients(f, params)
        worst = max(errors.values())
        assert worst <= GRAD_TOL, f"{name}: rel err {worst:.2e} {errors}"


# fused op, op chain, whether q is k, query rows, whether soft_mask's window is added
FUSED_SCORE_CASES = {
    "dot_product": (dot_product_scores, dot_product_chain, False, slice(None), False),
    "dot_product_block": (dot_product_scores, dot_product_chain, False, slice(65, 130), False),
    "dot_product_shared": (dot_product_scores, dot_product_chain, True, slice(None), False),
    "dot_product_shared_block": (
        dot_product_scores, dot_product_chain, True, slice(65, 130), False),
    "soft_mask": (dot_product_scores, dot_product_chain, False, slice(None), True),
    "soft_mask_block": (dot_product_scores, dot_product_chain, False, slice(65, 130), True),
    "relative_terms": (relative_terms, relative_terms_chain, False, slice(None), False),
    "relative_terms_block": (relative_terms, relative_terms_chain, False, slice(65, 130), False),
}


@pytest.mark.parametrize("case", FUSED_SCORE_CASES.values(), ids=FUSED_SCORE_CASES.keys())
def test_fused_score_ops_match_their_op_chains_byte_for_byte(case):
    fused, chain, shared, rows, window = case
    length, d_k = 300, 8

    def run(op):
        rng = np.random.default_rng(7)
        q = param(rng.normal(size=(length, d_k)))
        k = q if shared else param(rng.normal(size=(length, d_k)))
        extra = [param(rng.normal(size=(2 * length - 1, d_k))),
                 param(rng.normal(size=(1, d_k))), param(rng.normal(size=(1, d_k)))]
        if window:  # sigma = exp(log_sigma) of a few frames to a few tens
            tensors = [q, k, param(rng.normal(2.0, 1.0, size=(1, 1)))]
            scores = op(q, k, rows, tensors[2])
        else:
            tensors = [q, k, *extra] if fused is relative_terms else [q, k]
            scores = op(*tensors, rows)
        backward(sum_all(mul(scores, const(rng.normal(size=scores.shape)))))
        return [scores.data] + [t.grad for t in tensors]

    for got, expected in zip(run(fused), run(chain), strict=True):
        assert got.tobytes() == expected.tobytes()


def test_slice_and_concat_pass_whole_tensors_through():
    a = param(np.arange(6.0).reshape(3, 2))
    assert T.slice_rows(a, slice(None)) is a
    assert T.slice_rows(a, slice(0, 5)) is a
    assert T.concat([a], axis=0) is a
    parts = [T.slice_rows(a, rows) for rows in (slice(0, 1), slice(1, 3))]
    npt.assert_array_equal(T.concat(parts, axis=0).data, a.data)
    with pytest.raises(DimensionError):
        T.concat([a, param(np.zeros((1, 3)))], axis=0)


# Each graph gives one intermediate h two consumers. The consumer that hands h
# the upstream gradient, or a view of it, is recorded last, so in backward it
# gives h its first gradient, which a later gradient is then added into.
OWNERSHIP_GRAPHS = {
    "add": lambda h: [T.add(h, h)],
    "add_row": lambda h: [T.add_row(h, T.slice_rows(h, slice(0, 1)))],
    "concat_axis_0": lambda h: [T.concat([h, h], axis=0)],
    "concat_axis_1": lambda h: [T.concat([h, h], axis=1)],
    "append_const_col": lambda h: [T.mul_scalar(h, 2.0), T.append_const_col(h)],
    "frame_stack": lambda h: [T.mul_scalar(h, 2.0), T.frame_stack(h, 2)],
    "overlapping_slice_rows": lambda h: [T.slice_rows(h, slice(0, 3)),
                                         T.slice_rows(h, slice(1, 5))],
}


def ownership_run(graph) -> list:
    """Backward through ``graph`` on h = 1.5 x; every tensor of the graph."""
    rng = np.random.default_rng(5)
    x = param(rng.normal(size=(5, 3)))
    h = T.mul_scalar(x, 1.5)
    tensors = [x, h, *graph(h)]
    terms = [mul(y, const(rng.normal(size=y.shape))) for y in tensors[2:]]
    loss = sum_all(terms[0])
    for term in terms[1:]:
        loss = T.add(loss, sum_all(term))
    backward(loss)
    return tensors + terms + [loss]


@pytest.mark.parametrize("graph", OWNERSHIP_GRAPHS.values(), ids=OWNERSHIP_GRAPHS.keys())
def test_no_gradient_aliases_another_and_ownership_changes_no_byte(graph, monkeypatch):
    tensors = ownership_run(graph)
    grads = [t.grad for t in tensors]
    for i, a in enumerate(grads):
        assert not any(np.shares_memory(a, b) for b in grads[i + 1:]), i
    use_copy_always(monkeypatch)
    reference = ownership_run(graph)
    assert [t.grad.tobytes() for t in tensors] == [t.grad.tobytes() for t in reference]


def test_determinism_forward_and_gradients():
    def run():
        rng = np.random.default_rng(42)
        a = param(rng.normal(size=(4, 4)))
        out = T.softmax_rows(T.matmul_t(a, a))
        loss = sum_all(mul(out, out))
        backward(loss)
        return loss.item(), a.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    npt.assert_array_equal(g1, g2)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_finite_diff_quadratic():
    p = param([[1.0, 2.0]])
    grad = finite_diff_grad(lambda: float((p.data**2).sum()), p)
    npt.assert_allclose(grad, [[2.0, 4.0]], atol=1e-7)


def test_finite_diff_constant_function():
    p = param([[1.0, 2.0]])
    npt.assert_array_equal(finite_diff_grad(lambda: 3.0, p), np.zeros((1, 2)))


def test_finite_diff_rejects_non_finite():
    p = param([[1.0]])
    with pytest.raises(EvaluationError):
        finite_diff_grad(lambda: float("nan"), p)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_optimizer_zero_gradient_leaves_params():
    p = param([[1.0, -2.0]])
    opt = Adam([p], lr=0.1)
    before = p.data.copy()
    opt.step()
    npt.assert_array_equal(p.data, before)


def test_optimizer_descends_on_quadratic():
    p = param([[1.0]])
    opt = Adam([p], lr=0.1)
    backward(sum_all(mul(p, p)))
    opt.step()
    assert p.data[0, 0] < 1.0


def test_optimizer_converges_on_2d_quadratic():
    p = param([[1.5, -2.0]])
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        backward(sum_all(mul(p, p)))
        opt.step()
    assert np.abs(p.data).max() < 1e-2


def test_optimizer_rejects_bad_lr():
    with pytest.raises(ConfigError):
        Adam([param([[0.0]])], lr=0.0)


def test_optimizer_state_shapes_and_grads_untouched():
    p = param(np.ones((2, 3)))
    opt = Adam([p], lr=0.01)
    backward(sum_all(mul(p, p)))
    g = p.grad.copy()
    opt.step()
    assert opt.step_count == 1
    assert opt.first.shape == opt.second.shape == (p.data.size,)
    npt.assert_array_equal(p.grad, g)


def test_adam_matches_the_per_tensor_reference_bit_for_bit():
    """Flat-buffer Adam against the per-tensor expression, over a tensor
    larger than one span, many tiny tensors that share spans or straddle
    their ends, and a tensor whose grad is None."""
    span = linalg.CHUNK_ELEMENTS // 4
    shapes = ([(1, 1), (2, 3), (1, 7)] * 12 + [(3, span // 3 + 5)] + [(4, 5)] * 9
              + [(64, 65)] * 5 + [(1, 1)])
    rng = np.random.default_rng(8)
    init = [rng.normal(size=shape) for shape in shapes]
    ours = [param(x) for x in init]
    theirs = [param(x) for x in init]
    ungraded = len(shapes) // 2  # a parameter nothing ever backpropagates into
    for tensors in (ours, theirs):
        tensors[ungraded].grad = None
    assert shapes[36][0] * shapes[36][1] > span > sum(r * c for r, c in shapes[:36])
    opt, ref = Adam(ours, lr=0.01), ReferenceAdam(theirs, lr=0.01)

    for step in range(30):
        for i, (p, q) in enumerate(zip(ours, theirs)):
            if i == ungraded:
                continue
            g = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-6, 4)
            g[rng.random(g.shape) < 0.1] = 0.0
            g[rng.random(g.shape) < 0.05] = -0.0
            p.grad[...] = g
            q.grad[...] = g
        opt.step()
        ref.step()
        for i, (p, q) in enumerate(zip(ours, theirs)):
            assert p.data.tobytes() == q.data.tobytes(), (step, i)
        for flat, moments in ((opt.first, ref.first), (opt.second, ref.second)):
            assert flat.tobytes() == np.concatenate([m.ravel() for m in moments]).tobytes()

    npt.assert_array_equal(ours[ungraded].grad, np.zeros(shapes[ungraded]))
    npt.assert_array_equal(ours[ungraded].data, init[ungraded])


def test_pack_copies_values_in_and_a_second_pack_moves_nothing():
    rng = np.random.default_rng(12)
    values = [rng.normal(size=shape) for shape in [(2, 3), (1, 1), (4, 5)]]
    tensors = [param(v) for v in values]
    tensors[0].grad[...] = 7.0
    tensors[1].grad = None
    data, grads = T.pack(tensors)
    assert_packed(tensors, data, grads)
    for t, v in zip(tensors, values):
        npt.assert_array_equal(t.data, v)
    npt.assert_array_equal(tensors[0].grad, np.full((2, 3), 7.0))
    npt.assert_array_equal(tensors[1].grad, np.zeros((1, 1)))

    arrays = [(t.data, t.grad) for t in tensors]
    again = T.pack(tensors)
    assert again[0] is data and again[1] is grads
    for t, (d, g) in zip(tensors, arrays):
        assert t.data is d and t.grad is g


PICKS = pytest.mark.parametrize(
    "pick", [lambda ts: ts[::-1], lambda ts: ts[1:], lambda ts: ts[:-1],
             lambda ts: ts[:1] + ts[2:]], ids=["reversed", "suffix", "prefix", "gap"])


@PICKS
def test_pack_lays_out_a_reordered_or_partial_list_anew(pick):
    tensors = [param(np.full((2, 2), float(i))) for i in range(4)]
    data, grads = T.pack(tensors)
    chosen = pick(tensors)
    new_data, new_grads = T.pack(chosen)
    assert new_data is not data and new_grads is not grads
    assert_packed(chosen, new_data, new_grads)
    npt.assert_array_equal(new_data, np.concatenate([t.data.ravel() for t in chosen]))


@PICKS
def test_adam_over_a_reordered_or_partial_list_updates_each_tensor_by_its_grad(pick):
    rng = np.random.default_rng(13)
    init = [rng.normal(size=(3, 4)) for _ in range(4)]
    ours, theirs = [param(x) for x in init], [param(x) for x in init]
    T.pack(ours)
    opt, ref = Adam(pick(ours), lr=0.01), ReferenceAdam(pick(theirs), lr=0.01)
    for p, q in zip(ours, theirs):
        g = rng.normal(size=(3, 4))
        p.grad[...] = g
        q.grad[...] = g
    opt.step()
    ref.step()
    for p, q in zip(ours, theirs):
        assert p.data.tobytes() == q.data.tobytes()


def test_adam_over_no_parameters_steps_as_a_no_op():
    opt = Adam([], lr=0.01)
    opt.zero_grad()
    opt.step()
    assert opt.step_count == 1
    assert opt.first.shape == opt.second.shape == (0,)


def test_max_relative_error_zero_grads():
    assert max_relative_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

"""Attention variants: worked examples, algebraic identity, invariance properties."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import head_weights, sigma_mask
from longattn.attention import (
    VARIANTS,
    AttentionVariant,
    attention_weights,
    attn_kernel_form,
    init_attention_params,
    kernel_form_factors,
    multi_head_attention,
    sigma_inverse,
    signed_sinusoid_table,
    sinusoid_encoding,
)
from longattn.attention.encodings import frame_index_column, squared_offset_matrix
from longattn.attention.variants import (
    dot_product_scores,
    qk_projections,
    relative_projections,
    relative_terms,
)
from longattn.errors import ConfigError
from longattn.numerics import const, param
from longattn.numerics.tensor import Tensor, add, softmax_rows


def rel_diff(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def make_params(variant, d_model, d_k, d_v, seed, alpha=100.0):
    rng = np.random.default_rng(seed)
    return init_attention_params(variant, d_model, d_k, d_v, alpha, rng)


def weights(x, variant, **params):
    """One head's attention matrix through ``head_weights``."""
    return head_weights(x, params, variant).data


def standard(x, w_q, w_k):
    return weights(x, AttentionVariant.STANDARD, w_q=w_q, w_k_x=w_k)


def gaussian(x, w_s):
    return weights(x, AttentionVariant.GAUSSIAN, w_s=w_s)


def shared_qk(x, w_s):
    return weights(x, AttentionVariant.SHARED_QK, w_s=w_s)


# ---------------------------------------------------------------------------
# positional encoding
# ---------------------------------------------------------------------------


def test_sinusoid_row_zero_alternates():
    enc = sinusoid_encoding(3, 6)
    npt.assert_array_equal(enc[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_sinusoid_first_entry():
    enc = sinusoid_encoding(2, 4)
    assert abs(enc[1, 0] - math.sin(1.0)) < 1e-12


def test_sinusoid_pointwise_oracle():
    dim = 8
    enc = sinusoid_encoding(11, dim)
    for i in range(11):
        for d in range(dim):
            k2 = d if d % 2 == 0 else d - 1
            arg = i / 10000.0 ** (k2 / dim)
            expected = math.sin(arg) if d % 2 == 0 else math.cos(arg)
            assert abs(enc[i, d] - expected) < 1e-12


def test_sinusoid_tables_are_cached_and_read_only():
    for table in (sinusoid_encoding(9, 6), signed_sinusoid_table(9, 6)):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    # every table of one dim is a view of the same buffer
    assert sinusoid_encoding(9, 6).base is sinusoid_encoding(9, 6).base is not None
    assert signed_sinusoid_table(9, 6).base is sinusoid_encoding(3, 6).base


@pytest.mark.parametrize("dim", [6, 32, 64])
def test_sinusoid_views_are_byte_identical_to_direct_tables(dim, monkeypatch):
    # numpy's vector sin and cos must not round an entry by where it sits in
    # its array: every view of the grown table equals the table built for it.
    # Dims 32 and 64 take every 13th length to keep the test short.
    from longattn.attention import encodings

    monkeypatch.setattr(encodings, "_tables", {})
    lengths = list(range(1, 2101, 1 if dim == 6 else 13)) + [2100]
    for grown_first in (False, True) if dim == 6 else (True,):  # False: one length at a time
        if grown_first:
            signed_sinusoid_table(lengths[-1], dim)
        for length in lengths:
            offsets = np.arange(-(length - 1), length, dtype=np.float64)
            direct = encodings._sinusoid_at(offsets, dim)
            assert signed_sinusoid_table(length, dim).tobytes() == direct.tobytes()
            direct = encodings._sinusoid_at(offsets[length - 1:], dim)
            assert sinusoid_encoding(length, dim).tobytes() == direct.tobytes()
    assert len(encodings._tables[dim]) == 2 * lengths[-1] - 1


def test_sinusoid_rejects_odd_dim():
    with pytest.raises(ConfigError):
        sinusoid_encoding(4, 5)


def test_signed_table_covers_full_span():
    table = signed_sinusoid_table(5, 4)
    assert table.shape == (9, 4)
    npt.assert_allclose(table[4], sinusoid_encoding(1, 4)[0], atol=1e-15)
    assert abs(table[4 - 3, 0] - math.sin(-3.0)) < 1e-12


# ---------------------------------------------------------------------------
# soft mask
# ---------------------------------------------------------------------------


def test_squared_offset_matrix_values():
    # the (i - j)^2 that soft_mask's window -(i - j)^2 / (2 sigma^2) reads
    m = squared_offset_matrix(5)
    npt.assert_array_equal(np.diag(m), np.zeros(5))
    assert m[1, 0] == 1.0
    assert m[4, 1] == 9.0
    npt.assert_array_equal(m, m.T)
    npt.assert_array_equal(squared_offset_matrix(5, slice(1, 3)), m[1:3])


def dot_product_weights(q, k, mask=None):
    """Softmax of the scaled dot-product scores of ``q`` against ``k``, plus ``mask``."""
    scores = dot_product_scores(const(q), const(k))
    return softmax_rows(scores if mask is None else add(scores, const(mask))).data


def test_apply_soft_mask_zero_is_identity():
    rng = np.random.default_rng(0)
    q, k = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    plain = dot_product_weights(q, k)
    npt.assert_array_equal(dot_product_weights(q, k, np.zeros((4, 4))), plain)


def test_apply_soft_mask_neg_inf_surrogate():
    mask = np.zeros((2, 2))
    mask[0, 1] = -1e30
    p = dot_product_weights(np.zeros((2, 1)), np.zeros((2, 1)), mask)
    assert p[0, 1] < 1e-300


def test_huge_sigma_equals_unmasked():
    rng = np.random.default_rng(1)
    q, k = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    masked = dot_product_weights(q, k, -squared_offset_matrix(8) / (2.0 * 1e8 * 1e8))
    plain = dot_product_weights(q, k)
    assert np.abs(masked - plain).max() <= 1e-10


# ---------------------------------------------------------------------------
# standard and shared-QK attention
# ---------------------------------------------------------------------------


def oracle_standard(x, w_q, w_k):
    """Column-convention double loop straight from the scaled dot-product form."""
    L, _ = x.shape
    xa = np.concatenate([x, np.ones((L, 1))], axis=1)
    d_k = w_q.shape[0]
    raw = np.zeros((L, L))
    for i in range(L):
        for j in range(L):
            raw[i, j] = math.exp((w_q @ xa[i]) @ (w_k @ xa[j]) / math.sqrt(d_k))
    return raw / raw.sum(axis=1, keepdims=True)


def test_attn_standard_singleton():
    p = make_params(AttentionVariant.STANDARD, 3, 4, 3, 0)
    npt.assert_array_equal(standard(np.zeros((1, 3)), p["w_q"], p["w_k_x"]), [[1.0]])


def test_attn_standard_identical_frames_uniform():
    p = make_params(AttentionVariant.STANDARD, 3, 4, 3, 1)
    x = np.tile(np.array([[0.4, -1.0, 2.0]]), (5, 1))
    npt.assert_allclose(standard(x, p["w_q"], p["w_k_x"]), np.full((5, 5), 0.2),
                        atol=1e-12)


def test_attn_standard_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    p = make_params(AttentionVariant.STANDARD, 4, 5, 4, 3)
    x = rng.normal(size=(6, 4))
    out = standard(x, p["w_q"], p["w_k_x"])
    npt.assert_allclose(out, oracle_standard(x, p["w_q"].data, p["w_k_x"].data), atol=1e-12)


def test_attn_shared_qk_singleton_and_equivalence():
    p = make_params(AttentionVariant.SHARED_QK, 4, 4, 4, 4)
    npt.assert_array_equal(shared_qk(np.zeros((1, 4)), p["w_s"]), [[1.0]])
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 4))
    via_standard = standard(x, p["w_s"], p["w_s"])
    assert np.abs(shared_qk(x, p["w_s"]) - via_standard).max() <= 1e-15


def test_shared_qk_presoftmax_scores_symmetric():
    rng = np.random.default_rng(6)
    p = make_params(AttentionVariant.SHARED_QK, 4, 5, 4, 7)
    x = rng.normal(size=(6, 4))
    xa = np.concatenate([x, np.ones((6, 1))], axis=1)
    q = xa @ p["w_s"].data.T
    scores = q @ q.T / math.sqrt(5)
    assert np.abs(scores - scores.T).max() <= 1e-12


# ---------------------------------------------------------------------------
# kernel form (the algebraic identity oracle)
# ---------------------------------------------------------------------------


def test_kernel_form_identity_100_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(100):
        L = int(rng.integers(1, 17))
        D = int(rng.integers(1, 9))
        d_k = int(rng.integers(1, 9))
        x = rng.normal(size=(L, D))
        w_s = rng.normal(scale=1.0 / math.sqrt(D + 1), size=(d_k, D + 1))
        direct = shared_qk(x, const(w_s))
        rewritten = attn_kernel_form(x, w_s)
        assert rel_diff(rewritten, direct) <= 1e-10


def test_kernel_form_singleton():
    npt.assert_array_equal(attn_kernel_form(np.zeros((1, 3)), np.ones((2, 4))), [[1.0]])


def test_sigma_inverse_positive_semidefinite():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w_s = rng.normal(size=(4, 6))
        s_inv = sigma_inverse(w_s)
        for _ in range(10):
            z = rng.normal(size=6)
            assert z @ s_inv @ z >= -1e-10


def test_energy_term_factorization():
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.normal(size=(6, 4))
        w_s = rng.normal(scale=0.5, size=(3, 5))
        kernel, energy = kernel_form_factors(x, w_s)
        xa = np.concatenate([x, np.ones((6, 1))], axis=1)
        gram = np.exp(xa @ sigma_inverse(w_s) @ xa.T)
        product = kernel * energy[:, None] * energy[None, :]
        assert rel_diff(product, gram) <= 1e-10


# ---------------------------------------------------------------------------
# Gaussian kernelized attention
# ---------------------------------------------------------------------------


def oracle_gaussian(x, w_s):
    """Explicit per-pair Mahalanobis distances on bias-augmented frames."""
    L = x.shape[0]
    xa = np.concatenate([x, np.ones((L, 1))], axis=1)
    s_inv = sigma_inverse(w_s)
    raw = np.zeros((L, L))
    for i in range(L):
        for j in range(L):
            d = xa[i] - xa[j]
            raw[i, j] = math.exp(-0.5 * d @ s_inv @ d)
    return raw / raw.sum(axis=1, keepdims=True)


def test_attn_gaussian_identical_frames_uniform():
    p = make_params(AttentionVariant.GAUSSIAN, 3, 4, 3, 11)
    x = np.tile(np.array([[1.0, 2.0, -0.5]]), (6, 1))
    npt.assert_allclose(gaussian(x, p["w_s"]), np.full((6, 6), 1 / 6), atol=1e-12)


def test_attn_gaussian_matches_mahalanobis_oracle():
    rng = np.random.default_rng(12)
    p = make_params(AttentionVariant.GAUSSIAN, 5, 3, 5, 13)
    x = rng.normal(size=(7, 5))
    npt.assert_allclose(gaussian(x, p["w_s"]),
                        oracle_gaussian(x, p["w_s"].data), atol=1e-12)


def test_gaussian_prenormalization_diagonal_is_one():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 4))
    w_s = rng.normal(size=(3, 5))
    kernel, _ = kernel_form_factors(x, w_s)
    npt.assert_allclose(np.diag(kernel), np.ones(5), atol=1e-12)


def test_gaussian_shift_invariance():
    rng = np.random.default_rng(14)
    p = make_params(AttentionVariant.GAUSSIAN, 4, 4, 4, 15)
    x = rng.normal(size=(8, 4))
    base = gaussian(x, p["w_s"])
    for _ in range(5):
        c = rng.normal(size=(1, 4))
        shifted = gaussian(x + c, p["w_s"])
        assert np.abs(shifted - base).max() <= 1e-10


def test_standard_attention_shift_witness():
    rng = np.random.default_rng(15)
    hits = 0
    for trial in range(100):
        p = make_params(AttentionVariant.STANDARD, 4, 4, 4, 1000 + trial)
        x = rng.normal(size=(6, 4))
        base = standard(x, p["w_q"], p["w_k_x"])
        found = False
        for _ in range(10):
            c = rng.normal(size=(1, 4))
            if np.abs(standard(x + c, p["w_q"], p["w_k_x"]) - base).max() > 1e-3:
                found = True
                break
        hits += found
    assert hits >= 95


def test_gaussian_scores_symmetric():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(6, 4))
    w_s = rng.normal(size=(3, 5))
    kernel, _ = kernel_form_factors(x, w_s)
    assert np.abs(kernel - kernel.T).max() <= 1e-12


# ---------------------------------------------------------------------------
# frame indexing
# ---------------------------------------------------------------------------


def test_frame_index_values():
    col = frame_index_column(300, start_index=0, alpha=100.0)
    assert col[0, 0] == 0.0
    assert col[250, 0] == 2.5
    assert col.shape == (300, 1)


def test_frame_index_difference_vector():
    col = frame_index_column(20, start_index=7, alpha=100.0)
    for i, j in [(0, 5), (13, 2), (19, 19)]:
        assert abs((col[i, 0] - col[j, 0]) - (i - j) / 100.0) < 1e-15


def test_frame_index_rejects_bad_alpha():
    p = make_params(AttentionVariant.GAUSSIAN_FRAME_INDEX, 2, 3, 2, 0)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            head_weights(np.zeros((3, 2)), p, AttentionVariant.GAUSSIAN_FRAME_INDEX,
                         alpha=alpha)


def test_gaussian_frame_index_translation_invariance():
    # up to 10**7 frames: the centred rows keep the scores' Gram form from
    # cancelling terms of size ||a||^2, which grow with the offset
    rng = np.random.default_rng(17)
    p = make_params(AttentionVariant.GAUSSIAN_FRAME_INDEX, 4, 4, 4, 18)
    x = rng.normal(size=(9, 4))
    outs = [
        head_weights(x, p, AttentionVariant.GAUSSIAN_FRAME_INDEX,
                     alpha=100.0, start_index=s).data
        for s in (0, 37, 1000, 10**5, 10**7)
    ]
    for shifted in outs[1:]:
        assert np.abs(shifted - outs[0]).max() <= 1e-10


def test_standard_frame_index_breaks_translation_invariance():
    rng = np.random.default_rng(19)
    hits = 0
    for trial in range(100):
        p = make_params(AttentionVariant.STANDARD_FRAME_INDEX, 4, 4, 4, 2000 + trial)
        x = rng.normal(size=(6, 4))
        base = head_weights(x, p, AttentionVariant.STANDARD_FRAME_INDEX,
                            alpha=100.0, start_index=0).data
        shifted = head_weights(x, p, AttentionVariant.STANDARD_FRAME_INDEX,
                               alpha=100.0, start_index=1000).data
        hits += np.abs(shifted - base).max() > 1e-3
    assert hits >= 95


# ---------------------------------------------------------------------------
# relative positional encoding
# ---------------------------------------------------------------------------


def oracle_relative(x, w_q, w_k_x, w_k_r, u, v, table):
    L = x.shape[0]
    xa = np.concatenate([x, np.ones((L, 1))], axis=1)
    scores = np.zeros((L, L))
    for i in range(L):
        for j in range(L):
            r = table[i - j + L - 1]
            scores[i, j] = (
                xa[i] @ w_q.T @ w_k_x @ xa[j]
                + xa[i] @ w_q.T @ w_k_r @ r
                + u @ w_k_x @ xa[j]
                + v @ w_k_r @ r
            )
    return scores


def relative_scores(x, w_q, w_k_x, w_k_r, u, v):
    """Four-term scores over the signed sinusoid table for ``x``, scaled by 1/sqrt(d_k)."""
    q, kx, kr = relative_projections(const(x), w_q, w_k_x, w_k_r)
    return relative_terms(q, kx, kr, u, v).data


def test_scores_relative_reduces_to_standard_qk():
    rng = np.random.default_rng(20)
    p = make_params(AttentionVariant.RELATIVE_PE, 4, 3, 4, 21)
    x = rng.normal(size=(5, 4))
    zero_like = lambda t: const(np.zeros_like(t.data))
    got = relative_scores(x, p["w_q"], p["w_k_x"], zero_like(p["w_k_r"]),
                          zero_like(p["u"]), zero_like(p["v"]))
    xa = np.concatenate([x, np.ones((5, 1))], axis=1)
    expected = (xa @ p["w_q"].data.T) @ (xa @ p["w_k_x"].data.T).T / math.sqrt(3)
    npt.assert_allclose(got, expected, atol=1e-12)


def test_scores_relative_depends_only_on_offset():
    # constant features isolate the positional terms: scores must be Toeplitz
    p = make_params(AttentionVariant.RELATIVE_PE, 4, 3, 4, 22)
    x = np.tile(np.array([[0.3, -1.2, 0.7, 0.1]]), (7, 1))
    s = relative_scores(x, p["w_q"], p["w_k_x"], p["w_k_r"], p["u"], p["v"])
    for i in range(6):
        for j in range(6):
            assert abs(s[i, j] - s[i + 1, j + 1]) <= 1e-12


def test_scores_relative_matches_four_term_oracle():
    rng = np.random.default_rng(23)
    p = make_params(AttentionVariant.RELATIVE_PE, 4, 3, 4, 24)
    x = rng.normal(size=(5, 4))
    table = signed_sinusoid_table(5, p["w_k_r"].data.shape[1])
    got = relative_scores(x, p["w_q"], p["w_k_x"], p["w_k_r"], p["u"], p["v"])
    expected = oracle_relative(x, p["w_q"].data, p["w_k_x"].data, p["w_k_r"].data,
                               p["u"].data[0], p["v"].data[0], table) / math.sqrt(3)
    npt.assert_allclose(got, expected, atol=1e-12)


def test_attn_relative_rows_stochastic():
    rng = np.random.default_rng(25)
    p = make_params(AttentionVariant.RELATIVE_PE, 4, 4, 4, 26)
    x = rng.normal(size=(6, 4))
    out = head_weights(x, p, AttentionVariant.RELATIVE_PE).data
    npt.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)


# ---------------------------------------------------------------------------
# multi-head wrapper
# ---------------------------------------------------------------------------


def test_multi_head_single_head_singleton():
    rng = np.random.default_rng(27)
    head = make_params(AttentionVariant.STANDARD, 4, 3, 4, 28)
    w_o = param(rng.normal(size=(4, 5)))
    x = rng.normal(size=(1, 4))
    out = multi_head_attention(const(x), [head], w_o, AttentionVariant.STANDARD).data
    xa = np.concatenate([x, np.ones((1, 1))], axis=1)
    values = xa @ head["w_v"].data.T
    expected = np.concatenate([values, np.ones((1, 1))], axis=1) @ w_o.data.T
    npt.assert_allclose(out, expected, atol=1e-12)


def test_multi_head_permutation_symmetry():
    rng = np.random.default_rng(29)
    d_model, d_v = 6, 3
    heads = [make_params(AttentionVariant.STANDARD, d_model, 4, d_v, 30 + i)
             for i in range(2)]
    w_o = rng.normal(size=(d_model, 2 * d_v + 1))
    x = rng.normal(size=(5, d_model))
    out = multi_head_attention(const(x), heads, const(w_o), AttentionVariant.STANDARD).data
    # swap the two heads along with their slices of the output weight
    w_o_swapped = np.concatenate(
        [w_o[:, d_v:2 * d_v], w_o[:, :d_v], w_o[:, -1:]], axis=1
    )
    swapped = multi_head_attention(const(x), heads[::-1], const(w_o_swapped),
                                   AttentionVariant.STANDARD).data
    assert np.abs(out - swapped).max() <= 1e-12


def test_multi_head_matches_manual_two_slice():
    rng = np.random.default_rng(31)
    d_model, d_v = 6, 3
    heads = [make_params(AttentionVariant.GAUSSIAN, d_model, 4, d_v, 40 + i)
             for i in range(2)]
    w_o = rng.normal(size=(d_model, 2 * d_v + 1))
    x = rng.normal(size=(5, d_model))
    out = multi_head_attention(const(x), heads, const(w_o), AttentionVariant.GAUSSIAN).data
    xa = np.concatenate([x, np.ones((5, 1))], axis=1)
    slices = []
    for head in heads:
        attn = gaussian(x, head["w_s"])
        slices.append(attn @ (xa @ head["w_v"].data.T))
    manual = np.concatenate(slices + [np.ones((5, 1))], axis=1) @ w_o.T
    npt.assert_allclose(out, manual, atol=1e-12)


# ---------------------------------------------------------------------------
# cross-variant properties
# ---------------------------------------------------------------------------

ALL_VARIANTS = list(AttentionVariant)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_all_variants_row_stochastic(variant):
    rng = np.random.default_rng(32)
    for trial in range(10):
        L = int(rng.integers(1, 12))
        x = rng.normal(size=(L, 6))
        p = make_params(variant, 6, 4, 6, 5000 + trial)
        w = head_weights(x, p, variant, alpha=100.0).data
        npt.assert_allclose(w.sum(axis=1), np.ones(L), atol=1e-12)
        assert np.all(w > 0)


def test_attention_params_named_only_present_fields():
    # a head's names, in checkpoint order, are the order its variant draws them
    expected = {
        AttentionVariant.STANDARD: ["w_q", "w_k_x", "w_v"],
        AttentionVariant.STANDARD_FRAME_INDEX: ["w_q", "w_k_x", "w_v"],
        AttentionVariant.SOFT_MASK: ["w_q", "w_k_x", "log_sigma_mask", "w_v"],
        AttentionVariant.SHARED_QK: ["w_s", "w_v"],
        AttentionVariant.GAUSSIAN: ["w_s", "w_v"],
        AttentionVariant.GAUSSIAN_FRAME_INDEX: ["w_s", "w_v"],
        AttentionVariant.RELATIVE_PE: ["w_q", "w_k_x", "w_k_r", "u", "v", "w_v"],
    }
    assert set(expected) == set(AttentionVariant)
    for seed, (variant, names) in enumerate(expected.items(), start=50):
        assert list(make_params(variant, 4, 3, 4, seed)) == names, variant.value


def test_soft_mask_sigma_positive_and_matches_init():
    p = make_params(AttentionVariant.SOFT_MASK, 4, 3, 4, 52)
    assert abs(sigma_mask(p) - 10.0) < 1e-12
    p["log_sigma_mask"].data[0, 0] = -40.0
    assert sigma_mask(p) > 0.0


def relative_gather_case(rows: slice, length: int, seed: int):
    """``relative_terms`` over the queries ``rows`` of random projections, and the
    same scores with the relative shift done as an explicit gather."""
    rng = np.random.default_rng(seed)
    d_k = 4
    q, kx = rng.normal(size=(length, d_k)), rng.normal(size=(length, d_k))
    kr = rng.normal(size=(2 * length - 1, d_k))
    u, v = rng.normal(size=(1, d_k)), rng.normal(size=(1, d_k))
    got = relative_terms(const(q), const(kx), const(kr), const(u), const(v), rows).data
    start, stop, _ = rows.indices(length)
    # a block of c query rows reads the c + L - 1 offsets starting at its first row
    offsets = (q[rows] + v) @ kr[start:stop + length - 1].T
    i, j = np.arange(stop - start)[:, None], np.arange(length)[None, :]
    expected = ((q[rows] + u) @ kx.T + offsets[i, i - j + length - 1]) * (1.0 / math.sqrt(d_k))
    return got, expected


@pytest.mark.parametrize("length", [1, 2, 7, 64])
def test_relative_shift_equals_explicit_gather(length):
    got, expected = relative_gather_case(slice(None), length, 53 + length)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows,length", [(1, 1), (1, 5), (3, 7), (7, 7), (65, 300)])
def test_relative_shift_block_equals_explicit_gather(rows, length):
    start = (length - rows) // 2
    got, expected = relative_gather_case(slice(start, start + rows), length, rows + length)
    assert got.tobytes() == expected.tobytes()


def test_offset_table_span_is_checked():
    from longattn.errors import InternalError

    p = make_params(AttentionVariant.RELATIVE_PE, 4, 3, 4, 54)
    q, kx = qk_projections(const(np.zeros((4, 4))), p["w_q"], p["w_k_x"])
    bad_kr = const(np.zeros((5, 3)))  # needs 2*4-1 = 7 rows
    with pytest.raises(InternalError):
        relative_terms(q, kx, bad_kr, p["u"], p["v"])


# ---------------------------------------------------------------------------
# row-blocked multi-head attention
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_attention_weights_writes_no_array_but_its_own_score_block(variant):
    # the softmax normalises each score block in place: no projection, weight
    # or earlier block may change, and the weights share memory with none of them
    from longattn.numerics import linalg

    length = 300
    head = make_params(variant, 16, 8, 8, 70)
    x = param(np.random.default_rng(71).normal(size=(length, 16)))
    projected = VARIANTS[variant].projections(x, head, 100.0, start_index=0)
    operands = projected.operands if isinstance(projected.operands, tuple) else (projected.operands,)
    arrays = [t.data if isinstance(t, Tensor) else t for t in operands]
    arrays += [t.data for t in head.values()] + [x.data]
    before = [a.copy() for a in arrays]
    blocks, saved = [], []
    for rows, keys in linalg.row_blocks(length, projected.half):
        weights = attention_weights(projected, head, variant, rows=rows, keys=keys).data
        assert not any(np.shares_memory(weights, a) for a in arrays + blocks)
        blocks.append(weights)
        saved.append(weights.copy())
    assert len(blocks) == 2
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(blocks, saved):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("length", [300, 1000])
@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_blocked_forward_matches_one_block(variant, length, monkeypatch):
    from longattn.numerics import linalg, no_grad

    rng = np.random.default_rng(length)
    d_model = 16
    heads = [make_params(variant, d_model, 8, 8, 60 + i) for i in range(2)]
    w_o = const(rng.normal(size=(d_model, 17)))
    x = rng.normal(size=(length, d_model))

    def forward():
        maps = [np.full((length, length), np.nan) for _ in heads]

        def observe(h, rows, keys, w):  # places a block by its rows, zero off its key window
            maps[h][rows] = 0.0
            maps[h][rows, keys] = w

        with no_grad():
            out = multi_head_attention(const(x), heads, w_o, variant, observe=observe).data
        return out, maps

    assert len(linalg.row_blocks(length, None)) >= 2
    blocked, blocked_maps = forward()
    with monkeypatch.context() as m:
        m.setattr(linalg, "CHUNK_ELEMENTS", length * length)
        assert len(linalg.row_blocks(length, None)) == 1
        whole, whole_maps = forward()
    assert rel_diff(blocked, whole) <= 1e-12
    for head, stacked, one in zip(heads, blocked_maps, whole_maps):
        full = head_weights(x, head, variant).data
        npt.assert_array_equal(one, full)
        assert not np.isnan(stacked).any()  # every row was observed
        assert rel_diff(stacked, full) <= 1e-12

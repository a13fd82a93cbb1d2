"""Analytic gradients of every attention variant vs central finite differences."""

import numpy as np
import pytest

from conftest import dot_product_chain, head_weights, mul, relative_terms_chain, sum_all
from longattn.attention import AttentionVariant, init_attention_params
from longattn.attention.multihead import multi_head_attention
from longattn.numerics import check_gradients, const, param

GRAD_TOL = 1e-5
SEEDS = range(5)


def variant_case(variant, seed):
    rng = np.random.default_rng(seed)
    d_model, d_k, d_v, L = 4, 3, 4, 5
    params = init_attention_params(variant, d_model, d_k, d_v, 100.0, rng)
    x = param(rng.normal(size=(L, d_model)))
    probe = const(rng.normal(size=(L, L)))

    def f():
        attn = head_weights(x, params, variant, alpha=100.0, start_index=2)
        return sum_all(mul(probe, attn))

    named = [("x", x), *params.items()]
    named = [(n, t) for n, t in named if n != "w_v"]  # values unused by the weights
    return f, named


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("seed", SEEDS)
def test_variant_gradients_match_finite_differences(variant, seed):
    f, named = variant_case(variant, 7000 + seed)
    errors = check_gradients(f, named)
    worst = max(errors.values())
    assert worst <= GRAD_TOL, f"{variant.value}: {errors}"


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_head_gradients(seed):
    rng = np.random.default_rng(8000 + seed)
    d_model, d_k, d_v, L = 4, 3, 2, 4
    heads = [init_attention_params(AttentionVariant.GAUSSIAN_FRAME_INDEX,
                                   d_model, d_k, d_v, 100.0, rng) for _ in range(2)]
    w_o = param(rng.normal(size=(d_model, 2 * d_v + 1)))
    x = param(rng.normal(size=(L, d_model)))
    probe = const(rng.normal(size=(L, d_model)))

    def f():
        out = multi_head_attention(x, heads, w_o, AttentionVariant.GAUSSIAN_FRAME_INDEX,
                                   alpha=100.0)
        return sum_all(mul(probe, out))

    named = [("x", x), ("w_o", w_o)]
    for i, h in enumerate(heads):
        named += [(f"h{i}.{name}", t) for name, t in h.items()]
    errors = check_gradients(f, named)
    worst = max(errors.values())
    assert worst <= GRAD_TOL, errors


@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_multi_head_gradients_through_row_blocks(variant, monkeypatch):
    from longattn.numerics import linalg

    monkeypatch.setattr(linalg, "CHUNK_ELEMENTS", 16)  # L = 7 runs in blocks of 2 rows
    rng = np.random.default_rng(9000)
    d_model, d_k, d_v, L = 4, 3, 2, 7
    assert len(linalg.row_blocks(L, None)) >= 3
    heads = [init_attention_params(variant, d_model, d_k, d_v, 100.0, rng) for _ in range(2)]
    w_o = param(rng.normal(size=(d_model, 2 * d_v + 1)))
    x = param(rng.normal(size=(L, d_model)))
    probe = const(rng.normal(size=(L, d_model)))

    def f():
        out = multi_head_attention(x, heads, w_o, variant, alpha=100.0)
        return sum_all(mul(probe, out))

    named = [("x", x), ("w_o", w_o)]
    for i, h in enumerate(heads):
        named += [(f"h{i}.{name}", t) for name, t in h.items()]
    errors = check_gradients(f, named)
    worst = max(errors.values())
    assert worst <= GRAD_TOL, errors


@pytest.mark.parametrize("length", [31, 300])
@pytest.mark.parametrize("variant", list(AttentionVariant), ids=lambda v: v.value)
def test_fused_scores_and_in_place_softmax_change_no_byte(variant, length, monkeypatch):
    # multi-head attention and every gradient, one block (31) and two (300),
    # against the op chains the fused score ops replace and an out-of-place softmax
    from longattn.attention import multihead, params
    from longattn.numerics import backward, tensor

    def run():
        rng = np.random.default_rng(length)
        d_model = 16
        heads = [init_attention_params(variant, d_model, 8, 8, 100.0, rng) for _ in range(2)]
        w_o = param(rng.normal(size=(d_model, 17)))
        x = param(rng.normal(size=(length, d_model)))
        out = multi_head_attention(x, heads, w_o, variant, alpha=100.0)
        backward(sum_all(mul(const(rng.normal(size=out.data.shape)), out)))
        tensors = [x, w_o] + [t for h in heads for t in h.values()]
        return [out.data.tobytes()] + [t.grad.tobytes() for t in tensors]

    fused = run()
    monkeypatch.setattr(params, "dot_product_scores", dot_product_chain)
    monkeypatch.setattr(params, "relative_terms", relative_terms_chain)
    monkeypatch.setattr(multihead, "softmax_rows", lambda x, fresh: tensor.softmax_rows(x))
    assert run() == fused

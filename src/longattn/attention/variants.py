"""Attention score mechanisms.

Every variant is a row softmax of a score, so a variant is two stages: a
projection stage (per-frame linear maps) and a score stage (everything whose
footprint grows with the squared sequence length), which gives pre-softmax
scores from the projection stage's ``Projection``. ``multihead.attention_weights``
applies the one softmax, and the memory-footprint tool measures the score
stage with it. A score stage scores the query frames in ``rows``, all by
default, so a caller can work through the queries one block at a time.
``params.VARIANTS`` wires each variant to its two stages.

The scaled dot products with soft_mask's optional window, the Gaussian distances
and relative_pe's shifted terms are custom tape ops, each with an exact backward.

``attn_kernel_form`` is the plain-array oracle for the algebraic identity
between shared-QK attention and its normalized-kernel rewriting: the scores
are computed from pairwise feature distances and per-frame energy factors
instead of inner products, and must agree with the shared-QK variant.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

import numpy as np

from ..errors import InternalError
from ..numerics.linalg import as_matrix
from ..numerics.tensor import (
    Tensor,
    accumulate_grad,
    add_row,
    affine,
    append_const_col,
    const,
    make_op,
    matmul_t,
    mul_scalar,
    slice_rows,
)
from .encodings import signed_sinusoid_table, squared_offset_matrix


# A key that scores at most this far below the row's own key gets weight
# exactly 0.0: EXP_NORMAL_MIN = -708.4, less a margin of 41.6 for rounding.
BAND_SCORE = -750.0


class Projection(NamedTuple):  # one head's projection stage
    operands: Any  # everything the variant's score stage reads
    half: int | None = None  # W: a key more than W frames off gets weight 0.0; None: no band


# ---------------------------------------------------------------------------
# custom pairwise ops
# ---------------------------------------------------------------------------


def pairwise_sqdist_scores(
    a: Tensor, g: np.ndarray, rows: slice = slice(None), keys: slice = slice(None)
) -> Tensor:
    """S[i, j] = -||a_i - a_j||^2 / 2 for the rows i in ``rows`` and the rows j in ``keys``.

    Computed as ``-0.5 * (g[rows, None] + g[None, keys]) + a[rows] @ a[keys].T``
    with the given g_i = ||a_i||^2: g_i / 2 + g_j / 2 (halving is exact, so it
    rounds as the half of the sum) is subtracted from the Gram product in place.
    Attention passes one block of query rows at a time, and for a banded variant
    the block's key window, so the temporary is block-sized.
    """
    a_rows, a_keys = a.data[rows], a.data[keys]
    scores = a_rows @ a_keys.T
    scores -= np.add(0.5 * g[rows, None], 0.5 * g[None, keys])

    def grad_fn(u: np.ndarray) -> None:
        # over every key this is u @ a + u.T @ a - (r + c) * a for every row,
        # operation for operation; a window leaves the other rows' sums out
        da = np.zeros_like(a.data)
        da[keys] = u.T @ a_rows
        da[rows] += u @ a_keys
        rc = np.zeros(len(g))
        rc[keys] = u.sum(axis=0)
        rc[rows] += u.sum(axis=1)
        da -= rc[:, None] * a.data
        accumulate_grad(a, da, fresh=True)

    return make_op(scores, (a,), grad_fn)


def _skew(full: np.ndarray, length: int) -> np.ndarray:
    """The view S[i, j] = P[i, i - j + L - 1] of a C-contiguous (c, L + c - 1) block P
    of offset scores: Transformer-XL's relative shift, with no copy."""
    s0, s1 = full.strides
    return np.ndarray((full.shape[0], length), buffer=full, offset=(length - 1) * s1,
                      strides=(s0 + s1, -s1))


# ---------------------------------------------------------------------------
# scaled dot-product scores
# ---------------------------------------------------------------------------


def qk_projections(x: Tensor, w_q, w_k) -> tuple[Tensor, Tensor]:
    xa = append_const_col(x)
    return matmul_t(xa, w_q), matmul_t(xa, w_k)


def dot_product_scores(q: Tensor, k: Tensor, rows: slice = slice(None), log_sigma=None) -> Tensor:
    """Scores q[rows] @ k.T / sqrt(d_k) of the queries in ``rows`` over all keys, scaled
    in place; ``q`` may be ``k``. Given soft_mask's ``log_sigma``, its window -(i - j)^2 /
    (2 sigma^2), sigma = exp(log_sigma), is added in place. Forward and backward repeat
    the IEEE operations of ``mul_scalar(matmul_t(slice_rows(q, rows), k), scale)`` and of
    the window added as an op of its own; the backward recomputes (i - j)^2."""
    scale = 1.0 / math.sqrt(q.data.shape[1])
    q_rows = q.data[rows]
    scores = q_rows @ k.data.T
    scores *= scale
    if log_sigma is not None:
        e = np.exp(log_sigma.data)
        scores += -0.5 * squared_offset_matrix(len(k.data), rows) * (e**-2.0)[0, 0]

    def grad_fn(u: np.ndarray) -> None:
        if log_sigma is not None:
            du = np.sum(u * (-0.5 * squared_offset_matrix(len(k.data), rows)))
            accumulate_grad(log_sigma, np.array([[du]]) * -2.0 * e**-3.0 * e, fresh=True)
        u = u * scale
        accumulate_grad(k, (q_rows.T @ u).T, fresh=True)
        if q.requires_grad:
            dq = np.zeros_like(q.data)
            dq[rows] = u @ k.data
            accumulate_grad(q, dq, fresh=True)

    return make_op(scores, (q, k) if log_sigma is None else (q, k, log_sigma), grad_fn)


# ---------------------------------------------------------------------------
# shared-QK attention and its Gaussian kernelization
# ---------------------------------------------------------------------------


def gaussian_projection(x: Tensor, w_s: Tensor, alpha: float | None = None) -> Projection:
    """Rows a = [x, 1] w_s^T / d_k^(1/4) less their column mean, their g_i = ||a_i||^2
    for every row block's scores, and W, the half-width in frames of their exact
    key band: given the frame-index scale ``alpha``, x's last column is the frame
    index; else no band.

    The mean is a constant shift of every row (no gradient flows through it): the
    scores read only row differences, so the shift leaves them and their exact
    gradient unchanged, but their Gram form a_i.a_j - (g_i + g_j) / 2 no longer
    cancels terms of size ||a||^2 that grow with the start offset.

    Row i of a is f_i + (i - (L - 1) / 2) * v: v projects one frame of index, f_i
    is the rest. With beta = ||v|| and r_i = ||f_i||, the triangle inequality gives
    -||a_i - a_j||^2 / 2 <= -(|i - j| * beta - r_i - r_j)^2 / 2. So every key more
    than W = reach / beta frames from row i, reach = 2 max r + sqrt(-2 * BAND_SCORE),
    scores at most BAND_SCORE while the row's own key scores 0: its weight is
    exactly 0.0 (``EXP_NORMAL_MIN``). W is rounded up and widened by one frame;
    there is no band unless reach < beta * L.
    """
    d_k = w_s.data.shape[0]
    a = mul_scalar(affine(x, w_s), d_k**-0.25)
    a = add_row(a, const(-a.data.mean(axis=0, keepdims=True)))
    g = np.einsum("ij,ij->i", a.data, a.data)
    v = 0.0 if alpha is None else w_s.data[:, -2] * (d_k**-0.25 / alpha)  # scaled as a is
    beta, length = float(np.linalg.norm(v)), len(g)
    if not beta * length > math.sqrt(-2.0 * BAND_SCORE):  # the reach below is at least this
        return Projection((a, g))
    f = a.data - (np.arange(length, dtype=np.float64) - (length - 1) / 2)[:, None] * v
    reach = 2.0 * math.sqrt(np.einsum("ij,ij->i", f, f).max()) + math.sqrt(-2.0 * BAND_SCORE)
    return Projection((a, g), math.ceil(reach / beta) + 1 if reach < beta * length else None)


def sigma_inverse(w_s) -> np.ndarray:
    """Gram form of the scaled shared weight; positive semidefinite."""
    w_s = w_s.data if isinstance(w_s, Tensor) else as_matrix(w_s)
    w_hat = w_s / w_s.shape[0] ** 0.25
    return w_hat.T @ w_hat


def kernel_form_factors(x, w_s) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise kernel exp(-d_ij/2) and per-frame energies exp(q_i/2).

    d_ij is the squared Mahalanobis distance between augmented frames under
    ``sigma_inverse``; q_i the matching squared norm. The elementwise product
    kernel * energy_i * energy_j recovers exp of the shared-QK Gram matrix.
    """
    x = as_matrix(x)
    w_s = w_s.data if isinstance(w_s, Tensor) else as_matrix(w_s)
    xa = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    a = xa @ (w_s / w_s.shape[0] ** 0.25).T
    g = np.einsum("ij,ij->i", a, a)
    sqdist = g[:, None] + g[None, :] - 2.0 * (a @ a.T)
    return np.exp(-0.5 * sqdist), np.exp(0.5 * g)


def attn_kernel_form(x, w_s) -> np.ndarray:
    """Shared-QK attention computed through the kernel/energy factorization."""
    kernel, energy = kernel_form_factors(x, w_s)
    weights = kernel * energy[:, None] * energy[None, :]
    return weights / weights.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# relative positional encoding
# ---------------------------------------------------------------------------


def relative_projections(x: Tensor, w_q, w_k_x, w_k_r) -> tuple[Tensor, Tensor, Tensor]:
    """Queries, content keys, and ``kr``: the key projection of the signed
    sinusoid table, one row per offset -(L-1)..(L-1)."""
    q, kx = qk_projections(x, w_q, w_k_x)
    r_table = const(signed_sinusoid_table(q.data.shape[0], w_k_r.data.shape[1]))
    return q, kx, matmul_t(r_table, w_k_r)


def relative_terms(
    q: Tensor, kx: Tensor, kr: Tensor, u: Tensor, v: Tensor, rows: slice = slice(None)
) -> Tensor:
    """Pre-softmax scores ((q_i + u).kx_j + (q_i + v).kr[i - j + L - 1]) / sqrt(d_k)
    for the queries i in ``rows``: content, content-position and both bias terms,
    grouped as in Transformer-XL. A block of c queries reads c + L - 1 offsets.
    One op over (q + u, kx, position) adds the position term's skew view to the
    content GEMM and scales, in place, with ``add``'s and ``mul_scalar``'s operations."""
    length, d_k = q.data.shape
    if kr.data.shape[0] != 2 * length - 1:
        raise InternalError(
            f"relative-offset table has {kr.data.shape[0]} rows, needs "
            f"{2 * length - 1} for length {length}"
        )
    start, stop, _ = rows.indices(length)
    q_rows = slice_rows(q, rows)
    qu = add_row(q_rows, u)
    offsets = slice_rows(kr, slice(start, stop + length - 1))
    position = matmul_t(add_row(q_rows, v), offsets)
    scale = 1.0 / math.sqrt(d_k)
    scores = qu.data @ kx.data.T
    scores += _skew(position.data, length)
    scores *= scale

    def grad_fn(g: np.ndarray) -> None:
        g = g * scale
        if qu.requires_grad:
            accumulate_grad(qu, g @ kx.data, fresh=True)
        accumulate_grad(kx, (qu.data.T @ g).T, fresh=True)
        dp = np.zeros_like(position.data)  # (i, j) land on distinct entries: exact
        _skew(dp, length)[...] = g
        accumulate_grad(position, dp, fresh=True)

    return make_op(scores, (qu, kx, position), grad_fn)

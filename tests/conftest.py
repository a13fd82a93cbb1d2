"""Shared helpers for the test suite."""

# First: importing longattn sets BLAS to one thread unless a count is set, and
# BLAS reads that only when numpy loads, so the tests run BLAS as the CLI does.
import longattn  # noqa: F401

import math
import sys
from typing import Sequence

import numpy as np
import numpy.testing as npt

import longattn.encoder as encoder_module
from longattn.attention import DEFAULT_ALPHA, VARIANTS, attention_weights
from longattn.attention.encodings import squared_offset_matrix
from longattn.ctc import BLANK_ID, NEG_INF
from longattn.numerics import tensor as tensor_module
from longattn.numerics.tensor import (
    Tensor,
    accumulate_grad,
    add,
    add_row,
    const,
    make_op,
    matmul_t,
    mul_scalar,
    slice_rows,
)

RELU_GAP_THRESHOLD = 3e-3


def min_relu_gap(f) -> float:
    """Smallest |pre-activation| any encoder relu saw while running ``f`` once.

    Central finite differences are only a valid gradient oracle away from the
    relu kink; callers use this to screen evaluation points.
    """
    gaps: list[float] = []
    original = encoder_module.relu

    def probe(t):
        if t.data.size:
            gaps.append(float(np.abs(t.data).min()))
        return original(t)

    encoder_module.relu = probe
    try:
        f()
    finally:
        encoder_module.relu = original
    return min(gaps) if gaps else float("inf")


def screen_seed(make_case, base_seed: int, attempts: int = 20) -> int:
    """First seed whose forward pass keeps relu inputs clear of the kink."""
    for i in range(attempts):
        seed = base_seed + 1000 * i
        f = make_case(seed)
        if min_relu_gap(f) > RELU_GAP_THRESHOLD:
            return seed
    raise AssertionError(f"no kink-free seed found starting from {base_seed}")


# ---------------------------------------------------------------------------
# tape ops and metrics that only tests use
# ---------------------------------------------------------------------------


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; with ``sum_all`` it turns an output into a scalar probe loss."""
    assert a.data.shape == b.data.shape, (a.data.shape, b.data.shape)

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(a, u * b.data, fresh=True)
        accumulate_grad(b, u * a.data, fresh=True)

    return make_op(a.data * b.data, (a, b), grad_fn)


def transpose(a: Tensor) -> Tensor:
    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(a, u.T, fresh=False)

    return make_op(a.data.T, (a,), grad_fn)


def sum_all(a: Tensor) -> Tensor:
    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(a, np.full_like(a.data, u[0, 0]), fresh=True)

    return make_op(np.array([[a.data.sum()]]), (a,), grad_fn)


# The op chains that ``dot_product_scores`` (with and without soft_mask's window)
# and ``relative_terms`` fuse: the references whose forward and every gradient
# the fused ops reproduce bit for bit.


def relative_shift(p: Tensor) -> Tensor:
    """S[i, j] = P[i, i - j + L - 1] of a (c, L + c - 1) block P of offset scores,
    as its own op: a copy of the skew view forward, a scatter through it backward."""
    n_rows, n_cols = p.data.shape
    length = n_cols - n_rows + 1

    def skew(full: np.ndarray) -> np.ndarray:  # ``full`` is C-contiguous
        s0, s1 = full.strides
        return np.ndarray((n_rows, length), buffer=full, offset=(length - 1) * s1,
                          strides=(s0 + s1, -s1))

    def grad_fn(u: np.ndarray) -> None:
        dp = np.zeros((n_rows, n_cols))
        skew(dp)[...] = u
        accumulate_grad(p, dp, fresh=True)

    return make_op(skew(np.ascontiguousarray(p.data)).copy(), (p,), grad_fn)


def soft_mask_tensor(length: int, log_sigma: Tensor, rows: slice = slice(None)) -> Tensor:
    """Trainable-width Gaussian window -(i - j)^2 / (2 sigma^2), sigma =
    exp(log_sigma), as an additive pre-softmax penalty for the query frames in
    ``rows``. The backward rounds as the chain rule through exp, the power and
    the product does, operation for operation."""
    base = -0.5 * squared_offset_matrix(length, rows)
    e = np.exp(log_sigma.data)

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(log_sigma, np.array([[np.sum(u * base)]]) * -2.0 * e**-3.0 * e, fresh=True)

    return make_op(base * (e**-2.0)[0, 0], (log_sigma,), grad_fn)


def dot_product_chain(q: Tensor, k: Tensor, rows: slice = slice(None), log_sigma=None) -> Tensor:
    scores = mul_scalar(matmul_t(slice_rows(q, rows), k), 1.0 / math.sqrt(q.data.shape[1]))
    if log_sigma is None:
        return scores
    return add(scores, soft_mask_tensor(k.data.shape[0], log_sigma, rows))


def relative_terms_chain(q, kx, kr, u, v, rows: slice = slice(None)) -> Tensor:
    length = q.data.shape[0]
    start, stop, _ = rows.indices(length)
    q_rows = slice_rows(q, rows)
    content = matmul_t(add_row(q_rows, u), kx)
    offsets = slice_rows(kr, slice(start, stop + length - 1))
    position = matmul_t(add_row(q_rows, v), offsets)
    return mul_scalar(add(content, relative_shift(position)), 1.0 / math.sqrt(q.data.shape[1]))


def sqnorms(a) -> np.ndarray:
    """g_i = ||a_i||^2 of the rows of the Tensor ``a``, as the Gaussian projection computes it."""
    return np.einsum("ij,ij->i", a.data, a.data)


def head_weights(x, params, variant, alpha=DEFAULT_ALPHA, start_index=0, **blocks) -> Tensor:
    """One head's attention weights for the frames ``x`` (an array or a Tensor):
    the variant's projection stage, then ``attention_weights`` with ``blocks``
    as its ``rows`` and ``keys``."""
    x = x if isinstance(x, Tensor) else const(x)
    projected = VARIANTS[variant].projections(x, params, alpha, start_index)
    return attention_weights(projected, params, variant, **blocks)


def parameter_count(params) -> int:
    return sum(t.data.size for t in params.tensors())


# A float64 value that no generated array holds; a test writes it into one
# array, then ``poison`` turns it into a value the writer would refuse.
MARKER = 0.123456789012345


def poison(path, bad: float) -> None:
    """Rewrite the one ``MARKER`` in the container file ``path`` as ``bad``."""
    data = path.read_bytes()
    marker = np.float64(MARKER).tobytes()
    assert data.count(marker) == 1
    path.write_bytes(data.replace(marker, np.float64(bad).tobytes()))


def sigma_mask(head) -> float:
    """Soft-mask width of one head, from its log-parameter."""
    return math.exp(head["log_sigma_mask"].data[0, 0])


# ---------------------------------------------------------------------------
# reference oracles for the packed in-place optimizer and CTC recursion
# ---------------------------------------------------------------------------


class ReferenceAdam:
    """Per-tensor Adam with whole-array temporaries: the plain expression the
    flat in-place ``Adam.step`` must reproduce bit for bit."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr, self.betas, self.eps = lr, betas, eps
        self.first = [np.zeros_like(p.data) for p in self.params]
        self.second = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self) -> None:
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self.first, self.second):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m[:] = b1 * m + (1.0 - b1) * g
            v[:] = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def copy_always(t: Tensor, g: np.ndarray, *, fresh: bool) -> None:
    """``accumulate_grad`` that ignores ``fresh`` and copies every first
    gradient, so no ``grad`` is ever an array that a grad_fn handed over: the
    reference that gradient ownership must reproduce byte for byte."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def use_copy_always(monkeypatch) -> None:
    """Patch ``copy_always`` over every module's name for ``accumulate_grad``."""
    original = tensor_module.accumulate_grad
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("accumulate_grad") is original:
            monkeypatch.setattr(module, "accumulate_grad", copy_always)


def assert_packed(tensors, data, grads):
    """``tensors``' data and grads are consecutive slices of ``data`` and
    ``grads``: writing through the buffers shows up in every tensor."""
    offsets = np.cumsum([0] + [t.data.size for t in tensors])
    assert data.shape == grads.shape == (offsets[-1],)
    saved = data.copy(), grads.copy()
    data[:], grads[:] = np.arange(data.size), -np.arange(data.size)
    for t, a, b in zip(tensors, offsets, offsets[1:]):
        npt.assert_array_equal(t.data.ravel(), np.arange(a, b))
        npt.assert_array_equal(t.grad.ravel(), -np.arange(a, b))
    data[:], grads[:] = saved


def reference_ctc_loss(y: np.ndarray, labels: Sequence[int]) -> tuple[float, np.ndarray]:
    """CTC forward-backward with freshly allocated shift arrays per frame and
    ``np.where`` for the skip transitions: the plain recursion the in-place
    ``ctc_loss`` must reproduce bit for bit. Expects a feasible alignment."""
    n_frames, vocab = y.shape
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    n_states = ext.shape[0]
    skip_ok = np.zeros(n_states, dtype=bool)
    if n_states > 2:
        skip_ok[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    emit = y[:, ext]

    alpha = np.full((n_frames, n_states), NEG_INF)
    alpha[0, 0] = emit[0, 0]
    if n_states > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, n_frames):
        prev = alpha[t - 1]
        step = np.full(n_states, NEG_INF)
        step[1:] = prev[:-1]
        acc = np.logaddexp(prev, step)
        skip = np.full(n_states, NEG_INF)
        skip[2:] = prev[:-2]
        acc = np.where(skip_ok, np.logaddexp(acc, skip), acc)
        alpha[t] = acc + emit[t]
    if n_states > 1:
        log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    else:
        log_p = alpha[-1, -1]

    beta = np.full((n_frames, n_states), NEG_INF)
    beta[-1, -1] = 0.0
    if n_states > 1:
        beta[-1, -2] = 0.0
    skip_out_ok = np.zeros(n_states, dtype=bool)
    if n_states > 2:
        skip_out_ok[:-2] = skip_ok[2:]
    for t in range(n_frames - 2, -1, -1):
        nxt = beta[t + 1] + emit[t + 1]
        step = np.full(n_states, NEG_INF)
        step[:-1] = nxt[1:]
        acc = np.logaddexp(nxt, step)
        skip = np.full(n_states, NEG_INF)
        if n_states > 2:
            skip[:-2] = nxt[2:]
        acc = np.where(skip_out_ok, np.logaddexp(acc, skip), acc)
        beta[t] = acc

    occupancy = alpha + beta
    log_gamma = np.full((n_frames, vocab), NEG_INF)
    for s, token in enumerate(ext):
        log_gamma[:, token] = np.logaddexp(log_gamma[:, token], occupancy[:, s])
    return float(-log_p), -np.exp(log_gamma - log_p)

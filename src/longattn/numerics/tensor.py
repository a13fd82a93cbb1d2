"""Tape-based reverse-mode autodiff over dense 2-D float64 arrays.

Every value is a matrix; vectors are 1xN or Nx1 matrices and scalars are
1x1 matrices. Operations never broadcast: shape combinations are explicit
per operation and mismatches raise ``DimensionError``. Each op appends a
weak reference to its result, which holds an exact analytic backward, to
the current tape. ``backward(loss)`` walks the tape newest first, summing
gradients into every reachable tensor with ``requires_grad``, and consumes
it: a graph is differentiated once, and a result recorded before an earlier
``backward`` passes no gradient. The tape keeps nothing alive.

Each grad_fn declares what it hands ``accumulate_grad``: an array it made fresh
for that one parent, which the parent keeps as its first gradient, or the
upstream gradient, a view of it, or one array for two parents, which is copied
(``add``, ``add_row``'s first parent, ``append_const_col``, ``concat``, ``frame_stack``).

All functions are pure and reentrant on disjoint tensors. The only shared
state is the current tape. ``no_grad`` swaps in no tape, so ops record nothing,
and ``recording`` swaps in an empty one of its own, which the memory-footprint
tool reads. Swapping is not thread-safe; reading is, so the attention workers
of ``multihead`` run ops under the tape their caller set and never swap it.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, ContextManager, Iterator, Sequence

import numpy as np

from ..errors import DimensionError, StateError
from .linalg import softmax_rows as _softmax

LAYER_NORM_EPS = 1e-12  # added to each row's variance in ``layer_norm_rows``

_tape: list[weakref.ref] | None = []  # recorded since its last backward, oldest first; None: off


@contextmanager
def _swap_tape(tape: list[weakref.ref] | None) -> Iterator[list[weakref.ref] | None]:
    global _tape
    previous, _tape = _tape, tape
    try:
        yield tape
    finally:
        _tape = previous


def no_grad() -> ContextManager[None]:
    """Record no tape inside the block: every result is a constant, so each
    intermediate is freed as soon as nothing refers to it, and ``backward``
    raises ``StateError``. Only here does attention run its row blocks on
    worker threads, which read this tape and never swap it. Not thread-safe."""
    return _swap_tape(None)


def recording() -> ContextManager[list[weakref.ref]]:
    """Record the block's ops on an empty tape of their own, yielded to the caller;
    none of them reaches the outer tape, and attention runs its row blocks in
    order on the calling thread. Not thread-safe."""
    return _swap_tape([])


def tape_is_on() -> bool:
    """Whether ops record on a tape: everywhere but inside ``no_grad``."""
    return _tape is not None


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_grad_fn", "__weakref__")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 grad_fn: Callable[[np.ndarray], None] | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D matrices, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._grad_fn = grad_fn

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def const(data) -> Tensor:
    """Tensor that does not participate in differentiation."""
    return Tensor(np.asarray(data, dtype=np.float64))


def param(data) -> Tensor:
    """Trainable tensor; gradient buffer starts at exactly zero."""
    t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
    t.zero_grad()
    return t


def pack(tensors: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """One flat data buffer and one flat gradient buffer whose consecutive
    slices are the ``data`` and ``grad`` of ``tensors``, in order. Tensors
    already laid out so keep their arrays; any other list is copied into new
    buffers, a missing grad as zeros, and each tensor is rebound to views.

    Keeping them saves more than a copy: every ``Adam`` packs its list again,
    and perfbench's train-short builds one per block over the same models. A
    ``pack`` that always copied raised that workload's ``peak_rss_mb`` from
    117.7 to 132.2-132.8 MB (+12%, seeds 301-302, 2-core x86-64 VM)."""
    offsets = list(accumulate((t.data.size for t in tensors), initial=0))
    spans = list(zip(tensors, offsets, offsets[1:]))
    if tensors and tensors[0].grad is not None:
        data, grads = tensors[0].data.base, tensors[0].grad.base
        if all(_is_view(t.data, data, a, offsets[-1]) and _is_view(t.grad, grads, a, offsets[-1])
               for t, a, _ in spans):
            return data, grads
    data, grads = np.empty(offsets[-1]), np.empty(offsets[-1])
    for t, a, b in spans:
        data[a:b] = t.data.ravel()
        grads[a:b] = 0.0 if t.grad is None else t.grad.ravel()
        t.data, t.grad = data[a:b].reshape(t.data.shape), grads[a:b].reshape(t.data.shape)
    return data, grads


def _is_view(arr, flat, start: int, size: int) -> bool:
    """Whether ``arr`` is a C-ordered view at ``start`` of ``flat``, 1-D with ``size`` elements."""
    return (isinstance(flat, np.ndarray) and flat.shape == (size,) and arr is not None
            and arr.base is flat and arr.flags.c_contiguous
            and arr.ctypes.data == flat.ctypes.data + start * flat.itemsize)


def make_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    grad_fn: Callable[[np.ndarray], None],
) -> Tensor:
    """Record one differentiable operation on the tape.

    ``grad_fn`` receives the upstream gradient and must accumulate into the
    parents via ``accumulate_grad``. The graph is pruned below constants, and
    nothing is recorded inside ``no_grad``.
    """
    if _tape is not None:
        for p in parents:
            if p.requires_grad:
                out = Tensor(data, requires_grad=True, grad_fn=grad_fn)
                _tape.append(weakref.ref(out))
                return out
    return Tensor(data)


def accumulate_grad(t: Tensor, g: np.ndarray, *, fresh: bool) -> None:
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif fresh:  # the grad_fn made ``g`` for ``t`` alone, so ``t`` may own it
        t.grad = g
    else:  # ``g`` is ``u``, a view of it, or reaches two parents: never alias it
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every reachable requires_grad tensor; consumes the tape."""
    if loss.data.shape != (1, 1):
        raise DimensionError(f"backward needs a 1x1 loss, got {loss.data.shape}")
    if _tape is None or not any(ref() is loss for ref in reversed(_tape)):
        raise StateError("backward needs a loss recorded on the current tape since its last backward")
    try:
        accumulate_grad(loss, np.ones((1, 1)), fresh=True)
        for ref in reversed(_tape):
            node = ref()
            if node is not None and node.grad is not None:
                node._grad_fn(node.grad)
    finally:
        _tape.clear()


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes differ: {a.data.shape} vs {b.data.shape}")

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(a, u, fresh=False)
        accumulate_grad(b, u, fresh=False)

    return make_op(a.data + b.data, (a, b), grad_fn)


def add_row(a: Tensor, v: Tensor) -> Tensor:
    """Add the 1xC row ``v`` to every row of the c x C matrix ``a``."""
    if v.data.shape != (1, a.data.shape[1]):
        raise DimensionError(f"add_row: {v.data.shape} is not a row of {a.data.shape}")

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(a, u, fresh=False)
        accumulate_grad(v, u.sum(axis=0, keepdims=True), fresh=True)

    return make_op(a.data + v.data, (a, v), grad_fn)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(a, u * c, fresh=True)

    return make_op(a.data * c, (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(a, u * mask, fresh=True)

    return make_op(np.maximum(a.data, 0.0), (a,), grad_fn)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions differ: {a.data.shape} x {b.data.shape}"
        )

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(a, u @ b.data.T, fresh=True)
        accumulate_grad(b, a.data.T @ u, fresh=True)

    return make_op(a.data @ b.data, (a, b), grad_fn)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b.T`` as one node: the GEMMs of ``matmul(a, transpose(b))``
    without the transpose node, and no gradient GEMM for a constant ``a``."""
    if a.data.shape[1] != b.data.shape[1]:
        raise DimensionError(
            f"matmul_t: inner dimensions differ: {a.data.shape} x {b.data.shape}.T"
        )

    def grad_fn(u: np.ndarray) -> None:
        if a.requires_grad:
            accumulate_grad(a, u @ b.data, fresh=True)
        accumulate_grad(b, (a.data.T @ u).T, fresh=True)

    return make_op(a.data @ b.data.T, (a, b), grad_fn)


def affine(x: Tensor, w: Tensor) -> Tensor:
    """The linear map ``[x, 1] @ w.T``, whose last column of ``w`` is the bias.

    One node for ``matmul(append_const_col(x), transpose(w))``, with the same
    GEMMs on the same arrays forward and backward. It computes no gradient
    for a constant ``x``.
    """
    if x.data.shape[1] + 1 != w.data.shape[1]:
        raise DimensionError(
            f"affine: {x.data.shape} input plus a bias column does not match "
            f"weights {w.data.shape}"
        )
    xa = np.empty((x.data.shape[0], x.data.shape[1] + 1))
    xa[:, :-1], xa[:, -1] = x.data, 1.0

    def grad_fn(u: np.ndarray) -> None:
        if x.requires_grad:
            accumulate_grad(x, (u @ w.data)[:, :-1], fresh=True)
        accumulate_grad(w, (xa.T @ u).T, fresh=True)

    return make_op(xa @ w.data.T, (x, w), grad_fn)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def append_const_col(x: Tensor, col: np.ndarray | float = 1.0) -> Tensor:
    """Append one non-trainable column to the right of ``x``.

    ``col`` is the column itself or a scalar that fills it; the default
    constant 1 is the bias input augmentation.
    """
    col = np.asarray(col, dtype=np.float64)
    if col.ndim and col.size != x.data.shape[0]:
        raise DimensionError(
            f"append_const_col: column length {col.size} vs {x.data.shape[0]} rows"
        )
    out = np.empty((x.data.shape[0], x.data.shape[1] + 1))
    out[:, :-1], out[:, -1] = x.data, col.ravel()

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(x, u[:, :-1], fresh=False)

    return make_op(out, (x,), grad_fn)


def slice_rows(x: Tensor, rows: slice) -> Tensor:
    """Rows ``rows`` of ``x`` (a view); ``x`` itself when they are all of its rows."""
    n = x.data.shape[0]
    if rows.indices(n) == (0, n, 1):
        return x

    def grad_fn(u: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        dx[rows] = u
        accumulate_grad(x, dx, fresh=True)

    return make_op(x.data[rows], (x,), grad_fn)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join ``parts`` top to bottom (``axis`` 0) or left to right (``axis`` 1);
    a single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    shapes = [p.data.shape for p in parts]
    if len({shape[1 - axis] for shape in shapes}) != 1:
        raise DimensionError(f"concat along axis {axis}: other extents differ: {shapes}")
    offsets = np.cumsum([0] + [shape[axis] for shape in shapes])

    def grad_fn(u: np.ndarray) -> None:
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            accumulate_grad(p, u[a:b] if axis == 0 else u[:, a:b], fresh=False)

    return make_op(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), grad_fn)


def frame_stack(x: Tensor, factor: int) -> Tensor:
    """Stack every ``factor`` consecutive rows into one row, zero-padding the tail.

    (T, F) -> (ceil(T/factor), factor*F); row t holds rows [t*factor, (t+1)*factor).
    """
    t_in, f_in = x.data.shape
    n_out = -(-t_in // factor)
    pad = n_out * factor - t_in
    padded = np.concatenate([x.data, np.zeros((pad, f_in))], axis=0) if pad else x.data
    out = padded.reshape(n_out, factor * f_in).copy()

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(x, u.reshape(n_out * factor, f_in)[:t_in], fresh=False)

    return make_op(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# fused row-wise ops
# ---------------------------------------------------------------------------


def softmax_rows(x: Tensor, *, fresh: bool = False) -> Tensor:
    """Row softmax. With ``fresh`` (as to ``accumulate_grad``) nothing else reads ``x``'s
    array, its op's backward included, so the weights overwrite it and are a view of it."""
    p = _softmax(x.data, x.data[...] if fresh else None)

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(x, p * (u - np.add.reduce(u * p, axis=1, keepdims=True)), fresh=True)

    return make_op(p, (x,), grad_fn)


def log_softmax_rows(x: Tensor) -> Tensor:
    m = x.data.max(axis=1, keepdims=True)
    shifted = x.data - m
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - logz
    p = np.exp(out)

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(x, u - p * u.sum(axis=1, keepdims=True), fresh=True)

    return make_op(out, (x,), grad_fn)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then gain and bias.

    ``gain`` and ``bias`` are 1xC and apply to every row.
    """
    n = x.data.shape[1]
    if gain.data.shape != (1, n) or bias.data.shape != (1, n):
        raise DimensionError(
            f"layer_norm_rows: gain {gain.data.shape}, bias {bias.data.shape} "
            f"do not match row width {n}"
        )
    # np.add.reduce, then a division by the count, is what ``ndarray.mean`` does
    mu = np.add.reduce(x.data, axis=1, keepdims=True) / n
    centered = x.data - mu
    var = np.add.reduce(centered * centered, axis=1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    out = xhat * gain.data + bias.data

    def grad_fn(u: np.ndarray) -> None:
        du = u * gain.data
        # d/dx of (x - mu) * inv_std with mu, var functions of x
        dvar = np.add.reduce(du * centered, axis=1, keepdims=True) * (-0.5) * inv_std**3
        dmu = np.add.reduce(du, axis=1, keepdims=True) * (-inv_std)
        dx = du * inv_std + dvar * 2.0 * centered / n + dmu / n
        accumulate_grad(x, dx, fresh=True)
        accumulate_grad(gain, np.add.reduce(u * xhat, axis=0, keepdims=True), fresh=True)
        accumulate_grad(bias, np.add.reduce(u, axis=0, keepdims=True), fresh=True)

    return make_op(out, (x, gain, bias), grad_fn)

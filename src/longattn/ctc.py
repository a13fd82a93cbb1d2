"""CTC loss (log-space forward-backward), brute-force oracle, greedy decoding,
and edit distance.

Token id 0 is the blank everywhere. ``ctc_loss`` treats the lattice entries
as free log-scores: the analytic gradient is exact for the unnormalized
marginal-likelihood function, which is what finite differences probe.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import ConfigError, InfeasibleAlignmentError, SizeError
from .numerics.linalg import as_matrix
from .numerics.tensor import Tensor, accumulate_grad, make_op

BLANK_ID = 0

BRUTE_FORCE_BUDGET = 10**7

NEG_INF = -np.inf


def validate_labels(labels: Sequence[int], vocab: int) -> list[int]:
    labels = [int(t) for t in labels]
    for t in labels:
        if not (1 <= t < vocab):
            raise ConfigError(
                f"label {t} outside the token range [1, {vocab - 1}] (0 is blank)"
            )
    return labels


def min_frames_required(labels: Sequence[int]) -> int:
    """Shortest lattice that can emit ``labels``: one frame per token plus a
    blank between equal neighbours."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _extended_labels(labels: Sequence[int]) -> np.ndarray:
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    return ext


def ctc_loss(lattice, labels: Sequence[int]) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of ``labels`` and its gradient w.r.t. the lattice.

    The lattice is an L x vocab matrix of per-frame log-probabilities. Raises
    ``InfeasibleAlignmentError`` when no alignment exists instead of returning
    a large float.
    """
    y = as_matrix(lattice)
    n_frames, vocab = y.shape
    labels = validate_labels(labels, vocab)
    if min_frames_required(labels) > n_frames:
        raise InfeasibleAlignmentError(min_frames_required(labels), n_frames)

    ext = _extended_labels(labels)
    n_states = ext.shape[0]
    # skip transition s-2 -> s allowed into non-blank states that differ from
    # the token two steps back
    skip_ok = np.zeros(n_states, dtype=bool)
    skip_ok[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])

    emit = y[:, ext]  # (n_frames, n_states)

    # Two -inf pad columns (left of alpha's rows, right of beta's next-frame
    # row) make the one- and two-state shifts plain views, so a frame costs a
    # few ``out=`` calls and no allocation. ``where=`` leaves the states
    # without a skip untouched, as ``np.where(ok, logaddexp(acc, skip), acc)``
    # would, for every input.
    alpha_pad = np.full((n_frames, n_states + 2), NEG_INF)
    alpha = alpha_pad[:, 2:]
    alpha[0, :2] = emit[0, :2]
    for t in range(1, n_frames):
        prev = alpha_pad[t - 1]
        acc = alpha[t]
        np.logaddexp(prev[2:], prev[1:-1], out=acc)
        np.logaddexp(acc, prev[:-2], out=acc, where=skip_ok)
        acc += emit[t]

    # with no labels there is one final state, and alpha_pad[-1, -2] is a -inf pad
    log_p = np.logaddexp(alpha_pad[-1, -1], alpha_pad[-1, -2])

    # transition s -> s+2 allowed iff the skip into state s+2 is allowed
    skip_out_ok = np.zeros(n_states, dtype=bool)
    skip_out_ok[:-2] = skip_ok[2:]
    beta = np.full((n_frames, n_states), NEG_INF)
    beta[-1, -2:] = 0.0
    nxt_pad = np.full(n_states + 2, NEG_INF)
    nxt = nxt_pad[:-2]
    for t in range(n_frames - 2, -1, -1):
        np.add(beta[t + 1], emit[t + 1], out=nxt)
        acc = beta[t]
        np.logaddexp(nxt, nxt_pad[1:-1], out=acc)
        np.logaddexp(acc, nxt_pad[2:], out=acc, where=skip_out_ok)

    occupancy = alpha + beta  # log joint of passing through (t, s)
    log_gamma = np.full((n_frames, vocab), NEG_INF)
    for s, token in enumerate(ext):
        column = log_gamma[:, token]
        np.logaddexp(column, occupancy[:, s], out=column)
    log_gamma -= log_p
    grad = np.exp(log_gamma, out=log_gamma)
    np.negative(grad, out=grad)
    return float(-log_p), grad


def ctc_loss_op(lattice: Tensor, labels: Sequence[int]) -> Tensor:
    """CTC loss as a differentiable graph node over a lattice tensor."""
    loss, grad = ctc_loss(lattice.data, labels)

    def grad_fn(u: np.ndarray) -> None:
        accumulate_grad(lattice, u[0, 0] * grad, fresh=True)

    return make_op(np.array([[loss]]), (lattice,), grad_fn)


def collapse_frames(frames: Sequence[int]) -> list[int]:
    """Merge consecutive repeats, then drop blanks."""
    out: list[int] = []
    prev = None
    for f in frames:
        if f != prev and f != BLANK_ID:
            out.append(int(f))
        prev = f
    return out


def ctc_brute_force(lattice, labels: Sequence[int]) -> float:
    """Loss by enumerating every frame labeling whose collapse equals ``labels``."""
    y = as_matrix(lattice)
    n_frames, vocab = y.shape
    labels = validate_labels(labels, vocab)
    if vocab**n_frames > BRUTE_FORCE_BUDGET:
        raise SizeError(
            f"brute force needs {vocab}^{n_frames} paths, over the "
            f"{BRUTE_FORCE_BUDGET} budget"
        )
    target = list(labels)
    log_p = NEG_INF
    for path in itertools.product(range(vocab), repeat=n_frames):
        if collapse_frames(path) == target:
            log_p = np.logaddexp(log_p, sum(y[t, k] for t, k in enumerate(path)))
    return float(-log_p)


def greedy_decode(lattice) -> list[int]:
    """Per-frame argmax, collapse repeats, drop blanks."""
    y = as_matrix(lattice)
    return collapse_frames(np.argmax(y, axis=1))


def edit_distance(hyp: Sequence[int], ref: Sequence[int]) -> int:
    """Levenshtein distance with unit substitution/deletion/insertion costs.

    Row DP vectorized over the longer sequence: substitution and deletion
    are elementwise; the insertion chain cur[j] = min_k<=j (cur[k] + j - k)
    is one running minimum of cur - j.
    """
    short, long_ = (hyp, ref) if len(hyp) <= len(ref) else (ref, hyp)
    seq = np.asarray(long_, dtype=np.int64)
    cols = np.arange(len(seq) + 1)
    prev = cols
    cur = np.empty_like(cols)
    for i, token in enumerate(short, start=1):
        cur[0] = i
        np.minimum(prev[:-1] + (seq != token), prev[1:] + 1, out=cur[1:])
        prev = np.minimum.accumulate(cur - cols) + cols
    return int(prev[-1])

"""Adaptive-moment first-order optimizer with bias correction."""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from ..errors import ConfigError
from . import linalg
from .tensor import Tensor

# The moments' decay rates, and the term added to sqrt(v) before dividing by it.
BETAS, EPS = (0.9, 0.999), 1e-8


class Adam:
    """Adam over a fixed parameter list.

    The moments live in two flat buffers; ``first[i]`` and ``second[i]`` are
    views of them shaped like ``params[i]``. Each step gathers the gradients
    of a run of consecutive parameters into one scratch row and updates the
    run with in-place passes, in the same IEEE operations per element as the
    per-tensor expression ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``. The
    parameter arrays stay owned by their tensors and are updated in place.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        offsets = list(accumulate((p.data.size for p in self.params), initial=0))
        self._m = np.zeros(offsets[-1])
        self._v = np.zeros(offsets[-1])
        spans = list(zip(self.params, offsets[:-1], offsets[1:]))
        self.first = [self._m[a:b].reshape(p.data.shape) for p, a, b in spans]
        self.second = [self._v[a:b].reshape(p.data.shape) for p, a, b in spans]
        # Runs of whole consecutive parameters of at most a quarter chunk of
        # elements (a larger parameter is a run of its own), so a run's
        # moments, gradients and step stay in L2 cache between the passes.
        # Each run is [lo, hi, [(param, start, stop)]] over [lo, hi) of the
        # flat buffers, with start and stop relative to lo.
        group = linalg.CHUNK_ELEMENTS // 4
        self._groups: list[list] = []
        for p, a, b in spans:
            if not self._groups or b - self._groups[-1][0] > group:
                self._groups.append([a, a, []])
            run = self._groups[-1]
            run[1] = b
            run[2].append((p, a - run[0], b - run[0]))
        width = max((hi - lo for lo, hi, _ in self._groups), default=0)
        self._grad = np.empty(width)
        self._step = np.empty(width)

    def step(self) -> None:
        """One update from the accumulated gradients; grads are left untouched.
        A parameter whose grad is None is updated as if its gradient were zero."""
        b1, b2 = BETAS
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - b1**t
        c2 = 1.0 - b2**t
        for lo, hi, members in self._groups:
            m, v = self._m[lo:hi], self._v[lo:hi]
            g, s = self._grad[:hi - lo], self._step[:hi - lo]
            for p, a, b in members:
                if p.grad is None:
                    g[a:b] = 0.0
                else:
                    g[a:b] = p.grad.ravel()
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, g, out=s)
            s *= 1.0 - b2
            v += s
            np.divide(m, c1, out=s)
            np.divide(v, c2, out=g)
            np.sqrt(g, out=g)
            g += EPS
            s *= self.lr
            s /= g
            for p, a, b in members:
                p.data -= s[a:b].reshape(p.data.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

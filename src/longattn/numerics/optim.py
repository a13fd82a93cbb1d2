"""Adaptive-moment first-order optimizer with bias correction."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError
from . import linalg
from .tensor import Tensor, pack

# The moments' decay rates, and the term added to sqrt(v) before dividing by it.
BETAS, EPS = (0.9, 0.999), 1e-8
SPAN = linalg.CHUNK_ELEMENTS // 4  # elements per span of the update's passes


class Adam:
    """Adam over a fixed parameter list, laid out by ``pack`` in one flat data
    and one flat gradient buffer (a model from ``init_model`` already is). The
    moments ``first`` and ``second`` are flat buffers of the same layout. Each
    step runs in-place passes over one cache-sized span at a time, in the same
    IEEE operations per element as ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.step_count = 0
        self._data, self._grads = pack(params)
        self.first = np.zeros_like(self._data)
        self.second = np.zeros_like(self._data)
        self._step, self._denom = np.empty((2, min(SPAN, self._data.size)))

    def step(self) -> None:
        """One update from the accumulated gradients; grads are left untouched."""
        b1, b2 = BETAS
        self.step_count += 1
        c1, c2 = 1.0 - b1**self.step_count, 1.0 - b2**self.step_count
        for lo in range(0, self._data.size, SPAN):
            p, g, m, v = (a[lo:lo + SPAN] for a in (self._data, self._grads, self.first, self.second))
            s, d = self._step[:g.size], self._denom[:g.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, g, out=s)
            s *= 1.0 - b2
            v += s
            np.divide(m, c1, out=s)
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += EPS
            s *= self.lr
            s /= d
            p -= s

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

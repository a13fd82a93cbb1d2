"""Adaptive-moment first-order optimizer with bias correction."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError
from .tensor import Tensor


class Adam:
    """Adam over a fixed parameter list, one pair of moment buffers per tensor."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.first = [np.zeros_like(p.data) for p in self.params]
        self.second = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self) -> None:
        """One update from the accumulated gradients; grads are left untouched."""
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

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

"""Finite-difference gradient verification."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import EvaluationError
from .tensor import Tensor, backward, no_grad

EPS = 1e-4  # the central-difference step


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        value = value.item()
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(f"objective evaluated to a non-finite value: {value}")
    return value


def finite_diff_grad(f: Callable[[], object], p: Tensor) -> np.ndarray:
    """Central-difference gradient of the scalar ``f()`` w.r.t. every entry of ``p``.

    ``f`` must recompute its forward pass from the current contents of ``p``.
    ``p.data`` is restored exactly after each probe. The probes record no tape.
    """
    grad = np.zeros_like(p.data)
    it = np.nditer(p.data, flags=["multi_index"])
    with no_grad():
        for _ in it:
            idx = it.multi_index
            original = p.data[idx]
            p.data[idx] = original + EPS
            hi = _scalar(f())
            p.data[idx] = original - EPS
            lo = _scalar(f())
            p.data[idx] = original
            grad[idx] = (hi - lo) / (2.0 * EPS)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| scaled by the largest gradient magnitude present."""
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-10)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def check_gradients(f: Callable[[], Tensor],
                    params: Sequence[tuple[str, Tensor]]) -> dict[str, float]:
    """Compare tape gradients of ``f()`` against central differences.

    Returns the max relative error per parameter name. Gradient buffers of
    the given parameters are reset before the analytic pass.
    """
    for _, p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    errors: dict[str, float] = {}
    for name, p in params:
        analytic = p.grad.copy()
        numeric = finite_diff_grad(f, p)
        errors[name] = max_relative_error(analytic, numeric)
    return errors

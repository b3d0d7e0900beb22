"""Central finite-difference oracle for the reverse-mode engine.

``build_loss`` must be a deterministic zero-argument callable that rebuilds
the forward graph from the current parameter values and returns a scalar
Tensor. The check perturbs every parameter entry by +-h and compares the
analytic gradient of one recorded pass against (f(x+h) - f(x-h)) / 2h.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, recording


def _loss_value(build_loss: Callable[[], Tensor]) -> float:
    out = build_loss()
    if out.data.size != 1:
        raise ValueError(f"gradcheck: loss must be scalar, got shape {out.shape}")
    return float(out.data.reshape(()))


def finite_difference_gradients(
    build_loss: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Numeric gradient of the loss w.r.t. each tensor in params."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = _loss_value(build_loss)
            flat[i] = keep - h
            fm = _loss_value(build_loss)
            flat[i] = keep
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(
    build_loss: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Worst-case relative disagreement between analytic and numeric grads.

    The denominator is max(1, |analytic|, |numeric|) entrywise, so entries
    near zero are compared absolutely instead of blowing up the ratio.
    """
    for p in params:
        if not p.requires_grad:
            raise ValueError("gradcheck: every checked tensor must require gradients")
        p.grad = np.zeros_like(p.data)
    with recording():
        loss = build_loss()
        if loss.data.size != 1:
            raise ValueError(f"gradcheck: loss must be scalar, got shape {loss.shape}")
        loss.backward()
    analytic = [np.array(p.grad, copy=True) for p in params]
    numeric = finite_difference_gradients(build_loss, params, h=h)

    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        err = np.abs(a - n) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst

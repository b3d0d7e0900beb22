"""Adam with bias correction, the two learning-rate schedules (cosine
annealing with warm restarts, and step decay), and fit(), the one training
loop every model in the package runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .tensor import Parameter


@dataclass
class TrainHistory:
    """Per-epoch traces recorded by fit()."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    best_epoch: int = -1


@dataclass
class AdamState:
    """First/second moment estimates and the shared step counter."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_adam(params: Sequence[Parameter]) -> AdamState:
    """Zero moment estimates for each parameter, default decay rates."""
    return AdamState(
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
    )


def adam_step(params: Sequence[Parameter], state: AdamState, lr: float) -> None:
    """One in-place Adam update from the parameters' current gradients."""
    if lr <= 0.0:
        raise ValueError(f"adam_step: learning rate must be positive, got {lr}")
    if len(state.m) != len(params):
        raise ValueError(
            f"adam_step: state tracks {len(state.m)} parameters, got {len(params)}"
        )
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            raise ValueError(f"adam_step: parameter {p.name!r} has no gradient buffer")
        if g.shape != p.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {g.shape} != parameter shape {p.data.shape}"
            )
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass(frozen=True)
class CosineAnnealing:
    """lr_min + (lr0 - lr_min) * (1 + cos(pi * (epoch mod period) / period)) / 2."""

    lr0: float
    period: int
    lr_min: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"cosine annealing: period must be positive, got {self.period}")
        if self.lr0 <= self.lr_min:
            raise ValueError("cosine annealing: need lr0 > lr_min")


@dataclass(frozen=True)
class StepDecay:
    """lr0 * factor ** floor(epoch / every)."""

    lr0: float
    factor: float
    every: int

    def __post_init__(self):
        if self.every <= 0:
            raise ValueError(f"step decay: 'every' must be positive, got {self.every}")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"step decay: factor must be in (0, 1], got {self.factor}")
        if self.lr0 <= 0.0:
            raise ValueError(f"step decay: lr0 must be positive, got {self.lr0}")


Schedule = Union[CosineAnnealing, StepDecay]


def lr_at(schedule: Schedule, epoch: int) -> float:
    """Learning rate for a (0-based) epoch; always strictly positive."""
    if epoch < 0:
        raise ValueError(f"lr_at: epoch must be non-negative, got {epoch}")
    if isinstance(schedule, CosineAnnealing):
        phase = epoch % schedule.period
        lr = schedule.lr_min + (schedule.lr0 - schedule.lr_min) * (
            1.0 + math.cos(math.pi * phase / schedule.period)
        ) / 2.0
    elif isinstance(schedule, StepDecay):
        lr = schedule.lr0 * schedule.factor ** (epoch // schedule.every)
    else:
        raise TypeError(f"lr_at: unknown schedule type {type(schedule).__name__}")
    if lr <= 0.0:
        raise ValueError(f"lr_at: schedule emitted a non-positive rate {lr} at epoch {epoch}")
    return lr


# A batch generator yields (scalar loss Tensor, weight of the batch in the
# epoch mean), for example (loss, rows in the batch).
Batches = Iterable[tuple]


def _epoch_mean(batches: Batches, where: str, step: Optional[Callable] = None) -> float:
    """Weighted mean batch loss; `step(loss)` runs after each batch's check."""
    total, count = 0.0, 0
    for i, (loss, weight) in enumerate(batches):
        value = float(loss.data.reshape(()))
        if not math.isfinite(value):
            raise RuntimeError(f"fit: loss diverged to {value} at {where}, batch {i}")
        if step is not None:
            step(loss)
        total += value * weight
        count += weight
    if count == 0:
        raise ValueError(f"fit: no batches at {where}")
    return total / count


def fit(
    params: Sequence[Parameter],
    schedule: Schedule,
    epochs: int,
    rng: np.random.Generator,
    n_train: int,
    train_batches: Callable[[np.ndarray], Batches],
    val_batches: Optional[Callable[[], Batches]] = None,
) -> TrainHistory:
    """Adam on `params` over `epochs` epochs; returns the loss history.

    Each epoch draws one permutation of the n_train training rows from
    `rng` and trains on train_batches(order): every batch loss is checked
    to be finite, then only `params` are zeroed, back-propagated into and
    stepped. With val_batches the parameters of the epoch with the lowest
    validation loss are restored at the end; without it the last epoch's
    parameters stay and count as the best epoch.
    """
    params = list(params)
    state = init_adam(params)
    history = TrainHistory()
    best_val, best = math.inf, None
    for epoch in range(epochs):
        lr = lr_at(schedule, epoch)

        def step(loss):
            for p in params:
                p.zero_grad()
            loss.backward()
            adam_step(params, state, lr)

        order = rng.permutation(n_train)
        history.train_loss.append(
            _epoch_mean(train_batches(order), f"epoch {epoch} (lr {lr}), training", step)
        )
        history.lrs.append(lr)
        if val_batches is None:
            continue
        val = _epoch_mean(val_batches(), f"epoch {epoch} (lr {lr}), validation")
        history.val_loss.append(val)
        if val < best_val:
            best_val, best = val, [p.data.copy() for p in params]
            history.best_epoch = epoch
    if best is None:
        history.best_epoch = epochs - 1
    else:
        for p, data in zip(params, best):
            p.data = data
    return history

"""Adam with bias correction, the two learning-rate schedules (cosine
annealing with warm restarts, and step decay), and fit(), the one training
loop every model in the package runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .tensor import Parameter, recording


@dataclass
class TrainHistory:
    """Per-epoch traces recorded by fit()."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    best_epoch: int = -1


def _empty() -> np.ndarray:
    return np.zeros(0)


@dataclass
class AdamState:
    """The parameter arena of one fit(): every parameter's data and gradient
    are views into the flat float64 buffers `data` and `grad`, and the
    moment estimates `m` and `v` run beside them. `views` holds each
    parameter's (data view, gradient view), in the order init_adam was
    given, which is also their order in the buffers."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    data: np.ndarray = field(default_factory=_empty)
    grad: np.ndarray = field(default_factory=_empty)
    m: np.ndarray = field(default_factory=_empty)
    v: np.ndarray = field(default_factory=_empty)
    views: list = field(default_factory=list)


def init_adam(params: Sequence[Parameter]) -> AdamState:
    """Copy every parameter and its gradient into one arena, rebind p.data
    and p.grad as views into it, and zero the moments. A parameter listed
    twice is refused: its two views would drift apart."""
    seen = set()
    for p in params:
        if id(p) in seen:
            raise ValueError(f"init_adam: parameter {p.name!r} is listed twice")
        seen.add(id(p))
    n = sum(p.data.size for p in params)
    state = AdamState(data=np.empty(n), grad=np.zeros(n), m=np.zeros(n), v=np.zeros(n))
    lo = 0
    for p in params:
        hi = lo + p.data.size
        data = state.data[lo:hi].reshape(p.data.shape)
        grad = state.grad[lo:hi].reshape(p.data.shape)
        data[...] = p.data
        if p.grad is not None:
            grad[...] = p.grad
        p.data, p.grad = data, grad
        state.views.append((data, grad))
        lo = hi
    return state


def _adopt(p: Parameter, attr: str, view: np.ndarray) -> None:
    """Copy a rebound p.data or p.grad into its arena view and rebind it."""
    value = getattr(p, attr)
    if value is view:
        return
    if value is None:
        raise ValueError(f"adam_step: parameter {p.name!r} has no gradient buffer")
    if value.shape != view.shape:
        what = "gradient" if attr == "grad" else "data"
        raise ValueError(
            f"adam_step: {what} shape {value.shape} != parameter shape {view.shape}"
        )
    view[...] = value
    setattr(p, attr, view)


def adam_step(params: Sequence[Parameter], state: AdamState, lr: float) -> None:
    """One in-place Adam update from the parameters' current gradients, run
    once over the whole arena. A p.data or p.grad rebound since the last
    step is copied into the arena first; a non-finite gradient is an error
    naming the parameter that holds the first one."""
    if lr <= 0.0:
        raise ValueError(f"adam_step: learning rate must be positive, got {lr}")
    if len(state.views) != len(params):
        raise ValueError(
            f"adam_step: state tracks {len(state.views)} parameters, got {len(params)}"
        )
    for p, (data, grad) in zip(params, state.views):
        _adopt(p, "data", data)
        _adopt(p, "grad", grad)
    g = state.grad
    if not np.isfinite(g).all():
        # The views lie in buffer order, so the first bad view holds the first bad value.
        p = next(p for p, (_, grad) in zip(params, state.views) if not np.isfinite(grad).all())
        raise ValueError(
            f"adam_step: non-finite gradient in parameter {p.name!r} at step {state.step + 1}"
        )
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    # data -= lr * (m / c1) / (sqrt(v / c2) + eps) with m = b1 * m + (1 - b1) * g
    # and v = b2 * v + (1 - b2) * (g * g), one in-place operation at a time:
    # each element gets the float of that expression.
    m, v = state.m, state.v
    step, denom = np.empty_like(g), np.empty_like(g)
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    v += np.multiply(np.multiply(g, g, out=step), 1.0 - b2, out=step)
    np.multiply(np.divide(m, c1, out=step), lr, out=step)
    np.add(np.sqrt(np.divide(v, c2, out=denom), out=denom), state.eps, out=denom)
    state.data -= np.divide(step, denom, out=step)


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
    `rng` and trains on train_batches(order) inside one recording() block:
    every batch loss is checked to be finite, then only `params` are zeroed,
    back-propagated into and stepped; validation records nothing. With
    val_batches the parameters of the epoch with the lowest validation loss
    are restored at the end; without it the last epoch's parameters stay and
    count as the best epoch.

    `params` live in one arena (init_adam) for the whole call and stay views
    into it afterwards: zeroing the gradients is one fill, and the
    best-epoch snapshot and its restore are one copy each.
    """
    params = list(params)
    state = init_adam(params)
    history = TrainHistory()
    best_val, best = math.inf, None
    for epoch in range(epochs):
        lr = lr_at(schedule, epoch)

        def step(loss):
            state.grad.fill(0.0)
            loss.backward()
            adam_step(params, state, lr)

        order = rng.permutation(n_train)
        with recording():  # open while the generator builds each loss in next()
            train = _epoch_mean(train_batches(order), f"epoch {epoch} (lr {lr}), training", step)
        history.train_loss.append(train)
        history.lrs.append(lr)
        if val_batches is None:
            continue
        val = _epoch_mean(val_batches(), f"epoch {epoch} (lr {lr}), validation")
        history.val_loss.append(val)
        if val < best_val:
            best_val, best = val, state.data.copy()
            history.best_epoch = epoch
    if best is None:
        history.best_epoch = epochs - 1
    else:
        state.data[...] = best
    return history

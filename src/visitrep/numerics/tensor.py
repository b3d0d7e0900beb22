"""Reverse-mode automatic differentiation over float64 numpy arrays.

Inside ``recording()`` an op records one node on the open tape: edges
``(parent, position)`` to the parents that need gradients, and one
vector-Jacobian function that returns a gradient for every parent, in
parent order. ``backward()`` walks the tape in reverse creation order,
calls each node's VJP once, adds its gradients along the edges, drops the
node's edges and VJP as it passes, and empties the tape: a loss is
back-propagated once. Outside the block an op records nothing. All
arithmetic is float64; checkpointing elsewhere narrows to float32, never
this module.

The one operator is ``+``, which is ``add`` between two tensors. Any other
operand (a float, an array) or operator is a ``TypeError``; products go
through ``matmul`` and ``mul``, scalars through ``scale`` and ``shift``.

Every value is checked for finiteness once, where it is made: as a leaf
(``Tensor(...)``), as an op's output (``_make_node``) or as loaded state
(``load_state``), so kernels trust their inputs. ``masked_fill`` is the one
exception: its ``-inf`` entries exist by contract for ``softmax``, and its
other entries were checked where they were made. An op's error names the
op, the output shape and any ``Parameter`` among its direct inputs, e.g.
``matmul: NaN in output (32, 7, 32); inputs include parameter 'layer0.wqkv'``.

Six fused kernels each record one node for a chain of the elementary ones,
with a hand-written VJP: ``causal_attention``, ``add_layer_norm``,
``linear`` and ``binary_xent``, and the two recurrent kernels ``gru_sweep``
(every state of one GRU direction) and ``gru_decode`` (a GRU decoder with
its output projection and teacher forcing), whose VJPs run
backpropagation through time. ``causal_attention`` takes packed rows and
each patient's row count, and pads only inside: the slot, causal and
padding masks are derived from the counts there, its ``-inf`` scores for
blocked keys never leave the kernel, and its output is finite-checked like
any other op's.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_tape: list | None = None  # the open tape's nodes in creation order, or None


@contextmanager
def recording():
    """Hold the tape open for the block; a tape is never opened inside another."""
    global _tape
    if _tape is not None:
        raise RuntimeError("recording: a tape is already open")
    _tape = []
    try:
        yield
    finally:
        _tape = None


def _check_finite(data: np.ndarray, op: str, what: str, inputs=()) -> None:
    """One pass over `data` when it is finite. The error, built only on
    failure, says NaN whenever one is present and names every Parameter
    among `inputs`."""
    if np.isfinite(data).all():
        return
    kind = "NaN" if np.isnan(data).any() else "inf"
    names = [f"parameter {t.name!r}" for t in inputs if isinstance(t, Parameter)]
    origin = f"; inputs include {', '.join(names)}" if names else ""
    raise ValueError(f"{op}: {kind} in {what} {data.shape}{origin}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A float64 array plus what backward needs of the node that made it:
    `_vjps`, the (parent, position) edges to the parents that need a
    gradient, and `_vjp`, which maps this tensor's gradient to one gradient
    per parent, in parent order."""

    __slots__ = ("data", "grad", "requires_grad", "_vjps", "_vjp")
    __array_ufunc__ = None  # numpy defers, so an array operand is a TypeError too

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor", "value")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        # Populated only by _make_node.
        self._vjps: tuple = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make_node(op: str, data: np.ndarray, parents: tuple, vjp) -> "Tensor":
        if op != "masked_fill":
            _check_finite(data, op, "output", parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        edges = () if _tape is None else tuple((p, i) for i, p in enumerate(parents) if p.requires_grad)
        out._vjps = edges
        out._vjp = vjp if edges else None
        out.requires_grad = bool(edges)
        if edges:
            _tape.append(out)
        return out

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad, then
        empty the tape: an existing gradient array is added into in place, so
        a parameter's gradient stays a view into its arena. Each node's
        edges, VJP and gradients are dropped as the walk passes it, so the
        step's intermediates are freed during its own backward."""
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if _tape is None or self not in _tape:
            raise ValueError("backward: the loss is not on the open tape of recording(), "
                             "which must open before any forward computation")
        self.grad = np.ones_like(self.data)
        for node in reversed(_tape):
            g, node.grad = node.grad, None  # needed once; freed eagerly
            edges, node._vjps = node._vjps, ()
            vjp, node._vjp = node._vjp, None
            if g is None:
                continue
            grads = vjp(g)
            for parent, i in edges:
                if parent.grad is None:
                    parent.grad = np.array(grads[i], dtype=np.float64, copy=True)
                else:
                    parent.grad += grads[i]
            del grads  # freed before the next node's VJP runs
        _tape.clear()

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else NotImplemented


class Parameter(Tensor):
    """A named trainable leaf; its gradient buffer persists across steps."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def load_state(params, arrays: dict) -> None:
    """Set each parameter to the {name: array} entry of its name, as float64;
    a missing name, a wrong shape or a non-finite entry is an error."""
    for p in params:
        if p.name not in arrays:
            raise ValueError(f"state: missing parameter {p.name!r}")
        value = arrays[p.name]
        if value.shape != p.data.shape:
            raise ValueError(
                f"state: parameter {p.name!r} has shape {value.shape}, expected {p.data.shape}"
            )
        value = np.array(value, dtype=np.float64)
        _check_finite(value, "state", f"parameter {p.name!r}")
        p.data = value


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform[-1/sqrt(fan_in), +1/sqrt(fan_in)] initial values."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


# -- kernels -------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} are not broadcastable")
    return Tensor._make_node(
        "add", out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} are not broadcastable")
    ad, bd = a.data, b.data

    def vjp(g):
        return (
            _unbroadcast(g * bd, ad.shape) if a.requires_grad else None,
            _unbroadcast(g * ad, bd.shape) if b.requires_grad else None,
        )

    return Tensor._make_node("mul", out, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return Tensor._make_node("scale", a.data * s, (a,), lambda g: (g * s,))


def shift(a: Tensor, s: float) -> Tensor:
    return Tensor._make_node("shift", a.data + float(s), (a,), lambda g: (g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: operands must be at least 2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)
    ad, bd = a.data, b.data

    def vjp(g):
        return (
            _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape) if a.requires_grad else None,
            _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape) if b.requires_grad else None,
        )

    return Tensor._make_node("matmul", out, (a, b), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat: empty tensor list")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ValueError(f"concat: incompatible shapes {shapes} along axis {axis}")
    ends = np.cumsum([t.shape[axis] for t in tensors[:-1]])
    return Tensor._make_node("concat", out, tensors, lambda g: np.split(g, ends, axis=axis))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so each branch
    # runs the stable expression of its sign and never overflows.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return Tensor._make_node("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor._make_node("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0.0
    return Tensor._make_node("relu", out, (a,), lambda g: (g * mask,))


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis. -inf logits (from masked_fill)
    contribute exactly zero probability; a fully masked row is an error."""
    x = a.data
    m = np.max(x, axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise ValueError("softmax: a row is fully masked (all logits are -inf)")
    e = np.exp(x - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return Tensor._make_node("softmax", out, (a,), vjp)


def masked_fill(a: Tensor, mask: np.ndarray) -> Tensor:
    """Set entries where mask is True to -inf (for consumption by softmax)."""
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise ValueError(f"masked_fill: mask must be boolean, got dtype {mask.dtype}")
    if mask.shape != a.shape:
        raise ValueError(f"masked_fill: mask shape {mask.shape} != logits shape {a.shape}")
    out = np.where(mask, -np.inf, a.data)
    keep = ~mask
    return Tensor._make_node("masked_fill", out, (a,), lambda g: (g * keep,))


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance (no affine)."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = (x - mu) * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * out).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - out * gym),)

    return Tensor._make_node("layer_norm", out, (a,), vjp)


def mean(a: Tensor, axis: int) -> Tensor:
    count = a.data.shape[axis]
    out = np.add.reduce(a.data, axis) / count  # a.data.mean(axis), bitwise
    shape = a.data.shape

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / count, shape).copy(),)

    return Tensor._make_node("mean", out, (a,), vjp)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = np.asarray(a.data.sum(axis=axis))
    shape = a.data.shape

    def vjp(g):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy(),)

    return Tensor._make_node("sum", out, (a,), vjp)


def log(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise ValueError("log: non-positive input")
    out = np.log(a.data)
    ad = a.data
    return Tensor._make_node("log", out, (a,), lambda g: (g / ad,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is 1 strictly inside the interval, else 0."""
    if not lo < hi:
        raise ValueError(f"clip: require lo < hi, got [{lo}, {hi}]")
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return Tensor._make_node("clip", out, (a,), lambda g: (g * inside,))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ValueError(f"transpose: needs at least 2 dims, got shape {a.shape}")
    out = a.data.swapaxes(-1, -2).copy()
    return Tensor._make_node("transpose", out, (a,), lambda g: (g.swapaxes(-1, -2),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    out = a.data.reshape(shape)
    orig = a.data.shape
    return Tensor._make_node("reshape", out, (a,), lambda g: (g.reshape(orig),))


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor; gradients scatter-add back into the rows."""
    if a.ndim != 2:
        raise ValueError(f"gather_rows: expected a 2-d table, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: indices must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError(
            f"gather_rows: index out of range for table with {a.shape[0]} rows"
        )
    out = a.data[idx]
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape, dtype=np.float64)
        np.add.at(z, idx, g)
        return (z,)

    return Tensor._make_node("gather_rows", out, (a,), vjp)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis; gradient scatters into the slice."""
    if not 0 <= axis < a.ndim:
        raise ValueError(f"slice_axis: axis {axis} out of range for shape {a.shape}")
    n = a.shape[axis]
    if not (0 <= start < stop <= n):
        raise ValueError(f"slice_axis: [{start}, {stop}) invalid for axis of length {n}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = a.data[index].copy()
    shape = a.data.shape

    def vjp(g):
        z = np.zeros(shape, dtype=np.float64)
        z[index] = g
        return (z,)

    return Tensor._make_node("slice_axis", out, (a,), vjp)


# -- fused kernels ---------------------------------------------------------------
#
# Each is one graph node whose forward runs, in order, the numpy expressions
# of the composed kernels it replaces, so its outputs are bitwise theirs
# (causal_attention's at the real slots of the padded layout). The VJPs are
# written by hand.


def padded_slots(lengths: np.ndarray) -> np.ndarray:
    """(B, T) mask of the slots packed rows fill when padded to the longest of
    `lengths` (B,): row b's first lengths[b] slots."""
    return np.arange(lengths.max()) < lengths[:, None]


def causal_attention(x: Tensor, wqkv: Tensor, wo: Tensor, bo: Tensor, lengths) -> Tensor:
    """Multi-head self-attention over packed rows x (N, d) with every head at
    once: head h's q|k|v are the column blocks of wqkv[h] (nh, d, 3·dh), its
    output meets wo[h] (nh, dh, d), the heads are summed and bo (1, d) added.
    `lengths` (B,) counts each patient's rows, at least one each, and row i
    of x fills the i-th slot of padded_slots(lengths) in row-major order, so
    a patient's rows are consecutive. Only the scores use the (B, T) layout:
    the q|k|v projections are scattered into zeroed slots and the head
    outputs gathered back to rows, and the VJP does the reverse. A query
    attends to the real keys up to its own slot, so slot 0 leaves none with
    every key blocked. The -inf scores stay inside."""
    if x.ndim != 2 or wqkv.ndim != 3 or wqkv.shape[1] != x.shape[1] or wqkv.shape[2] % 3:
        raise ValueError(f"causal_attention: x {x.shape} and wqkv {wqkv.shape} disagree")
    n, d = x.shape
    nh, dh = wqkv.shape[0], wqkv.shape[2] // 3
    if wo.shape != (nh, dh, d):
        raise ValueError(f"causal_attention: wo {wo.shape}, expected {(nh, dh, d)}")
    lengths = np.asarray(lengths)
    counts = lengths.tolist()  # Python-int checks: cheaper than numpy reductions of B counts
    if (lengths.ndim != 1 or lengths.dtype.kind not in "iu" or not counts
            or min(counts) < 1 or sum(counts) != n):
        raise ValueError(
            f"causal_attention: lengths must be 1-D integer counts >= 1 summing to {n}, "
            f"got {lengths.dtype} {counts}"
        )
    real = padded_slots(lengths)
    b, t = real.shape
    steps = np.arange(t)
    blocked = (steps > steps[:, None]) | ~real[:, None, :]
    xd, w3, wod = x.data, wqkv.data, wo.data
    slots = np.flatnonzero(real)

    def heads_view(rows):
        """(B·T, k·nh·dh) slot rows as k head-major (nh, B, T, dh) views."""
        return rows.reshape(b, t, -1, nh, dh).transpose(2, 3, 0, 1, 4)

    # Every head's q, k and v in one GEMM over the rows, columns ordered
    # (q|k|v, head, dh), scattered into zeroed (B·T) slot rows.
    w_rows = w3.reshape(nh, d, 3, dh).transpose(1, 2, 0, 3).reshape(d, 3 * nh * dh)
    qkv = np.zeros((b * t, 3 * nh * dh))
    qkv[slots] = np.matmul(xd, w_rows)
    q, k, v = heads_view(qkv)
    s = float(1.0 / np.sqrt(float(dh)))
    scores = np.where(blocked, -np.inf, np.matmul(q, k.swapaxes(-1, -2).copy()) * s)
    # The softmax runs in one contiguous copy with the keys first, reduced
    # over its outer axis. The max does not round, so it is bitwise
    # np.max(scores, axis=-1), at a fraction of its cost for short rows. The
    # sum adds the keys in order, so a padded key's zero comes last and
    # changes nothing: numpy's last-axis sum goes pairwise from eight keys
    # on, which would make a row depend on its batch's longest history.
    e = scores.transpose(3, 0, 1, 2).copy()
    m = np.maximum.reduce(e, axis=0)
    np.exp(np.subtract(e, m, out=e), out=e)
    weights = np.empty_like(scores)
    np.divide(e.transpose(1, 2, 3, 0), np.add.reduce(e, axis=0)[..., None], out=weights)
    heads = np.empty((b * t, nh, dh))
    np.matmul(weights, v, out=heads_view(heads)[0])
    heads = np.ascontiguousarray(heads[slots].transpose(1, 0, 2))
    out = np.matmul(heads, wod).sum(axis=0) + bo.data

    def vjp(g):
        g_heads = np.zeros((b * t, nh * dh))
        g_heads[slots] = np.matmul(g, wod.transpose(2, 0, 1).reshape(d, nh * dh))
        [g_heads] = heads_view(g_heads)
        g_w = np.matmul(g_heads, v.swapaxes(-1, -2).copy())
        g_s = (g_w - (g_w * weights).sum(axis=-1, keepdims=True)) * weights * s
        g_qkv = np.empty((b * t, 3 * nh * dh))
        g_q, g_k, g_v = heads_view(g_qkv)
        np.matmul(g_s, k, out=g_q)
        np.matmul(g_s.swapaxes(-1, -2), q, out=g_k)
        np.matmul(weights.swapaxes(-1, -2), g_heads, out=g_v)
        g_rows = g_qkv[slots]
        g_x = np.matmul(g_rows, w_rows.T)
        g_w3 = np.matmul(xd.T, g_rows).reshape(d, 3, nh, dh).transpose(2, 0, 1, 3)
        g_wo = np.matmul(heads.swapaxes(-1, -2), g)
        return g_x, g_w3.reshape(nh, d, 3 * dh), g_wo, _unbroadcast(g, bo.data.shape)

    return Tensor._make_node("causal_attention", out, (x, wqkv, wo, bo), vjp)


def add_layer_norm(x: Tensor, r: Tensor, g: Tensor, b: Tensor, eps: float = 1e-5) -> Tensor:
    """layer_norm(x + r) * g + b: residual, norm over the last axis and affine."""
    try:
        total = x.data + r.data
    except ValueError:
        raise ValueError(f"add_layer_norm: shapes {x.shape} and {r.shape} are not broadcastable")
    width = total.shape[-1]
    # np.mean's own arithmetic, a sum then a division by the count, without
    # its Python wrapper; np.var's own expression, with the centered values
    # reused.
    centered = total - np.add.reduce(total, -1, keepdims=True) / width
    var = np.add.reduce(centered * centered, -1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + eps)
    normed = centered * inv
    gd = g.data
    out = normed * gd + b.data

    def vjp(go):
        gn = go * gd
        gm = np.add.reduce(gn, -1, keepdims=True) / width
        gym = np.add.reduce(gn * normed, -1, keepdims=True) / width
        g_total = inv * (gn - gm - normed * gym)
        return (
            _unbroadcast(g_total, x.data.shape),
            _unbroadcast(g_total, r.data.shape),
            _unbroadcast(go * normed, gd.shape),
            _unbroadcast(go, b.data.shape),
        )

    return Tensor._make_node("add_layer_norm", out, (x, r, g, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b over the last axis of x (..., d_in), then max(·, 0) when
    `relu`; the weight gradient is one GEMM over every leading row."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear: inner dimensions differ, {x.shape} @ {w.shape}")
    xd, wd = x.data, w.data
    d_in, d_out = wd.shape
    out = np.matmul(xd, wd) + b.data
    if relu:
        mask = out > 0.0
        out = np.maximum(out, 0.0)

    def vjp(g):
        if relu:
            g = g * mask
        return (
            np.matmul(g, wd.swapaxes(-1, -2)) if x.requires_grad else None,
            np.matmul(xd.reshape(-1, d_in).T, g.reshape(-1, d_out)),
            _unbroadcast(g, b.data.shape),
        )

    return Tensor._make_node("linear", out, (x, w, b), vjp)


def binary_xent(p: Tensor, hit: np.ndarray, miss: np.ndarray, eps: float) -> Tensor:
    """The summed binary cross-entropy -sum(hit·log p + miss·log(1 - p)), each
    probability clipped to [eps, 1 - eps]; `hit` and `miss` weigh the two
    terms per entry (a target y gives hit = y, miss = 1 - y). Where a clip
    binds, its term passes no gradient."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"binary_xent: eps must lie in (0, 0.5), got {eps}")
    if np.shape(hit) != p.shape or np.shape(miss) != p.shape:
        raise ValueError(
            f"binary_xent: hit {np.shape(hit)} and miss {np.shape(miss)} must match p {p.shape}"
        )
    pd = p.data
    pc = np.clip(pd, eps, 1.0 - eps)
    qc = np.clip(1.0 - pd, eps, 1.0 - eps)
    total = np.asarray(-(np.log(pc) * hit + np.log(qc) * miss).sum())

    def vjp(g):
        dp = np.where((pd > eps) & (pd < 1.0 - eps), hit / pc, 0.0)
        dq = np.where((qc > eps) & (qc < 1.0 - eps), miss / qc, 0.0)
        return (g * (dq - dp),)

    return Tensor._make_node("binary_xent", total, (p,), vjp)


# -- recurrent kernels -------------------------------------------------------------
#
# A gated recurrent cell keeps its reset, update and candidate gates as the
# column blocks of its input part gx = x w + b (B, 3h) and of its recurrent
# weight u (h, 3h). From the state h one step makes
#     r|z = sigmoid(gx[:, :2h] + (h u)[:, :2h])
#     n   = tanh(gx[:, 2h:] + r * (h u)[:, 2h:])
#     h'  = n + z * (h - n)
# Each kernel records one node for a whole sequence: its forward loops over
# the steps in numpy, keeping what the VJP reads, and the VJP runs
# backpropagation through time. Both reach the gate arithmetic through the
# one pair _gru_step and _gru_step_vjp, whose forward is the numpy
# arithmetic of the elementary kernels, so the states are theirs bitwise.


def _gru_step(gx: np.ndarray, h: np.ndarray, u: np.ndarray):
    """The state after h (B, h) reads the input part gx (B, 3h), and the
    (h, rz, gh_n, n) its VJP reads."""
    d = h.shape[1]
    gh = np.matmul(h, u)
    rz = _sigmoid(gx[:, : 2 * d] + gh[:, : 2 * d])
    gh_n = gh[:, 2 * d :]
    n = np.tanh(gx[:, 2 * d :] + rz[:, :d] * gh_n)
    return n + rz[:, d:] * (h - n), (h, rz, gh_n, n)


def _gru_step_vjp(g: np.ndarray, saved, u: np.ndarray):
    """From the gradient g (B, h) of a step's new state, the gradients of
    its input part gx (B, 3h), of its h u (B, 3h) and of its old state h."""
    h, rz, gh_n, n = saved
    d = h.shape[1]
    g_n = g * (1.0 - rz[:, d:]) * (1.0 - n * n)
    g_gx = np.empty((g.shape[0], 3 * d))
    g_gx[:, :d] = g_n * gh_n
    g_gx[:, d : 2 * d] = g * (h - n)
    g_gx[:, : 2 * d] *= rz * (1.0 - rz)
    g_gx[:, 2 * d :] = g_n
    g_gh = g_gx.copy()
    g_gh[:, 2 * d :] *= rz[:, :d]
    return g_gx, g_gh, g * rz[:, d:] + np.matmul(g_gh, u.T)


def _rows(a: np.ndarray) -> np.ndarray:
    """Every leading index as one row axis: (..., k) to (n, k)."""
    return a.reshape(-1, a.shape[-1])


def gru_sweep(gx: Tensor, u: Tensor, reverse: bool = False) -> Tensor:
    """Every state (B, m, h) of one gated recurrent direction over the input
    parts gx (B, m, 3h), with recurrent weight u (h, 3h), from a zero state:
    row t is the state after reading sentence t, read first to last, or
    last to first when `reverse`."""
    if gx.ndim != 3 or u.ndim != 2 or u.shape[1] != 3 * u.shape[0] or gx.shape[2] != u.shape[1]:
        raise ValueError(f"gru_sweep: gx {gx.shape} and u {u.shape} disagree")
    b, m, _ = gx.shape
    d = u.shape[0]
    gxd, ud = gx.data, u.data
    order = range(m - 1, -1, -1) if reverse else range(m)
    out = np.empty((b, m, d))
    saved = [None] * m
    h = np.zeros((b, d))
    for t in order:
        h, saved[t] = _gru_step(gxd[:, t], h, ud)
        out[:, t] = h

    def vjp(g):
        g_gx = np.empty(gxd.shape)
        g_gh = np.empty((m, b, 3 * d))
        g_h = np.zeros((b, d))
        for t in reversed(order):
            g_gx[:, t], g_gh[t], g_h = _gru_step_vjp(g_h + g[:, t], saved[t], ud)
        old = np.stack([s[0] for s in saved])
        return g_gx, np.matmul(_rows(old).T, _rows(g_gh))

    return Tensor._make_node("gru_sweep", out, (gx, u), vjp)


def gru_decode(
    states: Tensor, targets: Tensor, coins, w: Tensor, u: Tensor, b: Tensor,
    out_w: Tensor, out_b: Tensor,
) -> Tensor:
    """Rows (B, m, k) rebuilt by a gated recurrent decoder (input weight w
    (k, 3h), recurrent weight u (h, 3h), bias b (3h,)) whose state starts at
    the last row of `states` (B, m, h). Step t reads x_t, steps the state on
    x_t w + b and outputs y_t = h out_w + out_b. x_0 is zero; x_{t+1} is the
    true row targets[:, t] where coins[t] is set (teacher forcing) and y_t
    where it is not, so the output projection is part of the recurrence."""
    if states.ndim != 3 or targets.ndim != 3 or states.shape[:2] != targets.shape[:2]:
        raise ValueError(f"gru_decode: states {states.shape} and targets {targets.shape} disagree")
    bsz, m, k = targets.shape
    d = states.shape[2]
    weights = (w, u, b, out_w, out_b)
    if [p.shape for p in weights] != [(k, 3 * d), (d, 3 * d), (3 * d,), (d, k), (k,)]:
        raise ValueError(
            f"gru_decode: weights {[p.shape for p in weights]} do not fit "
            f"states {states.shape} and targets {targets.shape}"
        )
    coins = np.asarray(coins)
    if coins.dtype != np.bool_ or coins.shape != (m - 1,):
        raise ValueError(
            f"gru_decode: coins must be {m - 1} booleans, got {coins.dtype} {coins.shape}"
        )
    td, wd, ud, bd, owd, obd = (p.data for p in (targets, *weights))
    out = np.empty((bsz, m, k))
    xs, hs, saved = [], [], []
    x, h = np.zeros((bsz, k)), states.data[:, -1].copy()
    for t in range(m):
        xs.append(x)
        h, step = _gru_step(np.matmul(x, wd) + bd, h, ud)
        saved.append(step)
        hs.append(h)
        y = np.matmul(h, owd) + obd
        out[:, t] = y
        if t + 1 < m:
            x = td[:, t].copy() if coins[t] else y

    def vjp(g):
        g_gx = np.empty((m, bsz, 3 * d))
        g_gh = np.empty((m, bsz, 3 * d))
        g_y = np.empty((m, bsz, k))
        g_targets = np.zeros(td.shape)
        g_h, fed = np.zeros((bsz, d)), 0.0
        for t in reversed(range(m)):
            g_y[t] = g[:, t] + fed
            g_gx[t], g_gh[t], g_h = _gru_step_vjp(g_h + np.matmul(g_y[t], owd.T), saved[t], ud)
            if t:
                g_x = np.matmul(g_gx[t], wd.T)
                if coins[t - 1]:
                    g_targets[:, t - 1], fed = g_x, 0.0
                else:
                    fed = g_x
        g_states = np.zeros(states.data.shape)
        g_states[:, -1] = g_h
        old = np.stack([s[0] for s in saved])
        return (
            g_states,
            g_targets,
            np.matmul(_rows(np.stack(xs)).T, _rows(g_gx)),
            np.matmul(_rows(old).T, _rows(g_gh)),
            _rows(g_gx).sum(axis=0),
            np.matmul(_rows(np.stack(hs)).T, _rows(g_y)),
            _rows(g_y).sum(axis=0),
        )

    return Tensor._make_node("gru_decode", out, (states, targets, *weights), vjp)

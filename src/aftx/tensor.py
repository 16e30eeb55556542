"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is a plain tape.  Every operation that involves a tensor with
``requires_grad`` gives its output a node: the tape entries of its parents
and a closure, ``grad_fn``, that maps the output gradient to parent
gradients.  A ``grad_fn`` returns ``None`` for a parent that does not
require grad, and skips computing that gradient.

A closure captures arrays and flags, never a Tensor, and what it saves is
fixed when the op is recorded: only the arrays its backward reads for the
parents that require grad (``linear`` keeps ``w`` only when ``x`` requires
grad, ``relu`` keeps only its mask).  So an intermediate Tensor that the
forward code drops frees its data unless a backward reads it.  A layer's
bias and its residual sum are folded into the op that makes them
(``linear``, ``layer_norm_residual``), so no pre-bias product or residual
sum is made to be kept.  ``attention`` scales its queries by 1/sqrt(d) one
slice at a time, so no scaled copy of them is kept, writes its output in
their memory order, so merging heads after it is a view, and saves no
weights: it works through its batch one [frames_q, frames_k] slice at a
time, in the forward and again in the backward, which recomputes each
slice's weights from the row maxima and sums that the forward saved.

``backward`` consumes the graph it walks: it releases each node's parents
and closure once it has used them, so saved arrays are freed as the walk
passes them, and a later backward that reaches a consumed node raises
StaleGraph.  Only the operators the bundled speech models need are
implemented; there is no GPU path and no broadcasting beyond what bias
addition requires.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.array_utils import normalize_axis_index

from .errors import (
    InputTooShort,
    LabelError,
    NonFinite,
    NotReal,
    ShapeError,
    StaleGraph,
)


class Tensor:
    """A numpy float64 array plus the bookkeeping reverse mode needs.

    ``grad`` is populated by :func:`backward` on tensors that require
    gradients.  Intermediate gradients are not retained.  A tensor made by a
    recorded op holds that op's ``_node``; a leaf's ``_node`` is None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        try:
            arr = np.asarray(data)
        except ValueError as exc:
            raise ShapeError(f"tensor data is not a rectangular array: {exc}") from exc
        if arr.dtype.kind not in "biuf":
            raise NotReal(f"tensor data must be real numbers, got dtype {arr.dtype}")
        self.data = arr.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node:
    """One recorded op: a tape entry per parent and the op's ``grad_fn``.

    A parent's entry is its node, the parent itself when it is a leaf that
    requires grad, or None for a constant.  ``backward`` empties both fields
    and sets ``done`` once it has called ``grad_fn``."""

    __slots__ = ("parents", "grad_fn", "done")

    def __init__(self, parents: tuple, grad_fn):
        self.parents = parents
        self.grad_fn = grad_fn
        self.done = False


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple((p if p._node is None else p._node) if p.requires_grad
                                else None for p in parents), grad_fn)
    return out


def _axis(axis, ndim: int, op: str) -> int:
    """``axis`` of an ``ndim``-dimensional operand as an index in [0, ndim)."""
    try:
        return normalize_axis_index(axis, ndim)
    except (TypeError, np.exceptions.AxisError) as exc:
        raise ShapeError(f"{op}: no axis {axis!r} in {ndim} dimensions") from exc


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive operators
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"cannot add {a.shape} and {b.shape}") from exc
    a_shape = a.shape if a.requires_grad else None
    b_shape = b.shape if b.requires_grad else None

    def grad_fn(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(g, b_shape))

    return _from_op(data, (a, b), grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one tape op: ``x`` is [d_in] or [rows, d_in], ``w``
    [d_in, d_out] and ``b`` [d_out].  The bias is added in place, so no
    pre-bias product outlives the forward."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim not in (1, 2) or w.data.ndim != 2:
        raise ShapeError(f"linear expects x [d_in] or [rows, d_in] and w [d_in, d_out], "
                         f"got {x.shape}, {w.shape}")
    d_in, d_out = w.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear expects input dim {d_in}, got {x.shape[-1]}")
    if d_in == 0:
        raise ShapeError("linear needs an input dim of at least 1")
    if b.shape != (d_out,):
        raise ShapeError(f"linear bias must have shape ({d_out},), got {b.shape}")
    x2 = x.data.reshape(-1, d_in)
    rows = x2.shape[0]     # reshape(-1, d_out) cannot infer rows when d_out == 0
    data = x2 @ w.data
    data += b.data
    x_shape, b_grad = x.shape, b.requires_grad
    w_data = w.data if x.requires_grad else None
    x2 = x2 if w.requires_grad else None

    def grad_fn(g):
        g2 = g.reshape(rows, d_out)
        gx = None if w_data is None else (g2 @ w_data.T).reshape(x_shape)
        gw = None if x2 is None else x2.T @ g2
        gb = g2.sum(axis=0) if b_grad else None
        return gx, gw, gb

    return _from_op(data.reshape(x.shape[:-1] + (d_out,)), (x, w, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _from_op(np.where(mask, x.data, 0.0), (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    old = x.shape
    try:
        data = x.data.reshape(shape)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"cannot reshape {old} to {shape}") from exc

    def grad_fn(g):
        return (g.reshape(old),)

    return _from_op(data, (x,), grad_fn)


def transpose(x: Tensor, axes=None) -> Tensor:
    x = as_tensor(x)
    ndim = x.data.ndim
    if axes is None:
        axes = tuple(reversed(range(ndim)))
    axes = tuple(_axis(a, ndim, "transpose") for a in axes)
    if sorted(axes) != list(range(ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation of {ndim} axes")
    inverse = np.argsort(axes)

    def grad_fn(g):
        return (g.transpose(inverse),)

    return _from_op(x.data.transpose(axes), (x,), grad_fn)


def tmean(x: Tensor, axis=None) -> Tensor:
    x = as_tensor(x)
    shape = x.shape
    if axis is not None:
        axis = _axis(axis, x.data.ndim, "tmean")
    count = x.data.size if axis is None else shape[axis]
    if count == 0:
        raise ShapeError(f"tmean over no elements: axis {axis} of {shape}")

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, shape).copy(),)

    return _from_op(x.data.mean(axis=axis), (x,), grad_fn)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis (used to batch clip logits)."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack needs at least one tensor")
    base = tensors[0].shape
    if any(t.shape != base for t in tensors):
        raise ShapeError("stack needs tensors of identical shape")
    axis = _axis(axis, len(base) + 1, "stack")
    data = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)

    def grad_fn(g):
        return tuple(np.take(g, i, axis=axis) for i in range(count))

    return _from_op(data, tuple(tensors), grad_fn)


def _softmax_into(x: np.ndarray, out, axis: int) -> np.ndarray:
    """Stabilized softmax of ``x`` along ``axis``, written into ``out`` (a new
    array when ``out`` is None, or ``x`` itself), with no other array of its
    size: subtract the max, exponentiate in place, divide by the sum."""
    s = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along ``axis``; rows sum to one."""
    x = as_tensor(x)
    axis = _axis(axis, x.data.ndim, "softmax")
    if x.shape[axis] == 0:
        raise ShapeError(f"softmax over axis {axis} of {x.shape}, which is empty")
    s = _softmax_into(x.data, None, axis)

    def grad_fn(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)

    return _from_op(s, (x,), grad_fn)


def _weights_into(q: np.ndarray, k: np.ndarray, out: np.ndarray, row_max: np.ndarray,
                  row_sum: np.ndarray, rows_known: bool = False) -> np.ndarray:
    """softmax(q kᵀ) of one scaled [frames_q, d] query and [frames_k, d] key slice,
    written into ``out`` [frames_q, frames_k] by the float operations of
    ``_softmax_into``.  Each row's max and sum of exponentials go into
    ``row_max`` and ``row_sum`` [frames_q, 1]; with ``rows_known`` they are
    read from there instead, which skips both reductions and gives the same
    weights bit for bit."""
    np.matmul(q, k.T, out=out)
    if not rows_known:
        out.max(axis=-1, keepdims=True, out=row_max)
    np.subtract(out, row_max, out=out)
    np.exp(out, out=out)
    if not rows_known:
        out.sum(axis=-1, keepdims=True, out=row_sum)
    out /= row_sum
    return out


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention softmax(q kᵀ / sqrt(d)) v over stacks with
    equal batch dims, as one tape op (Vaswani et al. 2017, arXiv 1706.03762).

    ``q`` is [..., frames_q, d], ``k`` [..., frames_k, d] and ``v``
    [..., frames_k, d_v]; returns the output Tensor [..., frames_q, d_v],
    laid out in memory in q's axis order, so that the heads of split-head
    views merge again as a view.  Each batch slice's scaled queries and
    weights [frames_q, frames_k] go into reused buffers, so no array of
    that size outlives a slice.  The tape keeps q, k, v, the output and
    each row's softmax max and sum, not the weights: the backward
    recomputes each slice's weights by the same float operations, so they
    equal the forward's bit for bit.  It scales each query slice into its
    slice of q's gradient, which gs @ k overwrites once the recompute and
    k's gradient have read it.  Before any of that, it computes every
    slice's rowsum(g ∘ out), which equals rowsum((g vᵀ) ∘ weights) (Dao et
    al. 2022), through one [frames_q, d_v] buffer.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if min(q.data.ndim, k.data.ndim, v.data.ndim) < 2:
        raise ShapeError("attention needs operands of rank >= 2")
    if not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise ShapeError(f"attention batch dims differ: {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention query and key dims differ: {q.shape}, {k.shape}")
    if q.shape[-1] == 0:
        raise ShapeError("attention needs a query and key dim of at least 1")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention key and value frames differ: {k.shape}, {v.shape}")
    if k.shape[-2] == 0:
        raise ShapeError("attention needs at least one key frame")
    scale = 1.0 / math.sqrt(q.shape[-1])
    q_data, k_data = q.data, k.data
    batch, q_shape, p_shape = q.shape[:-2], q.shape, (q.shape[-2], k.shape[-2])
    out = np.empty_like(q_data, shape=q_shape[:-1] + v.shape[-1:])
    qs, p = np.empty(q_shape[-2:]), np.empty(p_shape)
    row_max, row_sum = np.empty(q_shape[:-1] + (1,)), np.empty(q_shape[:-1] + (1,))
    for i in np.ndindex(batch):
        np.multiply(q_data[i], scale, out=qs)
        _weights_into(qs, k_data[i], p, row_max[i], row_sum[i])
        np.matmul(p, v.data[i], out=out[i])
    q_grad, k_grad, v_grad, v_shape = q.requires_grad, k.requires_grad, v.requires_grad, v.shape
    # the score gradient gs is needed by q's and k's gradients only
    v_data, saved_out = (v.data, out) if q_grad or k_grad else (None, None)

    def grad_fn(g):
        if v_data is not None:
            dots, prod = np.empty(row_sum.shape), np.empty(saved_out.shape[-2:])
            for i in np.ndindex(batch):
                np.multiply(g[i], saved_out[i], out=prod)
                prod.sum(axis=-1, keepdims=True, out=dots[i])
            del prod
        gq = np.empty(q_shape) if q_grad else None
        # k's gradient is a [..., frames_k, d] view of the q_hᵀ gs_h products,
        # the layout a batched product gives; a C-ordered copy would change
        # the summation order of reductions further down the backward
        gk_t = np.empty(batch + (q_shape[-1], p_shape[1])) if k_grad else None
        gv = np.empty(v_shape) if v_grad else None
        qs = np.empty(q_shape[-2:]) if gq is None else None
        p = np.empty(p_shape)
        gs = np.empty(p_shape) if v_data is not None else None
        for i in np.ndindex(batch):
            qs_i = qs if gq is None else gq[i]
            np.multiply(q_data[i], scale, out=qs_i)
            _weights_into(qs_i, k_data[i], p, row_max[i], row_sum[i], rows_known=True)
            if gv is not None:
                np.matmul(p.T, g[i], out=gv[i])
            if gs is not None:
                np.matmul(g[i], v_data[i].T, out=gs)
                gs -= dots[i]
                gs *= p
                if gk_t is not None:
                    np.matmul(qs_i.T, gs, out=gk_t[i])
                if gq is not None:
                    np.matmul(gs, k_data[i], out=gq[i])
        if gq is not None:
            gq *= scale
        return gq, None if gk_t is None else np.swapaxes(gk_t, -1, -2), gv

    return _from_op(out, (q, k, v), grad_fn)


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2) -> Tensor:
    """Valid cross-correlation of ``x`` [c_in, length] with ``w``
    [c_out, c_in, window], plus the bias ``b`` [c_out], hopping ``stride``
    samples per output frame.

    out_length = floor((length - window) / stride) + 1.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError(f"conv1d expects [c_in, L] and [c_out, c_in, W], got {x.shape}, {w.shape}")
    c_in, length = x.shape
    c_out, w_cin, window = w.shape
    if w_cin != c_in:
        raise ShapeError(f"conv1d channel mismatch: input has {c_in}, weights expect {w_cin}")
    if length < window:
        raise InputTooShort(f"conv1d input length {length} < window {window}")
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ShapeError(f"conv1d stride must be an integer of at least 1, got {stride!r}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv1d bias must have shape ({c_out},), got {b.shape}")

    out_length = (length - window) // stride + 1
    # [c_in, window, out_length] view, no copy; reshaping it to the
    # [c_in*window, out_length] column matrix copies, so the closure keeps
    # only the view and rebuilds the columns when it needs them
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, window, axis=1)[:, ::stride, :].transpose(0, 2, 1)
    w2 = w.data.reshape(c_out, c_in * window)
    data = w2 @ windows.reshape(c_in * window, out_length)
    data += b.data[:, None]
    x_shape, w_shape = x.shape, w.shape
    b_grad = b.requires_grad
    w2 = w2 if x.requires_grad else None
    windows = windows if w.requires_grad else None

    def grad_fn(g):
        # g: [c_out, out_length]
        gx = gw = gb = None
        if w2 is not None:
            per_tap = (w2.T @ g).reshape(c_in, window, out_length)
            gx = np.zeros(x_shape)
            span = stride * out_length
            for k in range(window):
                gx[:, k:k + span:stride] += per_tap[:, k, :]
        if windows is not None:
            gw = (g @ windows.reshape(c_in * window, out_length).T).reshape(w_shape)
        if b_grad:
            gb = g.sum(axis=1)
        return gx, gw, gb

    return _from_op(data, (x, w, b), grad_fn)


def layer_norm_residual(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor,
                        eps: float = 1e-5) -> Tensor:
    """Normalize each row (last axis) of the residual sum ``x + y`` to zero
    mean, unit variance, then apply an elementwise affine ``gain * xhat + bias``.

    Variance is the population variance and ``eps`` sits inside the square
    root, so constant rows map to zero rather than NaN.  The sum is
    normalized in place, so the tape keeps only ``xhat``, the row scales and
    the gain; ``x`` and ``y`` receive the same gradient array.
    """
    x, y, gain, bias = as_tensor(x), as_tensor(y), as_tensor(gain), as_tensor(bias)
    if x.shape != y.shape:
        raise ShapeError(f"residual shapes differ: {x.shape} vs {y.shape}")
    if x.data.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"layer norm needs a non-empty last axis, got shape {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer norm affine params must have shape ({d},)")
    xhat = x.data + y.data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat ** 2).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv_std
    data = gain.data * xhat
    data += bias.data
    x_grad, y_grad = x.requires_grad, y.requires_grad
    gain_grad, bias_grad = gain.requires_grad, bias.requires_grad
    gain_data = gain.data

    def grad_fn(g):
        reduce_axes = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=reduce_axes) if gain_grad else None
        gbias = g.sum(axis=reduce_axes) if bias_grad else None
        gx = None
        if x_grad or y_grad:
            gxhat = g * gain_data
            gx = gxhat - gxhat.mean(axis=-1, keepdims=True)
            gx -= xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
            gx *= inv_std
        return (gx if x_grad else None, gx if y_grad else None, ggain, gbias)

    return _from_op(data, (x, y, gain, bias), grad_fn)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], log-sum-exp
    stabilized so extreme logits cannot overflow.

    ``logits`` is [batch, classes] (a single [classes] row is promoted) and
    ``labels`` holds integer class ids.
    """
    logits = as_tensor(logits)
    squeeze = logits.data.ndim == 1
    z = logits.data[None, :] if squeeze else logits.data
    if z.ndim != 2:
        raise ShapeError(f"logits must be [batch, classes], got {logits.shape}")
    raw = np.atleast_1d(np.asarray(labels))
    if raw.dtype.kind not in "biuf" or (
            raw.dtype.kind == "f" and not (np.isfinite(raw) & (raw == np.round(raw))).all()):
        raise LabelError(f"labels must be integral class ids, got {raw.dtype} values "
                         f"that are not all integers")
    labels = raw.astype(np.int64)
    n, c = z.shape
    if n == 0:
        raise ShapeError("softmax_cross_entropy needs a non-empty batch")
    if labels.shape != (n,):
        raise LabelError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise LabelError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    if not np.isfinite(z).all():
        raise NonFinite("softmax_cross_entropy got non-finite logits")

    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    losses = lse - shifted[np.arange(n), labels]
    data = losses.mean()

    def grad_fn(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        gz = p * (g / n)
        return (gz[0] if squeeze else gz,)

    return _from_op(data, (logits,), grad_fn)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    ``loss`` must be a scalar produced by a recorded forward pass (a scalar
    leaf that requires grad gets grad 1).  The walk consumes the graph: once
    a node's ``grad_fn`` has run, the node drops its parents and closure, so
    the arrays it saved are freed while ``loss`` and the other outputs are
    still held.  Reaching a consumed node, by calling backward twice on one
    loss or on a new graph built through a consumed output, raises
    StaleGraph before any gradient is written.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise StaleGraph("loss does not depend on any tensor that requires grad")
    root = loss if loss._node is None else loss._node

    # every node and leaf reachable from root, after its parents, so popping
    # from the end reaches each one after all of its consumers
    order: list = []
    seen: set[int] = set()
    todo = [(root, False)]
    while todo:
        entry, expanded = todo.pop()
        if expanded:
            order.append(entry)
            continue
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        todo.append((entry, True))
        if isinstance(entry, _Node):
            if entry.done:
                raise StaleGraph("backward already ran through this graph; "
                                 "rerun the forward pass")
            for parent in entry.parents:
                if parent is not None and id(parent) not in seen:
                    todo.append((parent, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while order:
        entry = order.pop()
        g = grads.pop(id(entry), None)
        if isinstance(entry, Tensor):
            # leaf: accumulate into the persistent grad slot
            if g is not None:
                entry.grad = g if entry.grad is None else entry.grad + g
            continue
        if g is not None:
            for parent, pg in zip(entry.parents, entry.grad_fn(g)):
                if parent is None or pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        entry.parents, entry.grad_fn, entry.done = (), None, True


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class Parameter:
    """A named model weight.  ``trainable`` is the tensor's ``requires_grad``:
    frozen parameters never receive gradients and are bit-identical across
    optimizer steps."""

    def __init__(self, tensor: Tensor, trainable: bool = True, name: str = ""):
        self.tensor = tensor
        self.name = name
        tensor.requires_grad = bool(trainable)

    @property
    def trainable(self) -> bool:
        return self.tensor.requires_grad

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

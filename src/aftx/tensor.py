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
sum is made to be kept.  Each encoder sublayer is one op
(``multi_head_attention``, ``feed_forward``) that keeps its input and
recomputes its inner activations in the backward, by the same float
operations as the forward, so they equal the forward's bit for bit:
attention keeps only its input, its merged head outputs and each row's
softmax max and sum, and recomputes the q, k and v projections and each
head's [frames, frames] weights, one head at a time; the feed-forward
keeps only its input and recomputes its hidden layer.

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
    HeadMismatch,
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
        if self.data.size != 1:
            raise ShapeError(f"item() needs a tensor of one element, got shape {self.shape}")
        return self.data.item()

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


def _check_layer(op: str, d_in: int, w: Tensor, b: Tensor) -> int:
    """The output width of a layer that maps width ``d_in`` through ``w``
    [d_in, d_out] plus ``b`` [d_out]; ShapeError if the shapes do not fit."""
    if w.data.ndim != 2 or w.shape[0] != d_in:
        raise ShapeError(f"{op} expects a weight of shape ({d_in}, d_out), got {w.shape}")
    if d_in == 0:
        raise ShapeError(f"{op} needs an input dim of at least 1")
    if b.shape != w.shape[1:]:
        raise ShapeError(f"{op} bias must have shape ({w.shape[1]},), got {b.shape}")
    return w.shape[1]


def _affine(x2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x2 @ w + b`` with the bias added in place, so no pre-bias product
    outlives it: the float operations of every linear layer, in a forward
    and in a backward's recompute alike."""
    out = x2 @ w
    out += b
    return out


def _linear_grads(g2: np.ndarray, x2, w, flags) -> tuple:
    """The gradients of ``x2 @ w + b`` [rows, d_out] with respect to x2, w
    and b for the output gradient ``g2``, each None where ``flags`` (three
    bools) says it is not needed; x2's is read only for w's, w for x2's."""
    x_grad, w_grad, b_grad = flags
    return (g2 @ w.T if x_grad else None, x2.T @ g2 if w_grad else None,
            g2.sum(axis=0) if b_grad else None)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one tape op: ``x`` is [d_in] or [rows, d_in], ``w``
    [d_in, d_out] and ``b`` [d_out]."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"linear expects x [d_in] or [rows, d_in], got {x.shape}")
    d_out = _check_layer("linear", x.shape[-1], w, b)
    x2 = x.data.reshape(-1, x.shape[-1])
    rows, x_shape = x2.shape[0], x.shape  # reshape(-1, d_out) cannot infer rows if d_out == 0
    data = _affine(x2, w.data, b.data)
    flags = (x.requires_grad, w.requires_grad, b.requires_grad)
    w_data = w.data if flags[0] else None
    x2 = x2 if flags[1] else None

    def grad_fn(g):
        gx, gw, gb = _linear_grads(g.reshape(rows, d_out), x2, w_data, flags)
        return None if gx is None else gx.reshape(x_shape), gw, gb

    return _from_op(data.reshape(x_shape[:-1] + (d_out,)), (x, w, b), grad_fn)


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


def _attention_into(q: np.ndarray, k: np.ndarray, v: np.ndarray, out: np.ndarray,
                    row_max: np.ndarray, row_sum: np.ndarray) -> None:
    """softmax(q kᵀ / sqrt(d)) v of each head (Vaswani et al. 2017, arXiv
    1706.03762) into ``out`` [heads, frames_q, d_v], from ``q`` [heads,
    frames_q, d], ``k`` [heads, frames_k, d] and ``v`` [heads, frames_k,
    d_v].  ``q`` is scaled in place.  Each head's weights go into one
    reused [frames_q, frames_k] buffer, and each row's softmax max and sum
    into ``row_max`` and ``row_sum`` [heads, frames_q, 1]."""
    q *= 1.0 / math.sqrt(q.shape[-1])
    p = np.empty((q.shape[-2], k.shape[-2]))
    for i in range(len(q)):
        _weights_into(q[i], k[i], p, row_max[i], row_sum[i])
        np.matmul(p, v[i], out=out[i])


def _attention_grads(q: np.ndarray, k: np.ndarray, v: np.ndarray, out, g: np.ndarray,
                     row_max: np.ndarray, row_sum: np.ndarray, need):
    """The backward of ``_attention_into`` for the output gradient ``g``, for
    the gradients that ``need`` (three flags, for q, k and v) asks for.  It
    writes q's and v's gradients over ``q`` and ``v``, scales ``q`` in place
    whichever it asks for, and returns k's gradient (or None) as a [heads,
    frames_k, d] view of a [heads, d, frames_k] array, the layout of the
    qᵀ gs products it is made of.  Merged over heads it is a column-major
    [frames_k, heads * d] view, and a reduction over it (such as a key bias
    gradient) sums in that order, the order of the batched formula.
    ``out`` is the forward's output, read only for q's and k's gradients.

    Each head's weights are recomputed from ``row_max`` and ``row_sum`` by
    the forward's float operations, so they equal the forward's bit for
    bit.  Before any [frames_q, frames_k] scratch array exists, every
    head's rowsum(g ∘ out), which equals rowsum((g vᵀ) ∘ weights) (Dao et
    al. 2022), is computed through one [frames_q, d_v] buffer.  Each head
    overwrites its slice of v once its score gradient has read it, and of
    q once k's gradient has read the scaled queries."""
    need_q, need_k, need_v = need
    scale = 1.0 / math.sqrt(q.shape[-1])
    q *= scale
    if need_q or need_k:
        dots, prod = np.empty(row_sum.shape), np.empty(out.shape[-2:])
        for i in range(len(q)):
            np.multiply(g[i], out[i], out=prod)
            prod.sum(axis=-1, keepdims=True, out=dots[i])
        del prod
        gs = np.empty((q.shape[-2], k.shape[-2]))
    gk = np.empty((len(q), q.shape[-1], k.shape[-2])) if need_k else None
    p = np.empty((q.shape[-2], k.shape[-2]))
    for i in range(len(q)):
        _weights_into(q[i], k[i], p, row_max[i], row_sum[i], rows_known=True)
        if need_q or need_k:
            np.matmul(g[i], v[i].T, out=gs)
            gs -= dots[i]
            gs *= p
        if need_v:
            np.matmul(p.T, g[i], out=v[i])
        if need_k:
            np.matmul(q[i].T, gs, out=gk[i])
        if need_q:
            np.matmul(gs, k[i], out=q[i])
    if need_q:
        q *= scale
    return None if gk is None else np.swapaxes(gk, -1, -2)


def multi_head_attention(x: Tensor, num_heads: int, wq: Tensor, bq: Tensor, wk: Tensor,
                         bk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor) -> Tensor:
    """Scaled dot-product self-attention over ``x`` [frames, dim] as one
    tape op: q, k and v are linear projections of ``x`` ([dim, dim]
    weights); each of the ``num_heads`` heads attends with softmax(q kᵀ /
    sqrt(dim/heads)) v; the head outputs are merged and pass through the
    output projection ``wo`` [dim, d_out] plus ``bo``.

    The heads write their outputs straight into one [frames, heads,
    head_dim] array, which is also the output projection's input.  The node
    keeps that array, ``x`` and each row's softmax max and sum.  Its
    backward recomputes q, k and v with ``linear``'s float operations and
    each head's weights from the row statistics, and writes q's and v's
    gradients over the recomputed q and v head by head.  Its parents are
    (x, wq, bq, x, wk, bk, x, wv, bv, wo, bo), so x's three projection
    gradients are summed in the order q, k, v.
    """
    x, wq, bq, wk, bk, wv, bv, wo, bo = (as_tensor(t) for t in (x, wq, bq, wk, bk, wv, bv,
                                                                 wo, bo))
    if x.data.ndim != 2:
        raise ShapeError(f"attention expects x [frames, dim], got {x.shape}")
    frames, dim = x.shape
    if not isinstance(num_heads, (int, np.integer)) or num_heads < 1:
        raise HeadMismatch(f"attention needs a positive whole number of heads, got {num_heads!r}")
    if dim % num_heads != 0:
        raise HeadMismatch(f"model dim {dim} is not divisible by {num_heads} heads")
    projections = [(wq, bq), (wk, bk), (wv, bv)]
    for w, b in projections:
        if _check_layer("attention", dim, w, b) != dim:
            raise ShapeError(f"attention projections must be [{dim}, {dim}], got {w.shape}")
    _check_layer("attention", dim, wo, bo)
    if frames == 0:
        raise ShapeError("attention needs at least one frame")

    def split(a):  # [frames, dim] -> [heads, frames, head_dim] view
        return a.reshape(frames, num_heads, dim // num_heads).transpose(1, 0, 2)

    x2 = x.data
    proj = [(w.data, b.data) for w, b in projections]
    merged = np.empty((frames, dim))
    row_max, row_sum = np.empty((num_heads, frames, 1)), np.empty((num_heads, frames, 1))
    _attention_into(*(split(_affine(x2, w, b)) for w, b in proj), split(merged),
                    row_max, row_sum)
    data = _affine(merged, wo.data, bo.data)

    flags = [(x.requires_grad, w.requires_grad, b.requires_grad) for w, b in projections]
    need = [any(f) for f in flags]
    out_flags = (any(need), wo.requires_grad, bo.requires_grad)
    wo_data = wo.data if out_flags[0] else None
    x2 = x2 if out_flags[0] else None
    merged = merged if out_flags[1] or need[0] or need[1] else None

    def grad_fn(g):
        grads = [None] * 9
        if x2 is not None:
            projected = [_affine(x2, w, b) for w, b in proj]
            gk = _attention_grads(*(split(a) for a in projected),
                                  None if merged is None else split(merged),
                                  split(g @ wo_data.T), row_max, row_sum, need)
            if gk is not None:   # a [frames, dim] view, not a C-ordered copy
                projected[1] = gk.transpose(1, 0, 2).reshape(frames, dim)
            grads = [grad for gp, (w, _), f in zip(projected, proj, flags)
                     for grad in _linear_grads(gp, x2, w, f)]
        # wo's and bo's gradients last: none is held through the attention backward
        return (*grads, *_linear_grads(g, merged, None, (False, *out_flags[1:]))[1:])

    return _from_op(data, (x, wq, bq, x, wk, bk, x, wv, bv, wo, bo), grad_fn)


def _relu_affine(x2: np.ndarray, w: np.ndarray, b: np.ndarray):
    """relu(x2 @ w + b) by the float operations of ``linear`` and ``relu``,
    with the ReLU applied in place, and its mask."""
    h = _affine(x2, w, b)
    mask = h > 0
    np.copyto(h, 0.0, where=~mask)     # relu's np.where(mask, h, 0.0)
    return h, mask


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The position-wise two-layer network relu(x @ w1 + b1) @ w2 + b2 as one
    tape op, for ``x`` [d_in] or [rows, d_in].  The node keeps only ``x``
    (and the weights it reads); its backward recomputes the hidden layer
    and its ReLU mask by the forward's float operations."""
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"feed_forward expects x [d_in] or [rows, d_in], got {x.shape}")
    hidden = _check_layer("feed_forward", x.shape[-1], w1, b1)
    d_out = _check_layer("feed_forward", hidden, w2, b2)
    x2 = x.data.reshape(-1, x.shape[-1])
    rows, x_shape, w1_data, b1_data = x2.shape[0], x.shape, w1.data, b1.data
    data = _affine(_relu_affine(x2, w1_data, b1_data)[0], w2.data, b2.data)
    flags = (x.requires_grad, w1.requires_grad, b1.requires_grad)
    out_flags = (any(flags), w2.requires_grad, b2.requires_grad)
    w2_data = w2.data if out_flags[0] else None
    x2 = x2 if out_flags[0] or out_flags[1] else None

    def grad_fn(g):
        h, mask = (None, None) if x2 is None else _relu_affine(x2, w1_data, b1_data)
        gh, gw2, gb2 = _linear_grads(g.reshape(rows, d_out), h, w2_data, out_flags)
        if gh is None:
            return None, None, None, gw2, gb2
        del h
        gh *= mask
        gx, gw1, gb1 = _linear_grads(gh, x2, w1_data, flags)
        return None if gx is None else gx.reshape(x_shape), gw1, gb1, gw2, gb2

    return _from_op(data.reshape(x_shape[:-1] + (d_out,)), (x, w1, b1, w2, b2), grad_fn)


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

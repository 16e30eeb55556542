"""Dense tensors with reverse-mode automatic differentiation.

One rule sets the dtype.  An op that records a node, because some operand
requires grad, computes in float64 and returns float64; a float32 operand
is promoted to float64 there.  An op that records no node (the forward of
a frozen encoder) computes in float32, and its output keeps float32, so
the next frozen op reads it without a copy.  ``Tensor(...)`` built by a
caller is float64.  ``_compute_arrays`` holds the rule, and every op reads
its operands through it, with two exceptions on the frozen side: the ops
that only move values (``reshape``, ``transpose``, ``stack``) keep their
operands' dtype, and the loss ``softmax_cross_entropy`` computes in
float64.  ``backward`` and the gradient checks stay float64.  The dtype
is the only difference: frozen or taped, each op runs one algorithm
(attention normalises after its value product, ``_attention_into``).

A frozen forward's output agrees with the float64 taped forward within
1e-5 of its largest magnitude.  Measured over a whole encoder (``conv1d``
80 -> 128 channels over 998 log-mel frames, two post-norm layers with 4
heads and a 256-wide feed-forward, the benchmark's checkpoint, 16 clips):
each state within 8.93e-7 of its largest magnitude, and the mean-pooled
[layers + 1, dim] stacks within 8.50e-7 of each layer's.

The engine is a plain tape, and its ops take Tensors: an array enters only
through ``Tensor(...)``, which checks it, and an op given an array fails
with Python's AttributeError.  Every operation that involves a tensor
with ``requires_grad`` gives its output a node: the tape entries of its
parents and a closure, ``grad_fn``, that maps the output gradient to one
gradient per entry, which ``backward`` relies on: an array of the parent's
shape if the entry is not None, and None if it is (a constant).  A
composite op (``multi_head_attention``, ``feed_forward``,
``layer_norm_residual``) computes its inner gradients whole, whichever of
its operands require grad, and skips only the per-parent products: the
input, weight and bias products of each linear map, and layer norm's gain
and bias sums.

A closure captures arrays and flags, never a Tensor, and what it saves is
fixed when the op is recorded: only the arrays its backward reads
(``linear`` keeps ``w`` only when ``x`` requires grad, ``relu`` keeps only
its mask).  So an intermediate Tensor that the forward code drops frees
its data unless a backward reads it.  A layer's bias and its residual sum
are folded into the op that makes them (``linear``,
``layer_norm_residual``), so no pre-bias product or residual sum is made
to be kept.  Each encoder sublayer is one op
(``multi_head_attention``, ``feed_forward``) that keeps its input and
recomputes its inner activations in the backward.  The feed-forward keeps
only its input and recomputes its hidden layer by the forward's float
operations, bit for bit.  Attention keeps its input, its merged head
outputs and each row's log-sum-exp; it recomputes the q, k and v
projections bit for bit, and each head's weights from the log-sum-exps,
equal to rounding, over blocks of query rows (FlashAttention-2, Dao 2023).

``backward`` consumes the graph it walks: it releases each node's parents
and closure once it has used them, so saved arrays are freed as the walk
passes them, and a later backward that reaches a consumed node raises
StaleGraph.  Only the operators the bundled speech models need are
implemented, each in the one form they use: ``add`` takes two tensors of
one shape, ``feed_forward`` and ``layer_norm_residual`` take [rows, dim],
``softmax_cross_entropy`` takes [batch, classes], ``stack`` adds a first
axis, ``transpose`` and ``tmean`` take explicit axes, and layer norm adds
``LAYER_NORM_EPS`` = 1e-5 to the variance.  There is no GPU path and no
broadcasting.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.array_utils import normalize_axis_index

from .errors import (
    HeadMismatch,
    InputTooShort,
    LabelError,
    NotReal,
    ShapeError,
    StaleGraph,
    finite,
    is_whole,
    real_array,
)

LAYER_NORM_EPS = 1e-5


class Tensor:
    """A numpy array plus the bookkeeping reverse mode needs: float64, or
    float32 if an op that records no node made it (the module docstring).

    ``grad`` is populated by :func:`backward` on tensors that require
    gradients.  Intermediate gradients are not retained.  A tensor made by a
    recorded op holds that op's ``_node``; a leaf's ``_node`` is None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = real_array(data, "tensor data").astype(np.float64, copy=False)
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
    once it has called ``grad_fn``, so a consumed node has ``grad_fn`` None."""

    __slots__ = ("parents", "grad_fn")

    def __init__(self, parents: tuple, grad_fn):
        self.parents = parents
        self.grad_fn = grad_fn


def _from_op(data, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    """The output of an op: with a node if any parent requires grad, and
    ``data`` as the op computed it, in the dtype ``_compute_arrays`` chose."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out._node = np.asarray(data), None, None
    out.requires_grad = _records(parents)
    if out.requires_grad:
        out._node = _Node(tuple((p if p._node is None else p._node) if p.requires_grad
                                else None for p in parents), grad_fn)
    return out


def _records(tensors) -> bool:
    """Whether an op over ``tensors`` records a node: some operand requires grad."""
    return any(t.requires_grad for t in tensors)


def _compute_arrays(tensors, frozen=np.float32) -> list[np.ndarray]:
    """The operands' arrays in the dtype their op computes in: float64 if the
    op records a node, and ``frozen`` if it does not.  ``frozen`` is None for
    an op that only moves values, which keeps each operand's own dtype.  An
    array already in that dtype comes back as itself, so the taped path
    copies nothing, and neither does a frozen op on a frozen op's output."""
    if _records(tensors):
        frozen = np.float64
    return [t.data if frozen is None else t.data.astype(frozen, copy=False)
            for t in tensors]


def _axis(axis, ndim: int, op: str) -> int:
    """``axis`` of an ``ndim``-dimensional operand as an index in [0, ndim):
    ShapeError unless it is a whole number (``is_whole``) in [-ndim, ndim)."""
    if not is_whole(axis):
        raise ShapeError(f"{op}: an axis must be a whole number, got {axis!r}")
    try:
        return normalize_axis_index(axis, ndim)
    except np.exceptions.AxisError as exc:
        raise ShapeError(f"{op}: no axis {axis!r} in {ndim} dimensions") from exc


# ---------------------------------------------------------------------------
# primitive operators
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b`` of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add needs operands of one shape, got {a.shape} and {b.shape}")
    a_grad, b_grad = a.requires_grad, b.requires_grad
    a_data, b_data = _compute_arrays((a, b))

    def grad_fn(g):
        return g if a_grad else None, g if b_grad else None

    return _from_op(a_data + b_data, (a, b), grad_fn)


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
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"linear expects x [d_in] or [rows, d_in], got {x.shape}")
    d_out = _check_layer("linear", x.shape[-1], w, b)
    x_data, w_data, b_data = _compute_arrays((x, w, b))
    x2 = x_data.reshape(-1, x.shape[-1])
    rows, x_shape = x2.shape[0], x.shape  # reshape(-1, d_out) cannot infer rows if d_out == 0
    data = _affine(x2, w_data, b_data)
    flags = (x.requires_grad, w.requires_grad, b.requires_grad)
    w_data = w_data if flags[0] else None
    x2 = x2 if flags[1] else None

    def grad_fn(g):
        gx, gw, gb = _linear_grads(g.reshape(rows, d_out), x2, w_data, flags)
        return None if gx is None else gx.reshape(x_shape), gw, gb

    return _from_op(data.reshape(x_shape[:-1] + (d_out,)), (x, w, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), which keeps NaN; the mask of positive inputs is made only
    for a backward to read."""
    (x_data,) = _compute_arrays((x,))
    mask = x_data > 0 if x.requires_grad else None

    def grad_fn(g):
        return (g * mask,)

    return _from_op(np.maximum(x_data, 0.0), (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    try:
        data = _compute_arrays((x,), frozen=None)[0].reshape(shape)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"cannot reshape {old} to {shape}") from exc

    def grad_fn(g):
        return (g.reshape(old),)

    return _from_op(data, (x,), grad_fn)


def transpose(x: Tensor, axes) -> Tensor:
    ndim = x.data.ndim
    if not np.iterable(axes):
        raise ShapeError(f"transpose needs a sequence of axes, got {axes!r}")
    axes = tuple(_axis(a, ndim, "transpose") for a in axes)
    if sorted(axes) != list(range(ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation of {ndim} axes")
    inverse = np.argsort(axes)

    def grad_fn(g):
        return (g.transpose(inverse),)

    return _from_op(_compute_arrays((x,), frozen=None)[0].transpose(axes), (x,), grad_fn)


def tmean(x: Tensor, axis: int) -> Tensor:
    shape = x.shape
    axis = _axis(axis, x.data.ndim, "tmean")
    count = shape[axis]
    if count == 0:
        raise ShapeError(f"tmean over no elements: axis {axis} of {shape}")

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / count, shape).copy(),)

    return _from_op(_compute_arrays((x,))[0].mean(axis=axis), (x,), grad_fn)


def stack(tensors) -> Tensor:
    """Stack same-shape tensors along a new first axis (used to batch clip logits)."""
    if not tensors:
        raise ShapeError("stack needs at least one tensor")
    base = tensors[0].shape
    if any(t.shape != base for t in tensors):
        raise ShapeError("stack needs tensors of identical shape")
    data = np.stack(_compute_arrays(tensors, frozen=None))
    flags = [t.requires_grad for t in tensors]

    def grad_fn(g):
        return tuple(gi if f else None for gi, f in zip(g, flags))

    return _from_op(data, tuple(tensors), grad_fn)


def _attention_into(q: np.ndarray, k: np.ndarray, v: np.ndarray, out: np.ndarray,
                    lse: np.ndarray) -> None:
    """softmax(q kᵀ / sqrt(d)) v of each head (Vaswani et al. 2017, arXiv
    1706.03762) into ``out`` [heads, frames_q, d_v], from ``q`` [heads,
    frames_q, d], ``k`` [heads, frames_k, d] and ``v`` [heads, frames_k,
    d_v], in ``q``'s dtype (the module docstring's rule).  ``q`` is scaled
    in place, and each head's weights go into one reused [frames_q,
    frames_k] buffer.

    It normalises after the value product, the deferred normalisation of
    FlashAttention (Dao et al. 2022, arXiv 2205.14135): each head's
    exp(s - rowmax) multiplies [v | 1], and the output is that product
    divided by its last column, the row sums l.  So no pass sums or divides
    the [frames_q, frames_k] weights.  Each row's log-sum-exp, rowmax +
    log(l), goes into ``lse`` [heads, frames_q, 1] for a backward.  On one
    [498, 32] float32 head this takes 0.81 ms against 0.91 ms normalising
    first (best of 40 × 50, one BLAS thread)."""
    q *= 1.0 / math.sqrt(q.shape[-1])
    d_v = v.shape[-1]
    p = np.empty((q.shape[-2], k.shape[-2]), dtype=q.dtype)
    v_one = np.ones(v.shape[-2:-1] + (d_v + 1,), dtype=v.dtype)
    p_v_one = np.empty((q.shape[-2], d_v + 1), dtype=q.dtype)
    for i in range(len(q)):
        v_one[:, :d_v] = v[i]
        np.matmul(q[i], k[i].T, out=p)
        row_max = p.max(axis=-1, keepdims=True)
        np.matmul(np.exp(np.subtract(p, row_max, out=p), out=p), v_one, out=p_v_one)
        np.divide(p_v_one[:, :d_v], p_v_one[:, d_v:], out=out[i])
        np.add(np.log(p_v_one[:, d_v:], out=lse[i]), row_max, out=lse[i])


_QUERY_BLOCK = 128  # query rows per block of the attention backward


def _attention_grads(q: np.ndarray, k: np.ndarray, v: np.ndarray, out, g: np.ndarray,
                     lse: np.ndarray):
    """The backward of ``_attention_into`` for the output gradient ``g``.  It
    writes q's and v's gradients over ``q`` and ``v``, and returns k's
    gradient as a [heads, frames_k, d] view of a [frames_k, heads, d] array,
    which merged over heads is a C-ordered [frames_k, heads * d] view, the
    layout of the batched formula's merged copy.  ``out`` is the forward's
    output and ``lse`` its row log-sum-exps.

    The backward of FlashAttention-2 (Dao 2023, arXiv 2307.08691), one head
    at a time over blocks of ``_QUERY_BLOCK`` query rows (the last may be
    short), so its scratch is two [block, frames_k] arrays.  The row
    constants are folded into the products: a block's weights are p =
    exp([q | -lse] [k | 1]ᵀ) and its score gradient gs = ([g | -D] [v | 1]ᵀ)
    ∘ p, where D = rowsum(g ∘ out) equals rowsum((g vᵀ) ∘ p) (Dao et al.
    2022).  So each block makes two elementwise passes, exp and multiply.
    v's and k's gradients sum pᵀ g and gsᵀ q over the blocks, and q's is gs
    k, block by block."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    (heads, frames_q, d), (frames_k, d_v) = q.shape, v.shape[-2:]
    q_lse, k_one = np.empty((frames_q, d + 1)), np.ones((frames_k, d + 1))
    g_d, v_one = np.empty((frames_q, d_v + 1)), np.ones((frames_k, d_v + 1))
    p = np.empty((min(_QUERY_BLOCK, frames_q), frames_k))
    gs, gk = np.empty_like(p), np.zeros((frames_k, heads, d))
    for i in range(heads):
        np.multiply(q[i], scale, out=q_lse[:, :d])
        np.negative(lse[i], out=q_lse[:, d:])
        np.multiply(g[i], out[i], out=g_d[:, :d_v])
        np.negative(g_d[:, :d_v].sum(axis=-1, keepdims=True), out=g_d[:, d_v:])
        g_d[:, :d_v], k_one[:, :d], v_one[:, :d_v] = g[i], k[i], v[i]
        v[i] = 0.0  # v's gradient is summed over the blocks in its place
        for r in range(0, frames_q, _QUERY_BLOCK):
            rows, n = slice(r, r + _QUERY_BLOCK), min(_QUERY_BLOCK, frames_q - r)
            np.exp(np.matmul(q_lse[rows], k_one.T, out=p[:n]), out=p[:n])
            np.multiply(np.matmul(g_d[rows], v_one.T, out=gs[:n]), p[:n], out=gs[:n])
            v[i] += p[:n].T @ g[i, rows]
            gk[:, i] += gs[:n].T @ q_lse[rows, :d]
            np.matmul(gs[:n], k[i], out=q[i, rows])
    q *= scale
    return gk.transpose(1, 0, 2)


def multi_head_attention(x: Tensor, num_heads: int, wq: Tensor, bq: Tensor, wk: Tensor,
                         bk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor) -> Tensor:
    """Scaled dot-product self-attention over ``x`` [frames, dim] as one
    tape op: q, k and v are linear projections of ``x`` ([dim, dim]
    weights); each of the ``num_heads`` heads attends with softmax(q kᵀ /
    sqrt(dim/heads)) v; the head outputs are merged and pass through the
    output projection ``wo`` [dim, d_out] plus ``bo``.

    The heads write their outputs straight into one [frames, heads,
    head_dim] array, which is also the output projection's input.  Taped
    or frozen, each head normalises after its value product
    (``_attention_into``); only the dtype differs (the module docstring's
    rule).  The node keeps ``x``, the merged outputs and each row's
    log-sum-exp [heads, frames, 1].  Its backward recomputes q, k and v
    with ``linear``'s float operations, and then each head's weights from
    the log-sum-exps, a block of query rows at a time (``_attention_grads``),
    writing q's and v's gradients over the recomputed q and v.  Its parents
    are (x, wq, bq, x, wk, bk, x, wv, bv, wo, bo), so x's three projection
    gradients are summed in the order q, k, v.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"attention expects x [frames, dim], got {x.shape}")
    frames, dim = x.shape
    if not is_whole(num_heads) or num_heads < 1:
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

    x2, *proj, wo_data, bo_data = _compute_arrays((x, wq, bq, wk, bk, wv, bv, wo, bo))
    proj = list(zip(proj[::2], proj[1::2]))
    merged = np.empty((frames, dim), dtype=x2.dtype)
    lse = np.empty((num_heads, frames, 1), dtype=x2.dtype)
    _attention_into(*(split(_affine(x2, w, b)) for w, b in proj), split(merged), lse)
    data = _affine(merged, wo_data, bo_data)

    flags = [(x.requires_grad, w.requires_grad, b.requires_grad) for w, b in projections]
    out_flags = (False, wo.requires_grad, bo.requires_grad)

    def grad_fn(g):
        projected = [_affine(x2, w, b) for w, b in proj]
        gk = _attention_grads(*(split(a) for a in projected), split(merged),
                              split(g @ wo_data.T), lse)
        projected[1] = gk.transpose(1, 0, 2).reshape(frames, dim)  # a view, not a copy
        grads = [grad for gp, (w, _), f in zip(projected, proj, flags)
                 for grad in _linear_grads(gp, x2, w, f)]
        # wo's and bo's gradients last: none is held through the attention backward
        return (*grads, *_linear_grads(g, merged, None, out_flags)[1:])

    return _from_op(data, (x, wq, bq, x, wk, bk, x, wv, bv, wo, bo), grad_fn)


def _relu_affine(x2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(x2 @ w + b) by the float operations of ``linear`` and ``relu``,
    with the ReLU applied in place."""
    h = _affine(x2, w, b)
    return np.maximum(h, 0.0, out=h)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The position-wise two-layer network relu(x @ w1 + b1) @ w2 + b2 as one
    tape op, for ``x`` [rows, d_in], ``w1`` [d_in, hidden] and ``w2``
    [hidden, d_out].  The node keeps only ``x`` (and the weights it reads);
    its backward recomputes the hidden layer by the forward's float
    operations, and makes the ReLU mask from it.  As ``relu``, the hidden
    ReLU keeps NaN."""
    if x.data.ndim != 2:
        raise ShapeError(f"feed_forward expects x [rows, d_in], got {x.shape}")
    hidden = _check_layer("feed_forward", x.shape[1], w1, b1)
    _check_layer("feed_forward", hidden, w2, b2)
    x2, w1_data, b1_data, w2_data, b2_data = _compute_arrays((x, w1, b1, w2, b2))
    data = _affine(_relu_affine(x2, w1_data, b1_data), w2_data, b2_data)
    flags = (x.requires_grad, w1.requires_grad, b1.requires_grad)
    out_flags = (True, w2.requires_grad, b2.requires_grad)

    def grad_fn(g):
        h = _relu_affine(x2, w1_data, b1_data)
        gh, gw2, gb2 = _linear_grads(g, h, w2_data, out_flags)
        mask = h > 0
        del h
        gh *= mask
        return (*_linear_grads(gh, x2, w1_data, flags), gw2, gb2)

    return _from_op(data, (x, w1, b1, w2, b2), grad_fn)


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2) -> Tensor:
    """Valid cross-correlation of ``x`` [c_in, length] with ``w``
    [c_out, c_in, window], plus the bias ``b`` [c_out], hopping ``stride``
    samples per output frame.

    out_length = floor((length - window) / stride) + 1.
    """
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError(f"conv1d expects [c_in, L] and [c_out, c_in, W], got {x.shape}, {w.shape}")
    c_in, length = x.shape
    c_out, w_cin, window = w.shape
    if w_cin != c_in:
        raise ShapeError(f"conv1d channel mismatch: input has {c_in}, weights expect {w_cin}")
    if length < window:
        raise InputTooShort(f"conv1d input length {length} < window {window}")
    if not is_whole(stride) or stride < 1:
        raise ShapeError(f"conv1d stride must be an integer of at least 1, got {stride!r}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv1d bias must have shape ({c_out},), got {b.shape}")

    out_length = (length - window) // stride + 1
    # [c_in, window, out_length] view, no copy; reshaping it to the
    # [c_in*window, out_length] column matrix copies, so the closure keeps
    # only the view and rebuilds the columns when it needs them
    x_data, w_data, b_data = _compute_arrays((x, w, b))
    windows = np.lib.stride_tricks.sliding_window_view(
        x_data, window, axis=1)[:, ::stride, :].transpose(0, 2, 1)
    w2 = w_data.reshape(c_out, c_in * window)
    data = w2 @ windows.reshape(c_in * window, out_length)
    data += b_data[:, None]
    x_shape, w_shape = x.shape, w.shape
    b_grad = b.requires_grad
    w2 = w2 if x.requires_grad else None
    windows = windows if w.requires_grad else None

    def grad_fn(g):
        # g: [c_out, out_length]
        gx = gw = None
        if w2 is not None:
            per_tap = (w2.T @ g).reshape(c_in, window, out_length)
            gx = np.zeros(x_shape)
            span = stride * out_length
            for k in range(window):
                gx[:, k:k + span:stride] += per_tap[:, k, :]
        if windows is not None:
            gw = (g @ windows.reshape(c_in * window, out_length).T).reshape(w_shape)
        return gx, gw, g.sum(axis=1) if b_grad else None

    return _from_op(data, (x, w, b), grad_fn)


def layer_norm_residual(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of the residual sum ``x + y``, both [rows, dim],
    to zero mean, unit variance, then apply an elementwise affine ``gain *
    xhat + bias`` with ``gain`` and ``bias`` [dim].

    Variance is the population variance and ``LAYER_NORM_EPS`` sits inside
    the square root, so constant rows map to zero rather than NaN.  The sum is
    normalized in place, so the tape keeps only ``xhat``, the row scales and
    the gain; ``x`` and ``y`` receive the same gradient array.
    """
    if x.shape != y.shape:
        raise ShapeError(f"residual shapes differ: {x.shape} vs {y.shape}")
    if x.data.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"layer norm expects [rows, dim] with dim >= 1, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer norm affine params must have shape ({d},)")
    x_data, y_data, gain_data, bias_data = _compute_arrays((x, y, gain, bias))
    xhat = x_data + y_data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat ** 2).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv_std
    data = gain_data * xhat
    data += bias_data
    x_grad, y_grad = x.requires_grad, y.requires_grad
    gain_grad, bias_grad = gain.requires_grad, bias.requires_grad

    def grad_fn(g):
        ggain = (g * xhat).sum(axis=0) if gain_grad else None
        gbias = g.sum(axis=0) if bias_grad else None
        gxhat = g * gain_data
        gx = gxhat - gxhat.mean(axis=-1, keepdims=True)
        gx -= xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx *= inv_std
        return (gx if x_grad else None, gx if y_grad else None, ggain, gbias)

    return _from_op(data, (x, y, gain, bias), grad_fn)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], log-sum-exp
    stabilized so extreme logits cannot overflow.

    ``logits`` is [batch, classes] and ``labels`` holds [batch] integer
    class ids; any other labels, ragged lists too, raise LabelError.
    """
    (z,) = _compute_arrays((logits,), frozen=np.float64)
    if z.ndim != 2:
        raise ShapeError(f"logits must be [batch, classes], got {logits.shape}")
    try:
        raw = real_array(labels, "labels")
    except (ShapeError, NotReal) as exc:
        raise LabelError(f"labels must be integral class ids: {exc}") from exc
    if raw.dtype.kind == "f" and not (np.isfinite(raw) & (raw == np.round(raw))).all():
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
    finite(z, "softmax_cross_entropy logits")

    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    losses = lse - shifted[np.arange(n), labels]
    data = losses.mean()

    def grad_fn(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (p * (g / n),)

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
            if entry.grad_fn is None:
                raise StaleGraph("backward already ran through this graph; "
                                 "rerun the forward pass")
            for parent in entry.parents:
                if parent is not None and id(parent) not in seen:
                    todo.append((parent, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while order:
        entry = order.pop()
        g = grads.pop(id(entry))  # a consumer set it: the grad_fn contract
        if isinstance(entry, Tensor):
            # leaf: accumulate into the persistent grad slot
            entry.grad = g if entry.grad is None else entry.grad + g
            continue
        for parent, pg in zip(entry.parents, entry.grad_fn(g)):
            if parent is not None:
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg
        entry.parents, entry.grad_fn = (), None


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

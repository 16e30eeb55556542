"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is a plain tape: every operation that involves a tensor with
``requires_grad`` records its parents and a closure that maps the output
gradient to parent gradients.  ``backward`` walks the tape in reverse
topological order.  A ``grad_fn`` returns ``None`` for a parent that does
not require grad, and skips computing that gradient.  Only the operators
the bundled speech models need are implemented; there is no GPU path and
no broadcasting beyond what bias addition requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InputTooShort,
    InvalidProbability,
    LabelError,
    ShapeError,
    StaleGraph,
)


class Tensor:
    """A numpy float64 array plus the bookkeeping reverse mode needs.

    ``grad`` is populated by :func:`backward` on tensors that require
    gradients.  Intermediate gradients are not retained.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None
        self._done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; scalars are promoted to constant tensors
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes or None)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self, axis=None):
        return tmean(self, axis)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


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

    def grad_fn(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), grad_fn)


def mul(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"cannot multiply {a.shape} and {b.shape}") from exc

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _from_op(data, (a, b), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-d matrix product, or batched product of stacks with equal batch dims."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul needs operands of rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def grad_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None
        return ga, gb

    return _from_op(data, (a, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _from_op(np.where(mask, x.data, 0.0), (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    old = x.shape

    def grad_fn(g):
        return (g.reshape(old),)

    return _from_op(x.data.reshape(shape), (x,), grad_fn)


def transpose(x: Tensor, axes=None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    inverse = np.argsort(axes)

    def grad_fn(g):
        return (g.transpose(inverse),)

    return _from_op(x.data.transpose(axes), (x,), grad_fn)


def tsum(x: Tensor, axis=None) -> Tensor:
    x = as_tensor(x)

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _from_op(x.data.sum(axis=axis), (x,), grad_fn)


def tmean(x: Tensor, axis=None) -> Tensor:
    x = as_tensor(x)
    count = x.data.size if axis is None else x.shape[axis]

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, x.shape).copy(),)

    return _from_op(x.data.mean(axis=axis), (x,), grad_fn)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis (used to batch clip logits)."""
    tensors = [as_tensor(t) for t in tensors]
    base = tensors[0].shape
    if any(t.shape != base for t in tensors):
        raise ShapeError("stack needs tensors of identical shape")
    data = np.stack([t.data for t in tensors], axis=axis)

    def grad_fn(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return _from_op(data, tuple(tensors), grad_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along ``axis``; rows sum to one."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)

    return _from_op(s, (x,), grad_fn)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Zero elements with probability ``p`` and rescale survivors by 1/(1-p).

    Identity in inference mode or at p == 0.  The generator is consumed only
    when a mask is actually drawn, so seeded runs stay reproducible.
    """
    if not 0.0 <= p < 1.0:
        raise InvalidProbability(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    if not training or p == 0.0:
        def grad_fn(g):
            return (g,)
        return _from_op(x.data.copy(), (x,), grad_fn)

    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)

    def grad_fn(g):
        return (g * keep * scale,)

    return _from_op(np.where(keep, x.data * scale, 0.0), (x,), grad_fn)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 2) -> Tensor:
    """Valid cross-correlation of ``x`` [c_in, length] with ``w``
    [c_out, c_in, window], hopping ``stride`` samples per output frame.

    out_length = floor((length - window) / stride) + 1.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError(f"conv1d expects [c_in, L] and [c_out, c_in, W], got {x.shape}, {w.shape}")
    c_in, length = x.shape
    c_out, w_cin, window = w.shape
    if w_cin != c_in:
        raise ShapeError(f"conv1d channel mismatch: input has {c_in}, weights expect {w_cin}")
    if length < window:
        raise InputTooShort(f"conv1d input length {length} < window {window}")
    if stride < 1:
        raise ShapeError(f"conv1d stride must be at least 1, got {stride}")
    if b is not None:
        b = as_tensor(b)
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
    if b is not None:
        data = data + b.data[:, None]

    def grad_fn(g):
        # g: [c_out, out_length]
        gx = gw = gb = None
        if x.requires_grad:
            per_tap = (w2.T @ g).reshape(c_in, window, out_length)
            gx = np.zeros_like(x.data)
            span = stride * out_length
            for k in range(window):
                gx[:, k:k + span:stride] += per_tap[:, k, :]
        if w.requires_grad:
            gw = (g @ windows.reshape(c_in * window, out_length).T).reshape(w.shape)
        if b is not None and b.requires_grad:
            gb = g.sum(axis=1)
        return (gx, gw) if b is None else (gx, gw, gb)

    parents = (x, w) if b is None else (x, w, b)
    return _from_op(data, parents, grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of ``x`` (last axis) to zero mean, unit variance,
    then apply an elementwise affine ``gain * xhat + bias``.

    Variance is the population variance and ``eps`` sits inside the square
    root, so constant rows map to zero rather than NaN.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    data = gain.data * xhat + bias.data

    def grad_fn(g):
        reduce_axes = tuple(range(x.data.ndim - 1))
        ggain = (g * xhat).sum(axis=reduce_axes)
        gbias = g.sum(axis=reduce_axes)
        gxhat = g * gain.data
        gx = inv_std * (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, ggain, gbias

    return _from_op(data, (x, gain, bias), grad_fn)


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
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, c = z.shape
    if labels.shape != (n,):
        raise LabelError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise LabelError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")

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
    """Populate ``grad`` on every requires-grad tensor reachable from ``loss``.

    ``loss`` must be a scalar produced by a recorded forward pass; calling
    backward twice on the same output raises StaleGraph.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise StaleGraph("backward already ran on this graph; rerun the forward pass")
    if not loss.requires_grad:
        raise StaleGraph("loss does not depend on any tensor that requires grad")
    loss._done = True

    order: list[Tensor] = []
    seen: set[int] = set()
    stack_ = [(loss, False)]
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack_.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            # leaf: accumulate into the persistent grad slot
            node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._grad_fn(g)
        for parent, pg in zip(node._parents, parent_grads):
            if not parent.requires_grad or pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass
class Parameter:
    """A named model weight.  Frozen parameters never receive gradients and
    are bit-identical across optimizer steps."""

    tensor: Tensor
    trainable: bool = True
    name: str = ""

    def __post_init__(self):
        self.tensor.requires_grad = self.trainable

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self) -> np.ndarray | None:
        return self.tensor.grad

    def freeze(self) -> None:
        self.trainable = False
        self.tensor.requires_grad = False
        self.tensor.grad = None

    def unfreeze(self) -> None:
        self.trainable = True
        self.tensor.requires_grad = True

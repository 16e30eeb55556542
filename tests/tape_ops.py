"""Every op of ``aftx.tensor`` that records a node, as one table: the
gradient oracle and the per-op tape contract tests run over its rows, and
so do the two tests of the dtype rule (tensor.py's module docstring): the
frozen forward's dtype and bound, and the exact promotion of float32
operands into a recorded op.

A row holds the op over Tensors, an independent numpy forward of it, its
operand shapes for ``n`` rows, and, where the op has a ReLU, the
pre-activation that a finite difference must not straddle.  A row's name
is the ``tensor.py`` function it calls, then, where the table holds more
than one form of it, a hyphen and the form.  A new op is one more row,
and gets every one of these tests with no other edit.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from aftx.tensor import (
    Tensor,
    add,
    conv1d,
    feed_forward,
    layer_norm_residual,
    linear,
    multi_head_attention,
    relu,
    reshape,
    softmax_cross_entropy,
    stack,
    tmean,
    transpose,
)

KINK = 1e-3  # the least |pre-activation| of a drawn ReLU input


class TapeOp(NamedTuple):
    name: str
    op: Callable
    forward: Callable
    shapes: Callable
    pre_activation: Callable | None = None

    @property
    def function(self) -> str:
        """The ``tensor.py`` function that the row calls."""
        return self.name.split("-")[0]


def operands(row: TapeOp, rng, n: int) -> list[np.ndarray]:
    """Standard normal operands of the row's shapes for ``n`` rows, drawn
    again while a ReLU pre-activation lies within ``KINK`` of zero."""
    while True:
        arrays = [rng.standard_normal(s) for s in row.shapes(n)]
        if row.pre_activation is None or np.abs(row.pre_activation(*arrays)).min() >= KINK:
            return arrays


def call(row: TapeOp, arrays, trained) -> Tensor:
    """The row's op over Tensors of ``arrays``; those at the indices in
    ``trained`` require grad."""
    return row.op(*(Tensor(a, requires_grad=i in trained) for i, a in enumerate(arrays)))


def _labels(rows):
    return np.arange(rows) % 2


def _softmax_cross_entropy(z):
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return (lse - shifted[np.arange(len(z)), _labels(len(z))]).mean()


def _conv1d(x, w, b, stride):
    """An explicit loop over output frames."""
    c_out, _, window = w.shape
    out = np.zeros((c_out, (x.shape[1] - window) // stride + 1))
    for o in range(c_out):
        for j in range(out.shape[1]):
            out[o, j] = (w[o] * x[:, stride * j:stride * j + window]).sum() + b[o]
    return out


def _conv1d_row(stride, window):
    """x [2, length] with ``n`` output frames and stride - 1 samples after
    the last window, w [3, 2, window] and b [3]."""
    return TapeOp(f"conv1d-stride{stride}-window{window}",
                  lambda x, w, b: conv1d(x, w, b, stride=stride),
                  lambda x, w, b: _conv1d(x, w, b, stride),
                  lambda n: [(2, stride * n + window - 1), (3, 2, window), (3,)])


def _layer_norm_residual(x, y, gain, bias):
    s = x + y
    mu = s.mean(axis=-1, keepdims=True)
    var = ((s - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (s - mu) / np.sqrt(var + 1e-5) + bias


def _multi_head_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads=2):
    frames, dim = x.shape

    def split(t):
        return t.reshape(frames, heads, dim // heads).transpose(1, 0, 2)

    q, k, v = (split(x @ w + b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dim // heads)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
    return ctx.transpose(1, 0, 2).reshape(frames, dim) @ wo + bo


TAPE_OPS = [
    TapeOp("add", add, np.add, lambda n: [(n, 4), (n, 4)]),
    TapeOp("relu", relu, lambda x: np.maximum(x, 0.0), lambda n: [(n, 4)],
           lambda x: x),
    TapeOp("reshape", lambda x: reshape(x, x.shape[::-1]), lambda x: x.reshape(x.shape[::-1]),
           lambda n: [(n, 4)]),
    TapeOp("transpose", lambda x: transpose(x, (2, 0, 1)), lambda x: x.transpose(2, 0, 1),
           lambda n: [(n, 3, 2)]),
    # over the middle axis, so that the gradient must be expanded at that axis
    TapeOp("tmean", lambda x: tmean(x, 1), lambda x: x.mean(axis=1), lambda n: [(n, 4, 2)]),
    TapeOp("stack", lambda *t: stack(list(t)), lambda *a: np.stack(a),
           lambda n: [(n,), (n,), (n,)]),
    TapeOp("linear-1d", linear, lambda x, w, b: x @ w + b,
           lambda n: [(4,), (4, 3), (3,)]),
    TapeOp("linear-2d", linear, lambda x, w, b: x @ w + b,
           lambda n: [(n, 4), (4, 3), (3,)]),
    _conv1d_row(stride=2, window=3),
    _conv1d_row(stride=4, window=5),
    TapeOp("layer_norm_residual", layer_norm_residual, _layer_norm_residual,
           lambda n: [(n, 6), (n, 6), (6,), (6,)]),
    # 2 heads; the output projection [4, 5] makes the output width differ from dim
    TapeOp("multi_head_attention", lambda x, *w: multi_head_attention(x, 2, *w),
           _multi_head_attention, lambda n: [(n, 4), *[(4, 4), (4,)] * 3, (4, 5), (5,)]),
    TapeOp("feed_forward", feed_forward,
           lambda x, w1, b1, w2, b2: np.maximum(x @ w1 + b1, 0.0) @ w2 + b2,
           lambda n: [(n, 4), (4, 6), (6,), (6, 5), (5,)],
           lambda x, w1, b1, w2, b2: x @ w1 + b1),
    TapeOp("softmax_cross_entropy", lambda z: softmax_cross_entropy(z, _labels(z.shape[0])),
           _softmax_cross_entropy, lambda n: [(n, 2)]),
]

NAMES = [row.name for row in TAPE_OPS]

"""Transformer encoder building blocks assembled from the autograd primitives.

Each function takes explicit weight tensors, so a model can stay a thin
container of named parameters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HeadMismatch, OddDimension, ShapeError
from .tensor import (Tensor, _weights_into, add_layer_norm, affine, attention, relu, reshape,
                     transpose)


def positional_encoding(num_frames: int, dim: int) -> Tensor:
    """Sinusoidal position table [num_frames, dim].

    PE[pos, 2i] = sin(pos / 10000^(2i/dim)) and PE[pos, 2i+1] = cos(...),
    so row 0 alternates 0, 1, 0, 1.  Constant: it carries no gradient.
    """
    if dim % 2 != 0:
        raise OddDimension(f"positional encoding dimension must be even, got {dim}")
    if num_frames < 1 or dim < 1:
        raise ShapeError("positional encoding needs positive num_frames and dim")
    pos = np.arange(num_frames, dtype=np.float64)[:, None]
    inv_freq = np.power(10000.0, -np.arange(0, dim, 2, dtype=np.float64) / dim)
    angles = pos * inv_freq[None, :]
    table = np.empty((num_frames, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return Tensor(table)


def linear(x: Tensor, weight, bias) -> Tensor:
    """x @ weight + bias.  Weight is [d_in, d_out]; x is [d_in] or [rows, d_in]."""
    return affine(x, weight, bias)


def multi_head_attention(
    x: Tensor,
    num_heads: int,
    wq, bq, wk, bk, wv, bv, wo, bo,
    return_weights: bool = False,
):
    """Scaled dot-product self-attention over ``x`` [frames, dim].

    Queries, keys and values are linear projections of ``x``; each of the
    ``num_heads`` heads attends with softmax(Q Kᵀ / sqrt(dim/heads)), the head
    outputs are concatenated and passed through the output projection.

    With ``return_weights`` the read-only per-head attention weights [heads,
    frames, frames] are returned alongside, as a plain array whose rows sum
    to one.  They are built only then, one head at a time, by the float
    operations that ``attention`` uses, which itself never keeps them.
    """
    if len(x.shape) != 2:
        raise ShapeError(f"attention expects x [frames, dim], got {x.shape}")
    dim = x.shape[-1]
    if not isinstance(num_heads, (int, np.integer)) or num_heads < 1:
        raise HeadMismatch(f"attention needs a positive whole number of heads, got {num_heads!r}")
    if dim % num_heads != 0:
        raise HeadMismatch(f"model dim {dim} is not divisible by {num_heads} heads")
    head_dim = dim // num_heads
    frames = x.shape[0]

    # scaling Q [frames, dim] equals scaling the [heads, frames, frames] scores
    q = linear(x, wq, bq) * (1.0 / math.sqrt(head_dim))
    k = linear(x, wk, bk)
    v = linear(x, wv, bv)

    def split(t):  # [frames, dim] -> [heads, frames, head_dim]
        return transpose(reshape(t, (frames, num_heads, head_dim)), (1, 0, 2))

    qh, kh, vh = split(q), split(k), split(v)
    ctx = attention(qh, kh, vh)
    merged = reshape(transpose(ctx, (1, 0, 2)), (frames, dim))
    out = linear(merged, wo, bo)
    if not return_weights:
        return out
    weights = np.empty((num_heads, frames, frames))
    row_max, row_sum = np.empty((frames, 1)), np.empty((frames, 1))
    for h in range(num_heads):
        _weights_into(qh.data[h], kh.data[h], weights[h], row_max, row_sum)
    weights.flags.writeable = False
    return out, weights


def feed_forward(x: Tensor, w1, b1, w2, b2) -> Tensor:
    """Position-wise two-layer network: relu(x @ w1 + b1) @ w2 + b2."""
    return linear(relu(linear(x, w1, b1)), w2, b2)


def layer_norm_residual(x: Tensor, sublayer_out: Tensor, gain, bias) -> Tensor:
    """Add the sublayer input to its output, then normalize each frame."""
    return add_layer_norm(x, sublayer_out, gain, bias)

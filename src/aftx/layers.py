"""Transformer encoder building blocks assembled from the autograd primitives.

Each function takes explicit weight tensors, so a model can stay a thin
container of named parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import HeadMismatch, OddDimension, ShapeError
from .tensor import Tensor, attention, layer_norm_residual, linear, relu, reshape, transpose


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


def multi_head_attention(x: Tensor, num_heads: int, wq, bq, wk, bk, wv, bv, wo, bo) -> Tensor:
    """Scaled dot-product self-attention over ``x`` [frames, dim].

    Queries, keys and values are linear projections of ``x``; each of the
    ``num_heads`` heads attends with ``attention``, softmax(Q Kᵀ /
    sqrt(dim/heads)) V, the head outputs are concatenated and passed through
    the output projection.  ``attention`` writes its output in the queries'
    [frames, heads, head_dim] memory order, so the concatenation is a view
    and the tape keeps one array for both ops.
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

    def split(w, b):  # [frames, dim] projection -> [heads, frames, head_dim]
        return transpose(reshape(linear(x, w, b), (frames, num_heads, head_dim)), (1, 0, 2))

    ctx = attention(split(wq, bq), split(wk, bk), split(wv, bv))
    return linear(reshape(transpose(ctx, (1, 0, 2)), (frames, dim)), wo, bo)


def feed_forward(x: Tensor, w1, b1, w2, b2) -> Tensor:
    """Position-wise two-layer network: relu(x @ w1 + b1) @ w2 + b2."""
    return linear(relu(linear(x, w1, b1)), w2, b2)

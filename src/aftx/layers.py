"""Transformer encoder building blocks.

The sinusoidal position table is made here.  The sublayers are tape ops of
``tensor.py`` (``multi_head_attention``, ``feed_forward``, ``linear``,
``layer_norm_residual``), imported here so that a model composes an
encoder from this module alone.  Each takes explicit weight tensors, so a
model can stay a thin container of named parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import OddDimension, ShapeError, is_whole
from .tensor import (  # noqa: F401  (the encoder's sublayers, re-exported)
    Tensor,
    feed_forward,
    layer_norm_residual,
    linear,
    multi_head_attention,
)


def positional_encoding(num_frames: int, dim: int) -> Tensor:
    """Sinusoidal position table [num_frames, dim].

    PE[pos, 2i] = sin(pos / 10000^(2i/dim)) and PE[pos, 2i+1] = cos(...),
    so row 0 alternates 0, 1, 0, 1.  Constant: it carries no gradient.
    """
    if not (is_whole(num_frames) and is_whole(dim)) or num_frames < 1 or dim < 1:
        raise ShapeError(f"positional encoding needs positive whole num_frames and dim, "
                         f"got {num_frames!r} and {dim!r}")
    if dim % 2 != 0:
        raise OddDimension(f"positional encoding dimension must be even, got {dim}")
    pos = np.arange(num_frames, dtype=np.float64)[:, None]
    inv_freq = np.power(10000.0, -np.arange(0, dim, 2, dtype=np.float64) / dim)
    angles = pos * inv_freq[None, :]
    table = np.empty((num_frames, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return Tensor(table)

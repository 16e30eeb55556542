"""Shape checks of the autograd ops, as properties over random shapes.

Each op gets operands of the shapes a valid call needs, built from a few
random sides, and half the time one operand gets a random shape instead.
A call either returns the documented output shape, and then a backward
from it gives every operand a gradient of its own shape, or it raises an
AftxError: never a bare numpy or Python error.  Over random shapes too,
the attention helpers behind ``multi_head_attention`` compute the same
numbers whatever the memory layout of their operands.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aftx.errors import AftxError
from aftx.layers import feed_forward, multi_head_attention
from aftx.tensor import (
    Tensor,
    _attention_grads,
    _attention_into,
    add,
    backward,
    conv1d,
    layer_norm_residual,
    linear,
    softmax,
)

from scalar_loss import project

sides = st.integers(0, 3)
any_shape = st.lists(sides, max_size=4).map(tuple)

# name -> (number of sides, the operand shapes of a valid call made from
# them, the call given operand tensors and a small integer k, and the
# documented output shapes given the operand shapes and k)
OPS = {
    "add": (2, lambda a, b: [(a, b), (b,)],
            lambda ts, k: add(*ts),
            lambda s, k: [np.broadcast_shapes(*s)]),
    "affine": (3, lambda r, i, o: [(r, i), (i, o), (o,)],
               lambda ts, k: linear(*ts),
               lambda s, k: [s[0][:-1] + s[1][-1:]]),
    "softmax": (2, lambda a, b: [(a, b)],
                lambda ts, k: softmax(ts[0], k),
                lambda s, k: [s[0]]),
    "conv1d": (4, lambda ci, extra, co, w: [(ci, w + extra), (co, ci, w), (co,)],
               lambda ts, k: conv1d(*ts, stride=k),
               lambda s, k: [(s[1][0], (s[0][1] - s[1][2]) // k + 1)]),
    "add_layer_norm": (2, lambda r, d: [(r, d), (r, d), (d,), (d,)],
                       lambda ts, k: layer_norm_residual(*ts),
                       lambda s, k: [s[0]]),
    "multi_head_attention": (3, lambda f, d, o: [(f, d), (d, d), (d,), (d, d), (d,),
                                                 (d, d), (d,), (d, o), (o,)],
                             lambda ts, k: multi_head_attention(ts[0], k, *ts[1:]),
                             lambda s, k: [s[0][:-1] + s[7][-1:]]),
    "feed_forward": (4, lambda r, d, h, o: [(r, d), (d, h), (h,), (h, o), (o,)],
                     lambda ts, k: feed_forward(*ts),
                     lambda s, k: [s[0][:-1] + s[3][-1:]]),
}


@st.composite
def operand_shapes(draw, name):
    count, valid, _, _ = OPS[name]
    shapes = valid(*(draw(sides) for _ in range(count)))
    if draw(st.booleans()):
        shapes[draw(st.integers(0, len(shapes) - 1))] = draw(any_shape)
    return shapes


@pytest.mark.parametrize("name", OPS)
@given(data=st.data())
def test_documented_shape_or_aftx_error(name, data):
    _, _, call, documented = OPS[name]
    shapes = data.draw(operand_shapes(name), label="shapes")
    k = data.draw(st.integers(-2, 4), label="k")
    rng = np.random.default_rng(0)
    operands = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    try:
        out = call(operands, k)
    except AftxError:
        return
    outs = out if isinstance(out, tuple) else (out,)
    assert [o.shape for o in outs] == documented(shapes, k)
    backward(project(outs[0], np.ones(outs[0].shape)))
    assert [t.grad.shape for t in operands] == [t.shape for t in operands]


@given(frames_q=st.integers(1, 24), frames_k=st.integers(1, 24), heads=st.integers(1, 4),
       d=st.integers(1, 40), d_v=st.integers(1, 40))
def test_attention_bit_identical_across_layouts(frames_q, frames_k, heads, d, d_v):
    """The helpers' output and q, k and v gradients are the same bit for bit
    whether the operands, the output and the output gradient are C-ordered
    [heads, frames, width] arrays or the strided split-head views of
    [frames, heads * width] arrays that multi_head_attention passes.  That
    holds where every frames and width is at least 2: numpy's matmul then
    calls BLAS gemm, which packs its operands.  With a side of 1 it calls
    BLAS dot or gemv on strided vectors, whose kernels sum in another order,
    so there the two agree only to rounding."""
    rng = np.random.default_rng([frames_q, frames_k, heads, d, d_v])
    bases = [rng.standard_normal((frames, heads, width)) for frames, width in
             ((frames_q, d), (frames_k, d), (frames_k, d_v), (frames_q, d_v))]
    bases.append(np.empty((frames_q, heads, d_v)))          # the output
    results = []
    for layout in (lambda b: b.copy().transpose(1, 0, 2), lambda b: b.transpose(1, 0, 2).copy()):
        q, k, v, g, out = (layout(b) for b in bases)
        stats = [np.empty((heads, frames_q, 1)) for _ in range(2)]
        _attention_into(q.copy(order="K"), k, v, out, *stats)
        gk = _attention_grads(q, k, v, out, g, *stats, (True, True, True))
        results.append([out, q, gk, v])
    for got, expected in zip(*results):
        if min(frames_q, frames_k, d, d_v) >= 2:
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

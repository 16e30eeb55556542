"""Shape checks of the autograd ops, as properties over random shapes.

Each op gets operands of the shapes a valid call needs, built from a few
random sides, and half the time one operand gets a random shape instead.
A call either returns the documented output shape, and then a backward
from it gives every operand a gradient of its own shape, or it raises an
AftxError: never a bare numpy or Python error.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aftx.errors import AftxError
from aftx.layers import multi_head_attention
from aftx.tensor import (
    Tensor,
    add,
    attention,
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
    "attention": (4, lambda fq, fk, d, dv: [(2, fq, d), (2, fk, d), (2, fk, dv)],
                  lambda ts, k: attention(*ts),
                  lambda s, k: [s[0][:-1] + s[2][-1:]]),
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

"""Forward-pass contracts of the autograd primitives and transformer blocks."""

import gc
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from aftx import tensor
from aftx.errors import (
    HeadMismatch,
    InputTooShort,
    LabelError,
    NonFinite,
    NotReal,
    OddDimension,
    ShapeError,
    StaleGraph,
)
from aftx.layers import (
    feed_forward,
    layer_norm_residual,
    multi_head_attention,
    positional_encoding,
)
from aftx.tensor import (
    Tensor,
    _attention_grads,
    _attention_into,
    add,
    backward,
    conv1d,
    linear,
    relu,
    reshape,
    softmax_cross_entropy,
    stack,
    tmean,
    transpose,
)

from scalar_loss import project
from tape_ops import NAMES, TAPE_OPS, call, operands

LN2 = 0.6931471805599453

# A forward whose operands all have requires_grad False runs in float32
# and keeps each hand case's own tolerance, or the module's bound; with x
# requiring grad it runs in float64 and is held to TAPED_TOL.
FROZEN_OR_TAPED = pytest.mark.parametrize("taped", [False, True], ids=["frozen", "taped"])
TAPED_TOL = {"atol": 1e-12, "rtol": 0}
FROZEN_BOUND = 1e-5     # of the largest magnitude (tensor.py's module docstring)


def _assert_within_frozen_bound(got, expected):
    assert np.abs(got - expected).max() <= FROZEN_BOUND * np.abs(expected).max()


class TestTensorData:
    @pytest.mark.parametrize("data", [np.array([1 + 2j, 3.0]), 1j, "1.5", ["a", "b"],
                                      np.array([None, 1.0])],
                             ids=["complex-array", "complex", "string", "strings", "object"])
    def test_non_real_data_rejected(self, data):
        with pytest.raises(NotReal):
            Tensor(data)

    def test_ragged_data_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([[1.0, 2.0], [3.0]])

    def test_item_needs_one_element(self):
        assert Tensor([[2.5]]).item() == 2.5
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            Tensor(np.zeros((2, 3))).item()

    @pytest.mark.parametrize("data", [[1, 2], np.array([True, False]),
                                      np.float32(0.5), np.arange(3, dtype=np.uint8)])
    def test_real_data_becomes_float64(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))


class TestShapeOpErrors:
    """Shape ops name the broken contract instead of leaking numpy's errors."""

    @pytest.mark.parametrize("op", [
        lambda x: reshape(x, (5, 2)),
        lambda x: reshape(x, "bad"),
        lambda x: transpose(x, (0, 0, 1)),
        lambda x: transpose(x, (0, 1)),
        lambda x: transpose(x, (0, 1, 3)),
        lambda x: transpose(x, 1),
        lambda x: transpose(x, None),
        lambda x: tmean(x, 3),
        lambda x: tmean(x, -4),
        lambda x: tmean(Tensor(np.zeros((0, 3))), 0),
        lambda x: stack([x, Tensor(np.zeros((2, 4, 3)))]),
        lambda x: add(x, Tensor(np.zeros(4))),
        lambda x: feed_forward(reshape(x, (24,)), *(Tensor(np.zeros(s))
                                                    for s in ((24, 2), (2,), (2, 3), (3,)))),
        lambda x: softmax_cross_entropy(reshape(x, (24,)), [0]),
        lambda x: layer_norm_residual(reshape(x, (24,)), reshape(x, (24,)),
                                      Tensor(np.ones(24)), Tensor(np.zeros(24))),
        lambda x: layer_norm_residual(x, x, Tensor(np.ones(4)), Tensor(np.zeros(4))),
    ], ids=["reshape-size", "reshape-type", "transpose-repeat", "transpose-short",
            "transpose-range", "transpose-int", "transpose-none", "tmean", "tmean-neg",
            "tmean-empty", "stack", "add-broadcast", "feed_forward-rank1",
            "cross_entropy-rank1", "layer_norm-rank1", "layer_norm-rank3"])
    def test_shape_error(self, op):
        with pytest.raises(ShapeError):
            op(Tensor(np.zeros((2, 3, 4)), requires_grad=True))

    def test_transpose_negative_axes_route_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        r = rng.standard_normal((3, 2, 4))
        backward(project(transpose(x, (1, 0, -1)), r))
        np.testing.assert_array_equal(x.grad, r.transpose(1, 0, 2))

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_negative_axes_match_positive(self, axis):
        x = Tensor(np.random.default_rng(5).standard_normal((3, 4)))
        assert np.array_equal(tmean(x, axis).data, tmean(x, axis % 2).data)
        assert np.array_equal(transpose(x, (axis, axis + 1)).data,
                              transpose(x, (axis % 2, (axis + 1) % 2)).data)


class TestConv1d:
    def test_single_full_window(self):
        x = Tensor(np.ones((1, 3)))
        w = Tensor(np.ones((2, 1, 3)))
        out = conv1d(x, w, Tensor(np.zeros(2)), stride=2)
        assert out.shape == (2, 1)

    def test_out_length_formula(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 11)))
        w = Tensor(np.random.default_rng(1).standard_normal((4, 3, 3)))
        assert conv1d(x, w, Tensor(np.zeros(4)), stride=2).shape == (4, 5)  # floor((11-3)/2)+1

    def test_zero_input_zero_bias(self):
        x = Tensor(np.zeros((2, 9)))
        w = Tensor(np.random.default_rng(2).standard_normal((5, 2, 3)))
        b = Tensor(np.zeros(5))
        assert np.all(conv1d(x, w, b, stride=2).data == 0.0)

    @FROZEN_OR_TAPED
    def test_matches_direct_window_sums(self, taped):
        # oracle: explicit loop over output frames and taps
        rng = np.random.default_rng(3)
        x, w, b = rng.standard_normal((2, 12)), rng.standard_normal((3, 2, 3)), rng.standard_normal(3)
        out = conv1d(Tensor(x, requires_grad=taped), Tensor(w), Tensor(b), stride=2).data
        expected = np.zeros((3, 5))
        for o in range(3):
            for j in range(5):
                expected[o, j] = (w[o] * x[:, 2 * j:2 * j + 3]).sum() + b[o]
        if taped:
            np.testing.assert_allclose(out, expected, rtol=1e-12)
        else:
            _assert_within_frozen_bound(out, expected)

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            conv1d(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros(1)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one(self, stride):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)),
                   stride=stride)

    def test_fractional_stride(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)),
                   stride=1.5)


class TestPositionalEncoding:
    def test_row_zero(self):
        pe = positional_encoding(4, 6).data
        assert np.all(pe[0, 0::2] == 0.0)
        assert np.all(pe[0, 1::2] == 1.0)

    def test_range(self):
        pe = positional_encoding(50, 16).data
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_sin_one(self):
        pe = positional_encoding(4, 2).data
        assert pe[1, 0] == pytest.approx(0.8414709848078965, abs=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimension):
            positional_encoding(4, 3)


def _identity_mha_params(dim):
    eye = lambda: Tensor(np.eye(dim))
    zero = lambda: Tensor(np.zeros(dim))
    return dict(wq=eye(), bq=zero(), wk=eye(), bk=zero(),
                wv=eye(), bv=zero(), wo=eye(), bo=zero())


# Encoder shapes: 499 frames of width 128, 4 heads, a 256-wide feed-forward.
MHA_SHAPES = [(128, 128), (128,)] * 4
FFN_SHAPES = [(128, 256), (256,), (256, 128), (128,)]


def _mha4(x, *params):
    return multi_head_attention(x, 4, *params)


def _encoder_arrays(seed, shapes):
    """x [499, 128] and weights of ``shapes``: glorot-scaled matrices and
    small biases."""
    rng = np.random.default_rng(seed)
    scale = lambda s: math.sqrt(2.0 / sum(s)) if len(s) == 2 else 0.1
    return [rng.standard_normal((499, 128))] + [rng.standard_normal(s) * scale(s) for s in shapes]


def _call(op, arrays, grad):
    """``op`` over fresh Tensors of ``arrays``; operand i requires grad
    where ``grad[i]``."""
    return op(*(Tensor(a, requires_grad=g) for a, g in zip(arrays, grad)))


def _assert_frozen_agrees_with_taped(op, shapes, seed):
    arrays = _encoder_arrays(seed, shapes)
    frozen = _call(op, arrays, [False] * len(arrays))
    taped = _call(op, arrays, [True] + [False] * len(shapes))
    assert frozen.data.dtype == np.float32 and frozen._node is None
    assert taped.data.dtype == np.float64
    _assert_within_frozen_bound(frozen.data, taped.data)


class TestMultiHeadAttention:
    @FROZEN_OR_TAPED
    def test_single_frame_is_value_projection(self, taped):
        x = Tensor(np.array([[0.3, -1.2, 0.5, 2.0]]), requires_grad=taped)
        out = multi_head_attention(x, 2, **_identity_mha_params(4))
        np.testing.assert_allclose(out.data, x.data, **(TAPED_TOL if taped else {"atol": 1e-12}))

    @FROZEN_OR_TAPED
    def test_two_frame_hand_case(self, taped):
        # x = I2, identity projections, one head: attention is
        # softmax([[1,0],[0,1]] / sqrt(2)) and V = x, so the output equals
        # the attention matrix itself.
        x = Tensor(np.eye(2), requires_grad=taped)
        out = multi_head_attention(x, 1, **_identity_mha_params(2))
        p = 0.6697615493266569  # exp(1/sqrt(2)) / (exp(1/sqrt(2)) + 1)
        expected = np.array([[p, 1 - p], [1 - p, p]])
        np.testing.assert_allclose(out.data, expected,
                                   **(TAPED_TOL if taped else {"atol": 1e-12}))

    @pytest.mark.parametrize("seed", range(3))
    def test_frozen_agrees_with_taped_on_encoder_shapes(self, seed):
        _assert_frozen_agrees_with_taped(_mha4, MHA_SHAPES, seed)

    def test_head_mismatch(self):
        x = Tensor(np.zeros((2, 6)))
        with pytest.raises(HeadMismatch):
            multi_head_attention(x, 4, **_identity_mha_params(6))

    @pytest.mark.parametrize("heads", [0, -2, 2.0])
    def test_heads_not_a_positive_integer(self, heads):
        x = Tensor(np.zeros((2, 6)))
        with pytest.raises(HeadMismatch):
            multi_head_attention(x, heads, **_identity_mha_params(6))


def _attend(q, k, v):
    """Output [heads, frames_q, d_v] of the attention helper, in ``q``'s
    dtype, which scales a copy of ``q``."""
    out = np.empty(q.shape[:-1] + v.shape[-1:], dtype=q.dtype)
    _attention_into(q.copy(), k, v, out, np.empty(q.shape[:-1] + (1,), dtype=q.dtype))
    return out


class TestAttention:
    """The attention helpers behind ``multi_head_attention``, and its shape
    checks."""

    def operands(self, seed=0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((3, 6, 4)).astype(dtype),
                rng.standard_normal((3, 5, 4)).astype(dtype),
                rng.standard_normal((3, 5, 2)).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_deferred_normalisation_chain(self, dtype):
        """One algorithm in both dtypes: exp(s - rowmax) [v | 1], divided by
        its last column, the row sums."""
        for seed in range(5):
            q, k, v = self.operands(seed, dtype)
            scores = np.matmul(q * dtype(1.0 / math.sqrt(4)), np.swapaxes(k, -1, -2))
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            ev = np.matmul(e, np.concatenate([v, np.ones(v.shape[:-1] + (1,), dtype)], -1))
            chain = ev[..., :-1] / ev[..., -1:]
            got = _attend(q, k, v)
            assert got.dtype == dtype
            assert np.array_equal(got, chain)

    def test_agrees_with_the_softmax_matmul_chain(self):
        """Normalising after the value product gives the chain's value,
        summed in another order."""
        for seed in range(5):
            q, k, v = self.operands(seed)
            scores = np.matmul(q * (1.0 / math.sqrt(4)), np.swapaxes(k, -1, -2))
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights /= weights.sum(axis=-1, keepdims=True)
            chain = np.matmul(weights, v)
            np.testing.assert_allclose(_attend(q, k, v), chain, rtol=1e-12, atol=1e-14)

    def test_equals_batched_formulas_in_value_and_layout(self):
        """Head by head, the helpers compute what batched products over
        [heads, frames, frames] weights compute, bit for bit, at 7 frames,
        which is one block of query rows: q scaled as one array before the
        scores and q's gradient scaled after, the log-sum-exps rowmax +
        log(rowsum), and the backward's weights exp([q | -lse] [k | 1]ᵀ) and
        score gradient ([g | -D] [v | 1]ᵀ) ∘ weights.  Operands, output and
        output gradient are split-head views, as in multi-head attention.
        q's and v's gradients are written over q and v, and k's merges over
        heads into a C-ordered [frames, heads * width] view, the layout of
        the batched formula's merged copy, so a bias gradient's column sum
        runs in the same order over both."""
        rng = np.random.default_rng(4)
        frames, heads, width = 7, 3, 4

        def split(a):  # [frames, heads * width] -> [heads, frames, width] view
            return a.reshape(frames, heads, width).transpose(1, 0, 2)

        def one(a, column):  # [a | column], column broadcast to [heads, frames, 1]
            return np.concatenate([a, np.broadcast_to(column, a.shape[:-1] + (1,))], -1)

        arrays = [rng.standard_normal((frames, heads * width)) for _ in range(4)]
        q, k, v, g = (split(a) for a in arrays)
        scale = 1.0 / math.sqrt(width)
        qs = q * scale
        e = np.matmul(qs, np.swapaxes(k, -1, -2))
        row_max = e.max(axis=-1, keepdims=True)
        e = np.exp(e - row_max)
        ev = np.matmul(e, one(v, 1.0))
        out = ev[..., :-1] / ev[..., -1:]
        lse = np.log(ev[..., -1:]) + row_max
        p = np.exp(np.matmul(one(qs, -lse), np.swapaxes(one(k, 1.0), -1, -2)))
        gs = np.matmul(one(g, -(g * out).sum(axis=-1, keepdims=True)),
                       np.swapaxes(one(v, 1.0), -1, -2))
        gs *= p
        gv = np.matmul(np.swapaxes(p, -1, -2), g)
        gq = np.matmul(gs, k)
        gq *= scale
        gk = np.matmul(np.swapaxes(gs, -1, -2), qs)

        got_out = split(np.empty((frames, heads * width)))
        got_lse = np.empty((heads, frames, 1))
        _attention_into(split(arrays[0].copy()), k, v, got_out, got_lse)
        assert np.array_equal(got_out, out)
        assert np.array_equal(got_lse, lse)
        got_q, got_v = split(arrays[0].copy()), split(arrays[2].copy())
        got_k = _attention_grads(got_q, k, got_v, got_out, g, got_lse)
        for got, expected in zip((got_q, got_k, got_v), (gq, gk, gv)):
            assert np.array_equal(got, expected)
        merged = got_k.transpose(1, 0, 2).reshape(frames, heads * width)
        assert np.shares_memory(merged, got_k) and merged.flags.c_contiguous
        assert np.array_equal(merged.sum(axis=0),
                              gk.transpose(1, 0, 2).reshape(frames, heads * width).sum(axis=0))

    @pytest.mark.parametrize("shapes", [
        ((4,), (4, 4), (4,), (4, 4), (4,), (4, 4), (4,), (4, 4), (4,)),      # x of rank 1
        ((3, 4), (4, 4), (4,), (4, 2), (2,), (4, 4), (4,), (4, 4), (4,)),    # keys narrower
        ((0, 4), (4, 4), (4,), (4, 4), (4,), (4, 4), (4,), (4, 4), (4,)),    # no frames
        ((3, 4), (4, 4), (4,), (4, 4), (4,), (4, 4), (4,), (4, 3), (4,)),    # output bias
        ((3, 4), (4, 4), (4,), (4, 4), (3,), (4, 4), (4,), (4, 4), (4,)),    # key bias
    ], ids=["rank", "qk-width", "no-keys", "o-bias", "k-bias"])
    def test_shape_error(self, shapes):
        x, *params = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError):
            multi_head_attention(x, 2, *params)


class TestFeedForward:
    def test_zero_weights(self):
        x = Tensor(np.ones((3, 4)))
        z = lambda *s: Tensor(np.zeros(s))
        out = feed_forward(x, z(4, 8), z(8), z(8, 4), z(4))
        assert np.all(out.data == 0.0)

    def test_relu_kills_hidden(self):
        x = Tensor(np.ones((2, 3)))
        w1 = Tensor(-np.ones((3, 5)))
        b1 = Tensor(np.zeros(5))
        w2 = Tensor(np.ones((5, 3)))
        b2 = Tensor(np.array([0.7, -0.2, 1.5]))
        out = feed_forward(x, w1, b1, w2, b2)
        np.testing.assert_allclose(out.data, np.broadcast_to(b2.data, (2, 3)))

    def test_hand_case(self):
        # 1 frame, dim 1, hidden 1: 3 * relu(2*1 - 1) = 3
        out = feed_forward(Tensor([[1.0]]), Tensor([[2.0]]), Tensor([-1.0]),
                           Tensor([[3.0]]), Tensor([0.0]))
        assert out.data[0, 0] == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            feed_forward(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 8))),
                         Tensor(np.zeros(8)), Tensor(np.ones((8, 3))), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("seed", range(3))
    def test_frozen_agrees_with_taped_on_encoder_shapes(self, seed):
        _assert_frozen_agrees_with_taped(feed_forward, FFN_SHAPES, seed)


def _zeros_like(x):
    return Tensor(np.zeros(x.shape))


class TestLayerNorm:
    @FROZEN_OR_TAPED
    def test_unit_gain_zero_bias_moments(self, taped):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((5, 16)), requires_grad=taped)
        out = layer_norm_residual(x, _zeros_like(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        # the output's largest magnitude is about 2
        assert np.max(np.abs(out.mean(axis=-1))) < (1e-9 if taped else FROZEN_BOUND)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_constant_frame_maps_to_zero(self):
        x, y = Tensor(np.full((2, 8), 3.5)), Tensor(np.full((2, 8), -1.25))
        out = layer_norm_residual(x, y, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.all(out == 0.0)

    def test_hand_case(self):
        out = layer_norm_residual(Tensor([[1.0, 2.0, 3.0]]), Tensor([[0.0, 0.0, 0.0]]),
                                  Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        np.testing.assert_allclose(out[0], [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_residual_shape_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm_residual(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))),
                                Tensor(np.ones(3)), Tensor(np.zeros(3)))


def _layer_norm_of_sum_numpy(x, y, gain, bias, g, eps=1e-5):
    """Output and (x/y, gain, bias) gradients of the layer norm of ``x + y``,
    in the operation order of separate add and layer-norm steps."""
    s = x + y
    mu = s.mean(axis=-1, keepdims=True)
    centered = s - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    gxhat = g * gain
    gx = inv_std * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
    return gain * xhat + bias, gx, (g * xhat).sum(axis=0), g.sum(axis=0)


class TestAddLayerNorm:
    @pytest.mark.parametrize("shape", [(1, 7), (5, 6), (6, 4)])
    def test_bit_equal_to_add_then_layer_norm(self, shape):
        rng = np.random.default_rng(12)
        x, y, g = (rng.standard_normal(shape) for _ in range(3))
        gain, bias = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
        out = layer_norm_residual(*(Tensor(a, requires_grad=True) for a in (x, y, gain, bias)))
        grads = out._node.grad_fn(g)
        expected, gx, ggain, gbias = _layer_norm_of_sum_numpy(x, y, gain, bias, g)
        assert np.array_equal(out.data, expected)
        for got, want in zip(grads, (gx, gx, ggain, gbias)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("x, y, gain, bias", [
        (np.ones((2, 3)), np.ones((3, 3)), np.ones(3), np.zeros(3)),   # residual shapes
        (np.array(1.0), np.array(1.0), np.ones(1), np.zeros(1)),       # rank 0
        (np.ones((2, 3)), np.ones((2, 3)), np.ones(4), np.zeros(3)),   # gain width
        (np.ones((2, 3)), np.ones((2, 3)), np.ones(3), np.zeros((1, 3))),  # bias shape
        (np.ones((2, 0)), np.ones((2, 0)), np.ones(0), np.zeros(0)),   # empty rows
    ], ids=["residual", "rank0", "gain", "bias", "empty_rows"])
    def test_shape_errors(self, x, y, gain, bias):
        with pytest.raises(ShapeError):
            layer_norm_residual(Tensor(x), Tensor(y), Tensor(gain), Tensor(bias))


def _matmul_add_numpy(x, w, b, g):
    """Output and (x, w, b) gradients of ``x @ w + b``, for an output
    gradient ``g``, as numpy products and a sum (a 1-d x as one row)."""
    x2, g2 = x.reshape(-1, w.shape[0]), g.reshape(-1, w.shape[1])
    return [(x2 @ w + b).reshape(g.shape), (g2 @ w.T).reshape(x.shape), x2.T @ g2,
            g2.sum(axis=0)]


class TestAffine:
    @pytest.mark.parametrize("x_shape", [(4,), (6, 4)])
    def test_bit_equal_to_matmul_add_chain(self, x_shape):
        rng = np.random.default_rng(13)
        arrays = [rng.standard_normal(x_shape), rng.standard_normal((4, 3)),
                  rng.standard_normal(3)]
        r = rng.standard_normal(x_shape[:-1] + (3,))
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = linear(*tensors)
        backward(project(out, r))
        got = [out.data] + [t.grad for t in tensors]
        for got, want in zip(got, _matmul_add_numpy(*arrays, r)):
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((2, 3, 4), (4, 3), (3,)),   # x of rank 3
        ((2, 4), (4,), (3,)),        # w of rank 1
        ((2, 5), (4, 3), (3,)),      # input width differs from w's rows
        ((2, 4), (4, 3), (1, 3)),    # bias shape
        ((2, 0), (0, 3), (3,)),      # no input features
    ], ids=["x_rank", "w_rank", "d_in", "bias", "d_in_zero"])
    def test_shape_errors(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for label in (0, 1):
            loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), [label])
            assert loss.item() == pytest.approx(LN2, abs=1e-9)

    def test_extreme_logits_stable(self):
        loss = softmax_cross_entropy(Tensor([[1000.0, -1000.0]]), [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(loss.item())

    def test_hand_case(self):
        loss = softmax_cross_entropy(Tensor([[1.0, 2.0]]), [0])
        assert loss.item() == pytest.approx(1.3132616875182226, abs=1e-5)

    def test_batch_mean(self):
        logits = Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]))
        loss = softmax_cross_entropy(logits, [0, 0])
        assert loss.item() == pytest.approx((LN2 + 1.3132616875182226) / 2)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_empty_batch(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((0, 2))), [])

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, 1.5], [np.nan, 1.0], ["0", "1"],
                                        [[0], [0, 1]]])
    def test_non_integral_labels(self, labels):
        with pytest.raises(LabelError):
            softmax_cross_entropy(Tensor(np.zeros((2, 2))), labels)

    def test_integral_float_labels(self):
        logits = Tensor([[1.0, 2.0], [1.0, 2.0]])
        assert (softmax_cross_entropy(logits, [0.0, 1.0]).item()
                == softmax_cross_entropy(logits, [0, 1]).item())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits(self, bad):
        with pytest.raises(NonFinite):
            softmax_cross_entropy(Tensor([[bad, 1.0]]), [0])


class TestBackwardEngine:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        backward(project(x, np.ones((3, 4))))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(project(x, x))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_stale_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = project(x, x)
        backward(loss)
        with pytest.raises(StaleGraph):
            backward(loss)

    def test_graph_through_consumed_node_is_stale(self):
        x = Tensor([3.0], requires_grad=True)
        y = project(x, x)
        backward(y)
        with pytest.raises(StaleGraph):
            backward(project(y, 2.0))
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_scalar_leaf_loss_gets_grad_one(self):
        x = Tensor(2.5, requires_grad=True)
        backward(x)
        assert x.grad == 1.0

    def test_backward_releases_nodes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = add(x, x)
        loss = project(y, np.ones(2))
        backward(loss)
        for node in (loss._node, y._node):
            assert node.parents == () and node.grad_fn is None

    def test_backward_frees_saved_arrays_while_output_is_held(self):
        rng = np.random.default_rng(3)
        frames, dim = 400, 64
        params = {k: Tensor(rng.standard_normal(v.shape) * 0.1, requires_grad=True)
                  for k, v in _identity_mha_params(dim).items()}
        x = Tensor(rng.standard_normal((frames, dim)))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = feed_forward(multi_head_attention(x, 4, **params), params["wq"],
                               params["bq"], params["wk"], params["bk"])
            loss = project(out, np.ones(out.shape))
            taped = tracemalloc.get_traced_memory()[0] - base
            backward(loss)
            gc.collect()
            grads = sum(t.grad.nbytes for t in params.values())
            kept = tracemalloc.get_traced_memory()[0] - base - grads
        finally:
            tracemalloc.stop()
        assert taped > 0.7 * 2**20
        assert kept <= out.data.nbytes + 32 * 2**10, f"{kept} bytes kept after backward"

    def test_grad_accumulates_on_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        loss = add(project(x, x), project(x, np.ones(1)))  # d/dx = 2x + 1 = 7
        backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_frozen_leaf_gets_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([5.0, 5.0])
        backward(project(x, c))
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_stack_routes_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        s = stack([a, b])
        backward(project(s, np.array([[1.0, 2.0], [3.0, 4.0]])))
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])

    def test_stack_of_nothing(self):
        with pytest.raises(ShapeError):
            stack([])


class TestNumericalHygiene:
    """No NaN/Inf on bounded inputs: stabilized softmax, epsilon-guarded norms."""

    @FROZEN_OR_TAPED
    def test_softmax_rows_sum_to_one(self, taped):
        """Attention scores of ±1e3 inputs: every value is the constant 1 and
        the output projection is the identity, so each output cell is one
        row of weights summed."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1e3, 1e3, size=(20, 8)), requires_grad=taped)
        params = _identity_mha_params(8)
        params["wv"], params["bv"] = Tensor(np.zeros((8, 8))), Tensor(np.ones(8))
        out = multi_head_attention(x, 2, **params).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 1.0, **(TAPED_TOL if taped else {"atol": 1e-9}))

    def test_layer_norm_bounded_inputs(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(-1e3, 1e3, size=(10, 12)))
        out = layer_norm_residual(x, _zeros_like(x), Tensor(np.ones(12)), Tensor(np.zeros(12))).data
        assert np.all(np.isfinite(out))

    def test_cross_entropy_bounded_inputs(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.uniform(-1e3, 1e3, size=(16, 2)), requires_grad=True)
        loss = softmax_cross_entropy(logits, rng.integers(0, 2, 16))
        assert np.isfinite(loss.item())
        backward(loss)
        assert np.all(np.isfinite(logits.grad))


class TestNonFinitePropagates:
    """A ReLU keeps NaN, so a non-finite input reaches the next boundary
    that checks for it (here the loss) and fails there, instead of turning
    into a finite 0."""

    @FROZEN_OR_TAPED
    def test_relu_keeps_nan(self, taped):
        out = relu(Tensor([np.nan, -1.0, 2.0], requires_grad=taped))
        assert np.isnan(out.data[0]) and out.data[1:].tolist() == [0.0, 2.0]
        with pytest.raises(NonFinite):
            softmax_cross_entropy(reshape(out, (1, 3)), [0])

    @FROZEN_OR_TAPED
    def test_feed_forward_keeps_nan(self, taped):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 4))
        x[1, 2] = np.nan
        w1, b1, w2, b2 = (Tensor(rng.standard_normal(s)) for s in ((4, 6), (6,), (6, 2), (2,)))
        out = feed_forward(Tensor(x, requires_grad=taped), w1, b1, w2, b2)
        assert np.isnan(out.data[1]).all() and np.isfinite(out.data[[0, 2]]).all()
        with pytest.raises(NonFinite):
            softmax_cross_entropy(out, [0, 1, 0])


def _encoder_weights(rng, mel_bins=80, dim=128, ffn=256, window=3, layers=2):
    """Glorot-scaled weights of a front-end conv and ``layers`` post-norm
    layers, with small random biases and gains near 1."""
    def glorot(*shape):
        fan = shape[0] + shape[-1] if len(shape) == 2 else shape[1] * shape[2] + shape[0]
        return Tensor(rng.standard_normal(shape) * math.sqrt(2.0 / fan))

    def small(n, around=0.0):
        return Tensor(around + 0.1 * rng.standard_normal(n))

    conv = (glorot(dim, mel_bins, window), small(dim))
    stack = []
    for _ in range(layers):
        attn = [glorot(dim, dim) if i % 2 == 0 else small(dim) for i in range(8)]
        ff = [glorot(dim, ffn), small(ffn), glorot(ffn, dim), small(dim)]
        norms = [small(dim, 1.0), small(dim), small(dim, 1.0), small(dim)]
        stack.append((attn, ff, norms))
    return conv, stack


def _encoder_stack(mel, conv, stack, pe):
    """The states [frames, dim] of the front end and of each layer, and
    their frame means, for a log-mel Tensor [mel_bins, frames]."""
    h = add(transpose(relu(conv1d(mel, *conv, stride=2)), (1, 0)), pe)
    states = [h]
    for attn, ff, norms in stack:
        h = layer_norm_residual(h, multi_head_attention(h, 4, *attn), *norms[:2])
        h = layer_norm_residual(h, feed_forward(h, *ff), *norms[2:])
        states.append(h)
    return states, [tmean(s, 0) for s in states]


class TestFrozenEncoder:
    """A whole frozen encoder, from the conv front end to the last layer
    norm and the pooled stack, stays in float32 and agrees with its taped
    float64 forward within the module's bound, layer by layer."""

    @pytest.mark.parametrize("seed", range(3))
    def test_frozen_stack_agrees_with_taped(self, seed):
        rng = np.random.default_rng([seed, 15])
        conv, stack = _encoder_weights(rng)
        mel = rng.standard_normal((80, 998)) * 3.0 - 2.0   # a clip's log-mel scale
        pe = positional_encoding(498, 128)
        frozen = _encoder_stack(Tensor(mel), conv, stack, pe)
        taped = _encoder_stack(Tensor(mel, requires_grad=True), conv, stack, pe)
        for got_list, want_list in zip(frozen, taped):
            assert len(got_list) == 3
            for got, want in zip(got_list, want_list):
                assert got.data.dtype == np.float32 and got._node is None
                assert want.data.dtype == np.float64 and want._node is not None
                _assert_within_frozen_bound(got.data, want.data)

    def test_frozen_tensor_into_taped_linear_is_promoted(self):
        rng = np.random.default_rng(16)
        x = relu(Tensor(rng.standard_normal((5, 4))))
        assert x.data.dtype == np.float32
        w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((4, 3), (3,)))
        out = linear(x, w, b)
        assert out.data.dtype == np.float64
        r = rng.standard_normal((5, 3))
        backward(project(out, r))
        assert w.grad.dtype == np.float64 and b.grad.dtype == np.float64
        assert np.array_equal(w.grad, x.data.astype(np.float64).T @ r)


def _leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _closure_objects(grad_fn):
    """Everything the closure cells of ``grad_fn`` hold, looking inside
    tuples and lists."""
    found, todo = [], [cell.cell_contents for cell in grad_fn.__closure__ or ()]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (tuple, list)):
            todo.extend(obj)
        else:
            found.append(obj)
    return found


def _graph(out):
    """The nodes behind ``out``, and the leaves their parent entries name."""
    nodes, leaves, seen, todo = [], [], set(), [out._node]
    while todo:
        entry = todo.pop()
        if entry is None or id(entry) in seen:
            continue
        seen.add(id(entry))
        if isinstance(entry, Tensor):
            leaves.append(entry)
        else:
            nodes.append(entry)
            todo.extend(entry.parents)
    return nodes, leaves


class TestTapeContracts:
    """What a recorded op's node keeps and what its ``grad_fn`` may do.  The
    first three tests run over ``tape_ops.TAPE_OPS``, every operand
    requiring grad, and check that it holds every recorded op; the rest
    measure what the sublayers save."""

    def test_every_recorded_op_is_covered(self):
        recorded = {name for name, fn in inspect.getmembers(tensor, inspect.isfunction)
                    if fn.__module__ == tensor.__name__ and name != "_from_op"
                    and "_from_op(" in inspect.getsource(fn)}
        assert recorded == {row.function for row in TAPE_OPS}

    @pytest.mark.parametrize("row", TAPE_OPS, ids=NAMES)
    def test_grad_fn_never_writes_upstream_gradient(self, row):
        """The backward may hand one gradient array to several parents
        (``add``, ``reshape`` and ``transpose`` return it or a view of it),
        so no ``grad_fn`` may write into the gradient it receives."""
        rng = np.random.default_rng(0)
        arrays = operands(row, rng, 3)
        out = call(row, arrays, range(len(arrays)))
        g = rng.standard_normal(out.shape)
        g.flags.writeable = False
        assert len(out._node.grad_fn(g)) == len(out._node.parents)

    @pytest.mark.parametrize("row", TAPE_OPS, ids=NAMES)
    def test_grad_fn_captures_no_tensor(self, row):
        """A closure that held a Tensor would keep its whole ``.data`` (and, on
        an op output, its node) alive for as long as the node lives."""
        arrays = operands(row, np.random.default_rng(0), 3)
        out = call(row, arrays, range(len(arrays)))
        held = [type(o).__name__ for o in _closure_objects(out._node.grad_fn)
                if isinstance(o, (Tensor, tensor._Node))]
        assert not held

    def test_attention_tape_holds_no_frames_by_frames_node(self):
        """No closure of a multi-head attention graph saves an array as large
        as one head's [frames, frames] weights: the backward recomputes them.
        ``frames`` exceeds ``dim``, so every [frames, dim] array is smaller."""
        rng = np.random.default_rng(1)
        frames, dim, heads = 9, 4, 2
        x = _leaf(rng, frames, dim)
        params = {k: Tensor(rng.standard_normal(v.shape), requires_grad=True)
                  for k, v in _identity_mha_params(dim).items()}
        out = multi_head_attention(x, heads, **params)
        nodes, leaves = _graph(out)
        saved = {id(a): a for node in nodes for a in _closure_objects(node.grad_fn)
                 if isinstance(a, np.ndarray)}
        assert saved
        assert all(a.size < frames * frames for a in saved.values()), \
            [a.shape for a in saved.values()]
        assert any(leaf is x for leaf in leaves)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_keeps_x_merged_output_and_row_statistics(self, heads):
        """Besides x and the weights, the graph of multi_head_attention saves
        the merged head outputs, as one C-contiguous [frames, dim] array, and
        each row's log-sum-exp [heads, frames, 1].  With dim 4 and 4
        heads, head_dim is 1, the case in which an output laid out like the
        strided split-head queries came out as [d_v, frames, heads], so that
        merging the heads copied it."""
        rng = np.random.default_rng(1)
        frames, dim = 7, 4
        x = _leaf(rng, frames, dim)
        params = {k: Tensor(rng.standard_normal(v.shape), requires_grad=True)
                  for k, v in _identity_mha_params(dim).items()}
        out = multi_head_attention(x, heads, **params)
        inputs = [x.data] + [p.data for p in params.values()]
        saved = {id(a): a for node in _graph(out)[0] for a in _closure_objects(node.grad_fn)
                 if isinstance(a, np.ndarray)
                 and not any(np.shares_memory(a, b) for b in inputs)}
        assert sorted(a.shape for a in saved.values()) == \
            [(heads, frames, 1), (frames, dim)]
        assert all(a.flags.c_contiguous for a in saved.values())

    def test_feed_forward_keeps_only_its_input(self):
        """The feed-forward node saves x and the weights, and recomputes its
        hidden layer and ReLU mask."""
        rng = np.random.default_rng(1)
        x, w1, b1, w2, b2 = (_leaf(rng, *s) for s in ((5, 4), (4, 6), (6,), (6, 3), (3,)))
        out = feed_forward(x, w1, b1, w2, b2)
        inputs = [t.data for t in (x, w1, b1, w2, b2)]
        saved = [a for a in _closure_objects(out._node.grad_fn) if isinstance(a, np.ndarray)]
        assert saved and all(any(np.shares_memory(a, b) for b in inputs) for a in saved)

    @staticmethod
    def post_norm_layer():
        """One post-norm encoder layer at the benchmark's shape ([499, 128],
        4 heads, a 256-wide feed-forward), as a function of no arguments
        that runs its forward on a constant input."""
        rng = np.random.default_rng(2)
        frames, dim, ffn = 499, 128, 256

        def weight(*shape):
            return Tensor(rng.standard_normal(shape) * 0.1, requires_grad=True)

        x = Tensor(rng.standard_normal((frames, dim)))
        attn = {name: weight(dim, dim) if name.startswith("w") else weight(dim)
                for name in _identity_mha_params(dim)}
        ff = [weight(dim, ffn), weight(ffn), weight(ffn, dim), weight(dim)]
        norms = [weight(dim) for _ in range(4)]

        def forward():
            h = layer_norm_residual(x, multi_head_attention(x, 4, **attn), *norms[:2])
            return layer_norm_residual(h, feed_forward(h, *ff), *norms[2:])

        return forward

    def test_post_norm_layer_tape_keeps_only_what_backward_reads(self):
        """With a separate matmul -> add chain per linear layer and an add ->
        layer_norm chain per residual, the layer's tape retained 19.9 MiB;
        folding each bias and residual into the op that makes it retains
        15.5 MiB; saving in each closure only the arrays its backward reads,
        not the parents' Tensors, retains 13.1 MiB; recomputing the attention
        weights in the backward instead of saving them retains 5.5 MiB;
        writing the attention output in the queries' layout, so that the
        output projection saves a view of it, not a merged copy, retains
        5.05 MiB; making each sublayer one op that recomputes the q, k and v
        projections and the feed-forward hidden layer in its backward
        retains 2.48 MiB."""
        forward = self.post_norm_layer()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert kept <= 2.6 * 2**20, f"the layer's tape retains {kept / 2**20:.2f} MiB"

    def test_post_norm_layer_backward_peak_above_tape(self):
        """The backward holds one head's weights and score gradient at a time:
        its peak above the tape fell from 7.1 MiB, with the [heads, frames,
        frames] score gradient, to 3.5 MiB, and then to 3.03 MiB; with the
        output projection saving a view of the attention output it read 3.41
        MiB above a smaller tape, 8.95 MiB in all.  Since the sublayers
        recompute what the tape no longer keeps, memory moves from the tape
        into the backward, so the bound is on the peak in all, tape plus
        backward: 8.33 MiB, with q's and v's gradients written over their
        recomputed projections (8.48 MiB when measured again).  With each
        head's backward walking blocks of 128 query rows, so that its
        scratch is two [128, frames] arrays, not two [frames, frames]
        arrays, it peaks at 6.16 MiB."""
        forward = self.post_norm_layer()
        gc.collect()
        tracemalloc.start()
        try:
            out = forward()
            loss = project(out, np.ones(out.shape))
            gc.collect()
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.0 * 2**20, f"the backward peaks at {peak / 2**20:.2f} MiB"

"""Forward-pass contracts of the autograd primitives and transformer blocks."""

import math

import numpy as np
import pytest

from aftx.errors import (
    HeadMismatch,
    InputTooShort,
    InvalidProbability,
    LabelError,
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
    backward,
    conv1d,
    dropout,
    layer_norm,
    softmax,
    softmax_cross_entropy,
    stack,
    tsum,
)

LN2 = 0.6931471805599453


class TestConv1d:
    def test_single_full_window(self):
        x = Tensor(np.ones((1, 3)))
        w = Tensor(np.ones((2, 1, 3)))
        out = conv1d(x, w, stride=2)
        assert out.shape == (2, 1)

    def test_out_length_formula(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 11)))
        w = Tensor(np.random.default_rng(1).standard_normal((4, 3, 3)))
        assert conv1d(x, w, stride=2).shape == (4, 5)  # floor((11-3)/2)+1

    def test_zero_input_zero_bias(self):
        x = Tensor(np.zeros((2, 9)))
        w = Tensor(np.random.default_rng(2).standard_normal((5, 2, 3)))
        b = Tensor(np.zeros(5))
        assert np.all(conv1d(x, w, b, stride=2).data == 0.0)

    def test_matches_direct_window_sums(self):
        # oracle: explicit loop over output frames and taps
        rng = np.random.default_rng(3)
        x, w, b = rng.standard_normal((2, 12)), rng.standard_normal((3, 2, 3)), rng.standard_normal(3)
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2).data
        expected = np.zeros((3, 5))
        for o in range(3):
            for j in range(5):
                expected[o, j] = (w[o] * x[:, 2 * j:2 * j + 3]).sum() + b[o]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            conv1d(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 3))))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 3, 3))))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one(self, stride):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 2, 3))), stride=stride)


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


class TestMultiHeadAttention:
    def test_single_frame_is_value_projection(self):
        x = Tensor(np.array([[0.3, -1.2, 0.5, 2.0]]))
        out = multi_head_attention(x, 2, **_identity_mha_params(4))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((6, 8)))
        params = {k: Tensor(rng.standard_normal(v.shape))
                  for k, v in _identity_mha_params(8).items()}
        _, attn = multi_head_attention(x, 4, return_weights=True, **params)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_two_frame_hand_case(self):
        # x = I2, identity projections, one head: attention is
        # softmax([[1,0],[0,1]] / sqrt(2)) and V = x, so the output equals
        # the attention matrix itself.
        x = Tensor(np.eye(2))
        out = multi_head_attention(x, 1, **_identity_mha_params(2))
        p = 0.6697615493266569  # exp(1/sqrt(2)) / (exp(1/sqrt(2)) + 1)
        expected = np.array([[p, 1 - p], [1 - p, p]])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_head_mismatch(self):
        x = Tensor(np.zeros((2, 6)))
        with pytest.raises(HeadMismatch):
            multi_head_attention(x, 4, **_identity_mha_params(6))


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


class TestLayerNorm:
    def test_unit_gain_zero_bias_moments(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((5, 16)))
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_constant_frame_maps_to_zero(self):
        x = Tensor(np.full((2, 8), 3.5))
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.all(out == 0.0)

    def test_hand_case(self):
        out = layer_norm_residual(Tensor([[1.0, 2.0, 3.0]]), Tensor([[0.0, 0.0, 0.0]]),
                                  Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        np.testing.assert_allclose(out[0], [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_residual_shape_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm_residual(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))),
                                Tensor(np.ones(3)), Tensor(np.zeros(3)))


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


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_inference_identity(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = dropout(x, 0.9, training=False, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zeroed_fraction(self):
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.5, training=True, rng=np.random.default_rng(42))
        frac = float(np.mean(out.data == 0.0))
        assert abs(frac - 0.5) < 0.01
        survivors = out.data[out.data != 0.0]
        np.testing.assert_allclose(survivors, 2.0)  # scaled by 1/(1-p)

    def test_seeded_reproducibility(self):
        x = Tensor(np.ones(1000))
        a = dropout(x, 0.5, True, np.random.default_rng(7)).data
        b = dropout(x, 0.5, True, np.random.default_rng(7)).data
        np.testing.assert_array_equal(a, b)

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            dropout(Tensor(np.ones(4)), 1.0, True, np.random.default_rng(0))


class TestBackwardEngine:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(tsum(x * x))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_stale_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = tsum(x * x)
        backward(loss)
        with pytest.raises(StaleGraph):
            backward(loss)

    def test_grad_accumulates_on_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        loss = tsum(x * x + x)  # d/dx = 2x + 1 = 7
        backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_frozen_leaf_gets_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([5.0, 5.0])
        backward(tsum(x * c))
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_stack_routes_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        s = stack([a, b])
        backward(tsum(s * Tensor([[1.0, 2.0], [3.0, 4.0]])))
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])


class TestNumericalHygiene:
    """No NaN/Inf on bounded inputs: stabilized softmax, epsilon-guarded norms."""

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1e3, 1e3, size=(20, 9)))
        s = softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(np.isfinite(s))

    def test_layer_norm_bounded_inputs(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(-1e3, 1e3, size=(10, 12)))
        out = layer_norm(x, Tensor(np.ones(12)), Tensor(np.zeros(12))).data
        assert np.all(np.isfinite(out))

    def test_cross_entropy_bounded_inputs(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.uniform(-1e3, 1e3, size=(16, 2)), requires_grad=True)
        loss = softmax_cross_entropy(logits, rng.integers(0, 2, 16))
        assert np.isfinite(loss.item())
        backward(loss)
        assert np.all(np.isfinite(logits.grad))

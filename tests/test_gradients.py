"""Reverse-mode gradients vs. central finite differences for every operator.

Each check builds a scalar loss by projecting the operator output onto a
fixed random direction, computes the analytic gradient with backward(), and
compares against the numeric oracle from gradcheck.py.  Twenty seeded
instances per operator, relative error below 1e-4.
"""

import numpy as np
import pytest

from aftx.layers import feed_forward, layer_norm_residual, multi_head_attention
from aftx.tensor import (
    Tensor,
    add,
    add_layer_norm,
    affine,
    attention,
    backward,
    conv1d,
    matmul,
    mul,
    relu,
    reshape,
    softmax,
    softmax_cross_entropy,
    stack,
    tmean,
    transpose,
    tsum,
)

from gradcheck import max_rel_error, numeric_gradient, projection

TOL = 1e-4
N_INSTANCES = 20


def check_op(build_loss, arrays, seed):
    """``build_loss(*numpy_arrays) -> scalar`` checked w.r.t. each array."""
    for idx in range(len(arrays)):
        def scalar(perturbed, idx=idx):
            args = list(arrays)
            args[idx] = perturbed
            return build_loss(*args)

        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        loss = build_loss(*tensors, as_tensors=True)
        backward(loss)
        numeric = numeric_gradient(scalar, arrays[idx])
        err = max_rel_error(tensors[idx].grad, numeric)
        assert err < TOL, f"seed {seed}, arg {idx}: rel err {err:.2e}"


def check_constant_operands(op, reference, arrays, constant, rng, seed):
    """``op(*tensors)`` with the arrays at indices ``constant`` held as
    constants: every other gradient matches the oracle applied to
    ``reference(*arrays)``, and ``grad_fn`` returns None for the constants."""
    tensors = [Tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
    out = op(*tensors)
    r = projection(rng, out.shape)
    parent_grads = out._node.grad_fn(r)
    backward(tsum(out * Tensor(r)))
    for idx, (arr, t) in enumerate(zip(arrays, tensors)):
        if idx in constant:
            assert parent_grads[idx] is None and t.grad is None
            continue

        def scalar(perturbed, idx=idx):
            args = list(arrays)
            args[idx] = perturbed
            return float((reference(*args) * r).sum())

        err = max_rel_error(t.grad, numeric_gradient(scalar, arr))
        assert err < TOL, f"seed {seed}, arg {idx}: rel err {err:.2e}"


def _attention_numpy(q, k, v):
    """Independent numpy softmax(q kᵀ) v over the last two axes."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return np.matmul(e / e.sum(axis=-1, keepdims=True), v)


def _attention_operands(rng):
    """q [2, 3, 4], k [2, 5, 4], v [2, 5, 3]: query and key frame counts and
    the key and value widths all differ, so a swapped axis cannot pass."""
    return [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 5, 4)),
            rng.standard_normal((2, 5, 3))]


def run_instances(make_case):
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(seed)
        make_case(rng, seed)


class TestElementwiseOps:
    def test_add_with_broadcast(self):
        def case(rng, seed):
            a, b = rng.standard_normal((4, 5)), rng.standard_normal(5)
            r = projection(rng, (4, 5))

            def loss(a_, b_, as_tensors=False):
                if as_tensors:
                    return tsum(add(a_, b_) * Tensor(r))
                return float(((a_ + b_) * r).sum())

            check_op(loss, [a, b], seed)
        run_instances(case)

    def test_mul(self):
        def case(rng, seed):
            a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
            r = projection(rng, (3, 4))

            def loss(a_, b_, as_tensors=False):
                if as_tensors:
                    return tsum(mul(a_, b_) * Tensor(r))
                return float((a_ * b_ * r).sum())

            check_op(loss, [a, b], seed)
        run_instances(case)

    def test_relu(self):
        def case(rng, seed):
            # keep inputs away from the kink so the FD oracle stays clean
            x = rng.uniform(0.1, 1.0, (4, 6)) * rng.choice([-1.0, 1.0], (4, 6))
            r = projection(rng, (4, 6))

            def loss(x_, as_tensors=False):
                if as_tensors:
                    return tsum(relu(x_) * Tensor(r))
                return float((np.maximum(x_, 0.0) * r).sum())

            check_op(loss, [x], seed)
        run_instances(case)


class TestConstantOperands:
    @pytest.mark.parametrize("b_shape, constant", [
        ((3, 4), {0}),
        ((3, 4), {1}),
        ((), {1}),              # a constant scale, as on the attention queries
    ])
    def test_mul(self, b_shape, constant):
        def case(rng, seed):
            a, b = rng.standard_normal((3, 4)), rng.standard_normal(b_shape)
            check_constant_operands(mul, np.multiply, [a, b], constant, rng, seed)
        run_instances(case)

    @pytest.mark.parametrize("constant", [{0}, {1}])
    def test_matmul(self, constant):
        def case(rng, seed):
            a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 3))
            check_constant_operands(matmul, np.matmul, [a, b], constant, rng, seed)
        run_instances(case)

    @pytest.mark.parametrize("constant", [{0}, {1}, {2}, {0, 1}])
    def test_attention(self, constant):
        def case(rng, seed):
            check_constant_operands(attention, _attention_numpy,
                                    _attention_operands(rng), constant, rng, seed)
        run_instances(case)


    @pytest.mark.parametrize("x_shape", [(4,), (5, 4)])
    @pytest.mark.parametrize("constant", [{0}, {1}, {2}, {1, 2}])
    def test_affine(self, x_shape, constant):
        def case(rng, seed):
            check_constant_operands(affine, lambda x, w, b: x @ w + b,
                                    _affine_operands(rng, x_shape), constant, rng, seed)
        run_instances(case)

    @pytest.mark.parametrize("constant", [{0}, {1}, {0, 1}, {2, 3}])
    def test_add_layer_norm(self, constant):
        def case(rng, seed):
            check_constant_operands(add_layer_norm, _layer_norm_numpy,
                                    _norm_operands(rng), constant, rng, seed)
        run_instances(case)


class TestShapeOps:
    def test_matmul_2d(self):
        def case(rng, seed):
            a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
            r = projection(rng, (3, 2))

            def loss(a_, b_, as_tensors=False):
                if as_tensors:
                    return tsum(matmul(a_, b_) * Tensor(r))
                return float((a_ @ b_ * r).sum())

            check_op(loss, [a, b], seed)
        run_instances(case)

    def test_matmul_batched(self):
        def case(rng, seed):
            a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 3))
            r = projection(rng, (2, 3, 3))

            def loss(a_, b_, as_tensors=False):
                if as_tensors:
                    return tsum(matmul(a_, b_) * Tensor(r))
                return float((np.matmul(a_, b_) * r).sum())

            check_op(loss, [a, b], seed)
        run_instances(case)

    def test_reshape_transpose_mean(self):
        def case(rng, seed):
            x = rng.standard_normal((2, 3, 4))
            r = projection(rng, (4, 6))

            def loss(x_, as_tensors=False):
                if as_tensors:
                    flat = reshape(transpose(x_, (2, 0, 1)), (4, 6))
                    return tmean(flat * Tensor(r)) + tsum(tmean(x_, axis=1))
                flat = x_.transpose(2, 0, 1).reshape(4, 6)
                return float((flat * r).mean() + x_.mean(axis=1).sum())

            check_op(loss, [x], seed)
        run_instances(case)

    def test_stack(self):
        def case(rng, seed):
            a, b, c = (rng.standard_normal(5) for _ in range(3))
            r = projection(rng, (3, 5))

            def loss(a_, b_, c_, as_tensors=False):
                if as_tensors:
                    return tsum(stack([a_, b_, c_]) * Tensor(r))
                return float((np.stack([a_, b_, c_]) * r).sum())

            check_op(loss, [a, b, c], seed)
        run_instances(case)


class TestSoftmaxFamily:
    def test_softmax(self):
        def case(rng, seed):
            x = rng.standard_normal((4, 7))
            r = projection(rng, (4, 7))

            def loss(x_, as_tensors=False):
                if as_tensors:
                    return tsum(softmax(x_) * Tensor(r))
                e = np.exp(x_ - x_.max(axis=-1, keepdims=True))
                return float((e / e.sum(axis=-1, keepdims=True) * r).sum())

            check_op(loss, [x], seed)
        run_instances(case)

    def test_softmax_cross_entropy(self):
        def case(rng, seed):
            logits = rng.standard_normal((6, 2))
            labels = rng.integers(0, 2, 6)

            def loss(z_, as_tensors=False):
                if as_tensors:
                    return softmax_cross_entropy(z_, labels)
                shifted = z_ - z_.max(axis=1, keepdims=True)
                lse = np.log(np.exp(shifted).sum(axis=1))
                return float((lse - shifted[np.arange(6), labels]).mean())

            check_op(loss, [logits], seed)
        run_instances(case)


class TestConvGrad:
    def test_conv1d_all_arguments(self):
        def case(rng, seed):
            x = rng.standard_normal((2, 13))
            w = rng.standard_normal((3, 2, 3))
            b = rng.standard_normal(3)
            r = projection(rng, (3, 6))

            def loss(x_, w_, b_, as_tensors=False):
                if as_tensors:
                    return tsum(conv1d(x_, w_, b_, stride=2) * Tensor(r))
                out = np.zeros((3, 6))
                for o in range(3):
                    for j in range(6):
                        out[o, j] = (w_[o] * x_[:, 2 * j:2 * j + 3]).sum() + b_[o]
                return float((out * r).sum())

            check_op(loss, [x, w, b], seed)
        run_instances(case)


def _conv1d_numpy(x, w, b, stride):
    """Explicit loop over output frames, used only as the FD forward."""
    c_out, _, window = w.shape
    out = np.zeros((c_out, (x.shape[1] - window) // stride + 1))
    for o in range(c_out):
        for j in range(out.shape[1]):
            out[o, j] = (w[o] * x[:, stride * j:stride * j + window]).sum() + b[o]
    return out


class TestConvConstantOperands:
    @pytest.mark.parametrize("stride, window, length, constant", [
        (2, 3, 13, {0}),        # log-mel input: only w and b train
        (4, 5, 23, {0}),
        (4, 5, 23, {1, 2}),     # frozen weights: only the input gradient
    ])
    def test_conv1d(self, stride, window, length, constant):
        def case(rng, seed):
            arrays = [rng.standard_normal((2, length)),
                      rng.standard_normal((3, 2, window)),
                      rng.standard_normal(3)]
            check_constant_operands(
                lambda x, w, b: conv1d(x, w, b, stride=stride),
                lambda x, w, b: _conv1d_numpy(x, w, b, stride),
                arrays, constant, rng, seed)
        run_instances(case)


def _layer_norm_numpy(x, y, gain, bias):
    """Independent numpy layer norm of the residual sum, the FD forward."""
    s = x + y
    mu = s.mean(axis=-1, keepdims=True)
    var = ((s - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (s - mu) / np.sqrt(var + 1e-5) + bias


def _norm_operands(rng):
    return [rng.standard_normal((4, 6)), rng.standard_normal((4, 6)),
            rng.standard_normal(6), rng.standard_normal(6)]


class TestNormGrad:
    def test_layer_norm_all_arguments(self):
        def case(rng, seed):
            arrays = _norm_operands(rng)
            r = projection(rng, (4, 6))

            def loss(x_, y_, g_, b_, as_tensors=False):
                if as_tensors:
                    return tsum(add_layer_norm(x_, y_, g_, b_) * Tensor(r))
                return float((_layer_norm_numpy(x_, y_, g_, b_) * r).sum())

            check_op(loss, arrays, seed)
        run_instances(case)


def _affine_operands(rng, x_shape):
    return [rng.standard_normal(x_shape), rng.standard_normal((4, 3)),
            rng.standard_normal(3)]


class TestAffineGrad:
    @pytest.mark.parametrize("x_shape", [(4,), (5, 4)])
    def test_affine_all_operands(self, x_shape):
        def case(rng, seed):
            arrays = _affine_operands(rng, x_shape)
            r = projection(rng, x_shape[:-1] + (3,))

            def loss(x_, w_, b_, as_tensors=False):
                if as_tensors:
                    return tsum(affine(x_, w_, b_) * Tensor(r))
                return float(((x_ @ w_ + b_) * r).sum())

            check_op(loss, arrays, seed)
        run_instances(case)


def _mha_numpy(x, num_heads, wq, bq, wk, bk, wv, bv, wo, bo):
    """Independent numpy attention used only as the FD forward."""
    frames, dim = x.shape
    hd = dim // num_heads
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv

    def split(t):
        return t.reshape(frames, num_heads, hd).transpose(1, 0, 2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) / np.sqrt(hd)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = np.matmul(attn, vh).transpose(1, 0, 2).reshape(frames, dim)
    return ctx @ wo + bo


class TestAttentionGrad:
    def test_attention_all_operands(self):
        def case(rng, seed):
            arrays = _attention_operands(rng)
            r = projection(rng, (2, 3, 3))

            def loss(q, k, v, as_tensors=False):
                if as_tensors:
                    return tsum(attention(q, k, v) * Tensor(r))
                return float((_attention_numpy(q, k, v) * r).sum())

            check_op(loss, arrays, seed)
        run_instances(case)

    def test_mha_all_arguments(self):
        def case(rng, seed):
            frames, dim, heads = 3, 4, 2
            x = rng.standard_normal((frames, dim))
            mats = [rng.standard_normal((dim, dim)) * 0.5 for _ in range(4)]
            vecs = [rng.standard_normal(dim) * 0.1 for _ in range(4)]
            arrays = [x, mats[0], vecs[0], mats[1], vecs[1],
                      mats[2], vecs[2], mats[3], vecs[3]]
            r = projection(rng, (frames, dim))

            def loss(*args, as_tensors=False):
                if as_tensors:
                    return tsum(multi_head_attention(args[0], heads, *args[1:]) * Tensor(r))
                return float((_mha_numpy(args[0], heads, *args[1:]) * r).sum())

            check_op(loss, arrays, seed)
        run_instances(case)


class TestFeedForwardGrad:
    def test_ffn_all_arguments(self):
        def case(rng, seed):
            x = rng.standard_normal((3, 4))
            w1, b1 = rng.standard_normal((4, 6)), rng.standard_normal(6)
            w2, b2 = rng.standard_normal((6, 4)), rng.standard_normal(4)
            # skip instances with pre-activations near the ReLU kink
            if np.min(np.abs(x @ w1 + b1)) < 1e-3:
                return
            r = projection(rng, (3, 4))

            def loss(x_, w1_, b1_, w2_, b2_, as_tensors=False):
                if as_tensors:
                    return tsum(feed_forward(x_, w1_, b1_, w2_, b2_) * Tensor(r))
                return float(((np.maximum(x_ @ w1_ + b1_, 0.0) @ w2_ + b2_) * r).sum())

            check_op(loss, [x, w1, b1, w2, b2], seed)
        run_instances(case)


class TestResidualNormGrad:
    def test_layer_norm_residual_all_arguments(self):
        def case(rng, seed):
            x = rng.standard_normal((3, 5))
            sub = rng.standard_normal((3, 5))
            gain, bias = rng.standard_normal(5), rng.standard_normal(5)
            r = projection(rng, (3, 5))

            def loss(x_, s_, g_, b_, as_tensors=False):
                if as_tensors:
                    return tsum(layer_norm_residual(x_, s_, g_, b_) * Tensor(r))
                y = x_ + s_
                mu = y.mean(axis=-1, keepdims=True)
                var = ((y - mu) ** 2).mean(axis=-1, keepdims=True)
                return float(((g_ * (y - mu) / np.sqrt(var + 1e-5) + b_) * r).sum())

            check_op(loss, [x, sub, gain, bias], seed)
        run_instances(case)

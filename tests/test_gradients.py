"""Reverse-mode gradients vs. central finite differences for every operator.

Each check builds a scalar loss by projecting the operator output onto a
fixed random direction, computes the analytic gradient with backward(), and
compares against the numeric oracle from gradcheck.py.  Twenty seeded
instances per operator, relative error below 1e-4.
"""

import numpy as np
import pytest

from aftx.layers import feed_forward, multi_head_attention
from aftx.tensor import (
    _QUERY_BLOCK,
    Tensor,
    _attention_grads,
    _attention_into,
    add,
    backward,
    conv1d,
    layer_norm_residual,
    linear,
    relu,
    reshape,
    softmax_cross_entropy,
    stack,
    tmean,
    transpose,
)

from gradcheck import max_rel_error, numeric_gradient, projection
from scalar_loss import project

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
        loss = build_loss(*tensors, with_tensors=True)
        backward(loss)
        numeric = numeric_gradient(scalar, arrays[idx])
        err = max_rel_error(tensors[idx].grad, numeric)
        assert err < TOL, f"seed {seed}, arg {idx}: rel err {err:.2e}"


def check_constant_operands(op, reference, arrays, constant, rng, seed):
    """``op(*tensors)`` with the arrays at indices ``constant`` held as
    constants: every other gradient matches the oracle applied to
    ``reference(*arrays)``, and ``grad_fn`` returns None for every parent
    entry of a constant."""
    tensors = [Tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
    out = op(*tensors)
    r = projection(rng, out.shape)
    for entry, pg in zip(out._node.parents, out._node.grad_fn(r)):
        assert entry is not None or pg is None
    backward(project(out, r))
    for idx, (arr, t) in enumerate(zip(arrays, tensors)):
        if idx in constant:
            assert t.grad is None
            continue

        def scalar(perturbed, idx=idx):
            args = list(arrays)
            args[idx] = perturbed
            return float((reference(*args) * r).sum())

        err = max_rel_error(t.grad, numeric_gradient(scalar, arr))
        assert err < TOL, f"seed {seed}, arg {idx}: rel err {err:.2e}"


def _attention_numpy(q, k, v):
    """Independent numpy softmax(q kᵀ / sqrt(d)) v over the last two axes."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) / np.sqrt(q.shape[-1])
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return np.matmul(e / e.sum(axis=-1, keepdims=True), v)


def _attention_operands(rng, frames_q=3, frames_k=5, d=4, d_v=3):
    """q [2, frames_q, d], k [2, frames_k, d], v [2, frames_k, d_v]: by
    default the query and key frame counts and the key and value widths all
    differ, so a swapped axis cannot pass."""
    return [rng.standard_normal((2, frames_q, d)), rng.standard_normal((2, frames_k, d)),
            rng.standard_normal((2, frames_k, d_v))]


def _attention_helpers(q, k, v, g):
    """The q, k and v gradients of the attention helpers for the output
    gradient ``g``, from copies of the operands."""
    q, k, v = q.copy(), k.copy(), v.copy()
    out = np.empty(g.shape)
    lse = np.empty(g.shape[:-1] + (1,))
    _attention_into(q.copy(), k, v, out, lse)
    gk = _attention_grads(q, k, v, out, g, lse)
    return q, gk, v


def _mha_operands(rng):
    """x [3, 4] and the eight weights of 2-head attention, the output
    projection [4, 5] so that the output width differs from dim."""
    mats = [rng.standard_normal((4, 4)) * 0.5 for _ in range(3)]
    vecs = [rng.standard_normal(4) * 0.1 for _ in range(3)]
    return [rng.standard_normal((3, 4)), mats[0], vecs[0], mats[1], vecs[1], mats[2], vecs[2],
            rng.standard_normal((4, 5)) * 0.5, rng.standard_normal(5) * 0.1]


def _ffn_operands(rng):
    """x [3, 4], w1 [4, 6], b1, w2 [6, 5], b2, drawn again until no
    pre-activation lies within 1e-3 of the ReLU kink, where the FD oracle
    is not clean."""
    while True:
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal((4, 6)),
                  rng.standard_normal(6), rng.standard_normal((6, 5)), rng.standard_normal(5)]
        if np.min(np.abs(arrays[0] @ arrays[1] + arrays[2])) >= 1e-3:
            return arrays


def _ffn_numpy(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def _only(count):
    """The sets of constant operands that leave one operand of ``count``
    requiring grad, one set per operand, then the empty set: all of them."""
    return [set(range(count)) - {i} for i in range(count)] + [set()]


def _alone_and_all_but_x(count):
    """The sets of operands that require grad: each of ``count`` operands
    alone, then every operand but x (index 0), as in the lowest trained
    layer of an encoder whose lower layers are frozen."""
    return [{i} for i in range(count)] + [set(range(1, count))]


def check_partial_equals_full(op, shapes, trained):
    """``op`` over random operands of ``shapes`` with only the operands at
    indices ``trained`` requiring grad: ``grad_fn`` gives each parent entry
    of a trained operand, byte for byte, the gradient it gives when every
    operand requires grad, and None for each parent entry of a constant.
    17 rows, so that a column sum taken in another order would differ."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(shape) * 0.5 for shape in shapes]
        full = op(*(Tensor(a, requires_grad=True) for a in arrays))
        r = projection(rng, full.shape)
        part = op(*(Tensor(a, requires_grad=i in trained) for i, a in enumerate(arrays)))
        for idx, (entry, got, want) in enumerate(zip(
                part._node.parents, part._node.grad_fn(r), full._node.grad_fn(r))):
            if entry is None:
                assert got is None, f"seed {seed}, parent {idx}"
            else:
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes()), f"seed {seed}, parent {idx}"


def run_instances(make_case, count=N_INSTANCES):
    for seed in range(count):
        rng = np.random.default_rng(seed)
        make_case(rng, seed)


class TestElementwiseOps:
    def test_add(self):
        def case(rng, seed):
            a, b = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
            r = projection(rng, (4, 5))

            def loss(a_, b_, with_tensors=False):
                if with_tensors:
                    return project(add(a_, b_), r)
                return float(((a_ + b_) * r).sum())

            check_op(loss, [a, b], seed)
        run_instances(case)

    def test_relu(self):
        def case(rng, seed):
            # keep inputs away from the kink so the FD oracle stays clean
            x = rng.uniform(0.1, 1.0, (4, 6)) * rng.choice([-1.0, 1.0], (4, 6))
            r = projection(rng, (4, 6))

            def loss(x_, with_tensors=False):
                if with_tensors:
                    return project(relu(x_), r)
                return float((np.maximum(x_, 0.0) * r).sum())

            check_op(loss, [x], seed)
        run_instances(case)


class TestConstantOperands:
    @pytest.mark.parametrize("constant", _only(9))
    def test_attention(self, constant):
        """multi_head_attention with x alone, each weight alone, or all of
        them requiring grad."""
        def case(rng, seed):
            check_constant_operands(lambda x, *w: multi_head_attention(x, 2, *w),
                                    lambda x, *w: _mha_numpy(x, 2, *w),
                                    _mha_operands(rng), constant, rng, seed)
        run_instances(case)

    @pytest.mark.parametrize("constant", _only(5))
    def test_feed_forward(self, constant):
        def case(rng, seed):
            check_constant_operands(feed_forward, _ffn_numpy, _ffn_operands(rng),
                                    constant, rng, seed)
        run_instances(case)

    @pytest.mark.parametrize("x_shape", [(4,), (5, 4)])
    @pytest.mark.parametrize("constant", [{0}, {1}, {2}, {1, 2}])
    def test_affine(self, x_shape, constant):
        def case(rng, seed):
            check_constant_operands(linear, lambda x, w, b: x @ w + b,
                                    _affine_operands(rng, x_shape), constant, rng, seed)
        run_instances(case)

    @pytest.mark.parametrize("constant", [{0}, {1}, {0, 1}, {2, 3}])
    def test_add_layer_norm(self, constant):
        def case(rng, seed):
            check_constant_operands(layer_norm_residual, _layer_norm_numpy,
                                    _norm_operands(rng), constant, rng, seed)
        run_instances(case)


class TestPartialGradients:
    """A recorded sublayer computes its whole backward, whichever of its
    operands require grad, so a partly trained one gets the gradients of a
    fully trained one."""

    @pytest.mark.parametrize("trained", _alone_and_all_but_x(9))
    def test_attention(self, trained):
        check_partial_equals_full(lambda x, *w: multi_head_attention(x, 2, *w),
                                  [(17, 8), *[(8, 8), (8,)] * 3, (8, 6), (6,)], trained)

    @pytest.mark.parametrize("trained", _alone_and_all_but_x(5))
    def test_feed_forward(self, trained):
        check_partial_equals_full(feed_forward, [(17, 8), (8, 12), (12,), (12, 6), (6,)],
                                  trained)

    @pytest.mark.parametrize("trained", _alone_and_all_but_x(4))
    def test_layer_norm_residual(self, trained):
        check_partial_equals_full(layer_norm_residual, [(17, 8), (17, 8), (8,), (8,)],
                                  trained)


class TestShapeOps:
    def test_reshape_transpose_mean(self):
        def case(rng, seed):
            x = rng.standard_normal((2, 3, 4))
            r = projection(rng, (4, 6))

            def loss(x_, with_tensors=False):
                if with_tensors:
                    flat = reshape(transpose(x_, (2, 0, 1)), (4, 6))
                    return add(project(flat, r), tmean(tmean(tmean(x_, 1), 1), 0))
                flat = x_.transpose(2, 0, 1).reshape(4, 6)
                return float((flat * r).sum() + x_.mean(axis=1).mean(axis=1).mean(axis=0))

            check_op(loss, [x], seed)
        run_instances(case)

    def test_stack(self):
        def case(rng, seed):
            a, b, c = (rng.standard_normal(5) for _ in range(3))
            r = projection(rng, (3, 5))

            def loss(a_, b_, c_, with_tensors=False):
                if with_tensors:
                    return project(stack([a_, b_, c_]), r)
                return float((np.stack([a_, b_, c_]) * r).sum())

            check_op(loss, [a, b, c], seed)
        run_instances(case)


class TestSoftmaxFamily:
    def test_softmax_cross_entropy(self):
        def case(rng, seed):
            logits = rng.standard_normal((6, 2))
            labels = rng.integers(0, 2, 6)

            def loss(z_, with_tensors=False):
                if with_tensors:
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

            def loss(x_, w_, b_, with_tensors=False):
                if with_tensors:
                    return project(conv1d(x_, w_, b_, stride=2), r)
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

            def loss(x_, y_, g_, b_, with_tensors=False):
                if with_tensors:
                    return project(layer_norm_residual(x_, y_, g_, b_), r)
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

            def loss(x_, w_, b_, with_tensors=False):
                if with_tensors:
                    return project(linear(x_, w_, b_), r)
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
    @pytest.mark.parametrize("shape, instances", [
        ({}, N_INSTANCES),
        ({"frames_q": 2 * _QUERY_BLOCK + 3, "d": 2, "d_v": 2}, 3),
    ], ids=["one-block", "three-blocks"])
    def test_attention_all_operands(self, shape, instances):
        """The attention helpers' q, k and v gradients against the oracle, at
        unequal query and key frame counts and widths, which self-attention
        never has; and over two whole blocks of query rows and a short
        third, so that k's and v's gradients sum over blocks."""
        def case(rng, seed):
            arrays = _attention_operands(rng, **shape)
            r = projection(rng, arrays[0].shape[:-1] + arrays[2].shape[-1:])
            for idx, got in enumerate(_attention_helpers(*arrays, r)):
                def scalar(perturbed, idx=idx):
                    args = list(arrays)
                    args[idx] = perturbed
                    return float((_attention_numpy(*args) * r).sum())

                err = max_rel_error(got, numeric_gradient(scalar, arrays[idx]))
                assert err < TOL, f"seed {seed}, arg {idx}: rel err {err:.2e}"
        run_instances(case, instances)

    @pytest.mark.parametrize("frames_q", [1, _QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1,
                                          2 * _QUERY_BLOCK + 3])
    def test_blocks_agree_with_the_batched_backward(self, frames_q):
        """The blocked backward agrees with the whole-array float64 formulas,
        softmax weights p and score gradient p ∘ (g vᵀ - rowsum(g ∘ out)),
        within 1e-13 of each gradient's largest magnitude, at query frame
        counts on either side of a block's edge."""
        rng = np.random.default_rng(frames_q)
        q, k, v = _attention_operands(rng, frames_q=frames_q, frames_k=9)
        g = rng.standard_normal((2, frames_q, 3))
        qs = q / np.sqrt(q.shape[-1])
        e = np.matmul(qs, np.swapaxes(k, -1, -2))
        e = np.exp(e - e.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out = np.matmul(p, v)
        gs = p * (np.matmul(g, np.swapaxes(v, -1, -2)) - (g * out).sum(axis=-1, keepdims=True))
        expected = (np.matmul(gs, k) / np.sqrt(q.shape[-1]),
                    np.matmul(np.swapaxes(gs, -1, -2), qs), np.matmul(np.swapaxes(p, -1, -2), g))
        for got, want in zip(_attention_helpers(q, k, v, g), expected):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_no_query_frames(self):
        """With no query rows, the blocks are none: the output and q's
        gradient are empty, and k's and v's gradients are zero."""
        q, k, v = _attention_operands(np.random.default_rng(0), frames_q=0)
        gq, gk, gv = _attention_helpers(q, k, v, np.empty((2, 0, 3)))
        assert gq.shape == q.shape
        assert np.array_equal(gk, np.zeros(k.shape)) and np.array_equal(gv, np.zeros(v.shape))

    def test_mha_all_arguments(self):
        def case(rng, seed):
            arrays = _mha_operands(rng)
            r = projection(rng, (3, 5))

            def loss(*args, with_tensors=False):
                if with_tensors:
                    return project(multi_head_attention(args[0], 2, *args[1:]), r)
                return float((_mha_numpy(args[0], 2, *args[1:]) * r).sum())

            check_op(loss, arrays, seed)
        run_instances(case)


class TestFeedForwardGrad:
    def test_ffn_all_arguments(self):
        def case(rng, seed):
            arrays = _ffn_operands(rng)
            r = projection(rng, (3, 5))

            def loss(*args, with_tensors=False):
                if with_tensors:
                    return project(feed_forward(*args), r)
                return float((_ffn_numpy(*args) * r).sum())

            check_op(loss, arrays, seed)
        run_instances(case)


class TestResidualNormGrad:
    def test_layer_norm_residual_all_arguments(self):
        def case(rng, seed):
            x = rng.standard_normal((3, 5))
            sub = rng.standard_normal((3, 5))
            gain, bias = rng.standard_normal(5), rng.standard_normal(5)
            r = projection(rng, (3, 5))

            def loss(x_, s_, g_, b_, with_tensors=False):
                if with_tensors:
                    return project(layer_norm_residual(x_, s_, g_, b_), r)
                y = x_ + s_
                mu = y.mean(axis=-1, keepdims=True)
                var = ((y - mu) ** 2).mean(axis=-1, keepdims=True)
                return float(((g_ * (y - mu) / np.sqrt(var + 1e-5) + b_) * r).sum())

            check_op(loss, [x, sub, gain, bias], seed)
        run_instances(case)

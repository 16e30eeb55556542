"""Reverse-mode gradients against central finite differences.

Every op in ``tape_ops.TAPE_OPS`` is checked against the oracle of
gradcheck.py on twenty seeded instances, relative error below 1e-4, at
three rows and, where its shapes depend on the row count, at one; and a
partly trained op is checked against the fully trained one byte for byte.
The attention helpers behind ``multi_head_attention`` are checked on their
own, at query and key frame counts that self-attention never has and over
several blocks of query rows.
"""

import numpy as np
import pytest

from aftx.tensor import _QUERY_BLOCK, Tensor, _attention_grads, _attention_into, backward

from gradcheck import max_rel_error, numeric_gradient
from scalar_loss import project
from tape_ops import TAPE_OPS, call, operands

TOL = 1e-4
N_INSTANCES = 20


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


def run_instances(make_case, count=N_INSTANCES):
    for seed in range(count):
        rng = np.random.default_rng(seed)
        make_case(rng, seed)


# three rows for every row of the table, and one row, a clip of one frame,
# for those whose operand shapes depend on the row count: there a sum over
# rows that an op skipped gives the right values, so only the gradient's
# shape shows it, and attention has a single key, which gives q and k no
# gradient
ORACLE = [(row, n) for row in TAPE_OPS for n in (3, 1)
          if n == 3 or row.shapes(1) != row.shapes(3)]


@pytest.mark.parametrize("row, n", ORACLE, ids=[f"{row.name}-rows{n}" for row, n in ORACLE])
def test_every_operand_matches_finite_differences(row, n):
    """Over twenty seeds, every operand requiring grad, over ``n`` rows: the
    op's output agrees with the row's numpy forward, and each gradient has
    its operand's shape (``max_rel_error`` would broadcast) and matches the
    oracle."""
    def case(rng, seed):
        arrays = operands(row, rng, n)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = row.op(*tensors)
        assert np.allclose(out.data, row.forward(*arrays), rtol=1e-12, atol=1e-12)
        r = rng.standard_normal(out.shape)
        backward(project(out, r))
        for idx, (arr, t) in enumerate(zip(arrays, tensors)):
            def scalar(perturbed, idx=idx):
                args = list(arrays)
                args[idx] = perturbed
                return float((row.forward(*args) * r).sum())

            assert t.grad.shape == arr.shape, f"seed {seed}, arg {idx}"
            err = max_rel_error(t.grad, numeric_gradient(scalar, arr))
            assert err < TOL, f"seed {seed}, arg {idx}: rel err {err:.2e}"
    run_instances(case)


def _partly_trained(count):
    """The sets of trained operands: each of ``count`` operands alone, then
    every operand but x (index 0), as in the lowest trained layer of an
    encoder whose lower layers are frozen; the set of all and repeats left
    out."""
    sets = [{i} for i in range(count)] + [set(range(1, count))]
    return [s for i, s in enumerate(sets) if 0 < len(s) < count and s not in sets[:i]]


PARTLY_TRAINED = [(row, trained) for row in TAPE_OPS
                  for trained in _partly_trained(len(row.shapes(1)))]


@pytest.mark.parametrize("row, trained", PARTLY_TRAINED, ids=[
    f"{row.name}-trained-{'-'.join(map(str, sorted(trained)))}" for row, trained in PARTLY_TRAINED])
def test_partial_gradients_equal_full(row, trained):
    """An op computes its whole backward, whichever of its operands require
    grad: with only the operands in ``trained`` requiring grad, its output
    is the fully trained output, ``grad_fn`` gives each parent entry of a
    trained operand, byte for byte, the fully trained gradient, and None
    for each parent entry of a constant.  17 rows, so that a column sum
    taken in another order would differ."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        arrays = operands(row, rng, 17)
        full = call(row, arrays, range(len(arrays)))
        part = call(row, arrays, trained)
        assert (part.data.dtype, part.data.tobytes()) == (full.data.dtype, full.data.tobytes())
        r = rng.standard_normal(full.shape)
        for idx, (entry, got, want) in enumerate(zip(
                part._node.parents, part._node.grad_fn(r), full._node.grad_fn(r))):
            if entry is None:
                assert got is None, f"seed {seed}, parent {idx}"
            else:
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes()), f"seed {seed}, parent {idx}"


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
            r = rng.standard_normal(arrays[0].shape[:-1] + arrays[2].shape[-1:])
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

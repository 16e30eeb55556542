"""AdamW contracts: decoupled decay, bias correction, frozen parameters."""

import numpy as np
import pytest

from aftx.errors import MissingGrad, NonFinite
from aftx.optim import BETA1, BETA2, EPSILON, WEIGHT_DECAY, AdamW
from aftx.tensor import Parameter, Tensor, backward

from scalar_loss import project


def make_param(values, trainable=True, name="p"):
    return Parameter(Tensor(np.asarray(values, dtype=np.float64)), trainable, name)


class TestAdamWStep:
    def test_decay_only_step(self):
        # grad = 0 leaves the moment update at zero; only decay acts:
        # w' = 1 - lr * wd * 1 = 1 - 1e-9
        p = make_param([1.0])
        p.tensor.grad = np.zeros(1)
        opt = AdamW({"p": p}, lr=1e-4)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 1e-9, abs=1e-16)
        assert opt.step_count == 1

    def test_first_step_closed_form(self):
        # w=0, grad=2, lr=0.1: decay scales 0, and bias correction makes
        # m̂/(√v̂+ε) ≈ 1
        p = make_param([0.0])
        p.tensor.grad = np.array([2.0])
        AdamW({"p": p}, lr=0.1).step()
        assert p.data[0] == pytest.approx(-0.1, abs=1e-6)

    def test_frozen_parameter_bit_identical(self):
        values = np.array([0.1, -0.2, 0.3])
        p = make_param(values.copy(), trainable=False)
        q = make_param([1.0], name="q")
        q.tensor.grad = np.array([0.5])
        opt = AdamW({"p": p, "q": q}, lr=1e-4)
        for _ in range(10):
            opt.step()
            q.tensor.grad = np.array([0.5])
        assert p.data.tobytes() == values.tobytes()
        assert opt.step_count == 10

    def test_missing_grad_raises(self):
        p = make_param([1.0])
        with pytest.raises(MissingGrad):
            AdamW({"p": p}, lr=1e-4).step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grad_leaves_state_unchanged(self, bad):
        # "a" is stepped before "b" in dict order, so a check made inside the
        # update loop would already have moved "a" when "b" raises
        a, b = make_param([0.5, -0.5], name="a"), make_param([1.0], name="b")
        opt = AdamW({"a": a, "b": b}, lr=0.1)
        a.tensor.grad, b.tensor.grad = np.array([1.0, 2.0]), np.array([3.0])
        opt.step()
        before = (opt.step_count, a.data.copy(), b.data.copy(),
                  {k: v.copy() for k, v in opt.m.items()},
                  {k: v.copy() for k, v in opt.v.items()})
        b.tensor.grad = np.array([bad])
        with pytest.raises(NonFinite):
            opt.step()
        assert opt.step_count == before[0]
        assert a.data.tobytes() == before[1].tobytes()
        assert b.data.tobytes() == before[2].tobytes()
        for moments, saved in ((opt.m, before[3]), (opt.v, before[4])):
            assert moments.keys() == saved.keys()
            for k in saved:
                assert moments[k].tobytes() == saved[k].tobytes()

    def test_matches_scalar_reference(self):
        # independent scalar recurrence for a short schedule
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(50)
        lr, wd, b1, b2, eps = 1e-2, 1e-5, 0.9, 0.999, 1e-8
        assert (wd, b1, b2, eps) == (WEIGHT_DECAY, BETA1, BETA2, EPSILON)
        w, m, v = 0.5, 0.0, 0.0
        p = make_param([0.5])
        opt = AdamW({"p": p}, lr=lr)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w * (1 - lr * wd)
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            p.tensor.grad = np.array([g])
            opt.step()
        assert p.data[0] == w


class TestAdamWWrapper:
    def test_training_reduces_quadratic_loss(self):
        p = make_param([3.0, -2.0])
        opt = AdamW({"p": p}, lr=0.05)
        first = None
        for _ in range(200):
            loss = project(p.tensor, p.tensor)
            if first is None:
                first = loss.item()
            backward(loss)
            opt.step()
            opt.zero_grad()
        assert project(p.tensor, p.tensor).item() < first * 0.1

    def test_zero_grad_clears(self):
        p = make_param([1.0])
        opt = AdamW({"p": p}, lr=1e-4)
        backward(project(p.tensor, p.tensor))
        assert p.tensor.grad is not None
        opt.zero_grad()
        assert p.tensor.grad is None

"""The benchmark's calls into ``aftx``, run once on small inputs.

``perfbench/`` builds the encoder and the CNN baseline from ``aftx`` calls
made through its call table (``spans.make_api``), untraced and traced.  Nothing
else in the suite runs that code, so a product change that broke one of its
calls would otherwise first show up as a failed benchmark run.
"""

from pathlib import Path

import numpy as np
import pytest

from aftx.layers import positional_encoding
from aftx.optim import AdamW
from aftx.tensor import Parameter, Tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``spans``, ``model`` and ``workloads`` modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import model
    import spans
    import workloads

    return spans, model, workloads


@pytest.fixture(params=[False, True], ids=["untraced", "traced"])
def api(request, bench):
    spans = bench[0]
    return spans.make_api(spans.Tracer() if request.param else None)


def _log_mel(seed=0):
    """A random [80, 20] log-mel: 9 encoder frames after the stride-2 conv."""
    return np.random.default_rng(seed).standard_normal((80, 20))


def test_workloads_module_imports(bench):
    assert set(bench[2].WORKLOADS) == {"pretrain", "transfer"}


def test_frozen_encoder_states(api, bench):
    model = bench[1]
    p = {name: Tensor(arr) for name, arr in model.init_encoder(0).items()}
    states = model.encoder_states(api, p, _log_mel(), positional_encoding(9, 128))
    assert len(states) == model.CONFIG["layers"] + 1
    for h in states:
        assert h.shape == (9, 128) and h.data.dtype == np.float32 and h._node is None
        assert np.isfinite(h.data).all()


def test_taped_encoder_states_backward(api, bench):
    model = bench[1]
    p = {name: Tensor(arr, requires_grad=True)
         for name, arr in model.init_encoder(0).items()}
    head = {k: Tensor(v, requires_grad=True)
            for k, v in model.init_linear(np.random.default_rng(1), 128, 2).items()}
    states = model.encoder_states(api, p, _log_mel(), positional_encoding(9, 128))
    assert all(h.data.dtype == np.float64 and h._node is not None for h in states)
    logits = api.linear(api.tmean(states[-1], 0), head["w"], head["b"])
    api.backward(api.softmax_cross_entropy(api.stack([logits]), [1]))
    for t in (*p.values(), *head.values()):
        assert t.grad is not None and t.grad.shape == t.shape and np.isfinite(t.grad).all()


def test_seeded_training_step_is_bit_identical(api, bench):
    """Two taped training steps from one seed, each from a fresh
    ``init_encoder(0)``, give the same loss and the same parameter bytes
    after one AdamW step."""
    model = bench[1]

    def step():
        arrays = dict(model.init_encoder(0))
        arrays.update({f"head.{k}": v for k, v in
                       model.init_linear(np.random.default_rng(1), 128, 2).items()})
        params = {name: Parameter(Tensor(arr), name=name) for name, arr in arrays.items()}
        t = {name: q.tensor for name, q in params.items()}
        states = model.encoder_states(api, t, _log_mel(), positional_encoding(9, 128))
        logits = api.linear(api.tmean(states[-1], 0), t["head.w"], t["head.b"])
        loss = api.softmax_cross_entropy(api.stack([logits]), [1])
        api.backward(loss)
        api.step(AdamW(params, lr=1e-3))
        return loss.item(), {name: q.data.tobytes() for name, q in params.items()}

    (loss, before), (again, after) = step(), step()
    assert loss == again
    assert before == after
    assert before["layer0.attn.wq"] != model.init_encoder(0)["layer0.attn.wq"].tobytes()


def test_cnn_logits(api, bench):
    model = bench[1]
    p = {k: Tensor(v) for k, v in model.init_cnn(np.random.default_rng(2)).items()}
    out = model.cnn_logits(api, p, _log_mel())
    assert out.shape == (model.NUM_TRAITS, 2) and np.isfinite(out.data).all()


def test_traced_calls_are_recorded(bench):
    spans, model, _ = bench
    tracer = spans.Tracer()
    p = {name: Tensor(arr) for name, arr in model.init_encoder(0).items()}
    model.encoder_states(spans.make_api(tracer), p, _log_mel(), positional_encoding(9, 128))
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls == {"tensor.conv1d": 1, "tensor.relu": 1, "tensor.transpose": 1,
                     "tensor.add": 1, "layers.multi_head_attention": 2,
                     "layers.feed_forward": 2, "layers.layer_norm_residual": 4}

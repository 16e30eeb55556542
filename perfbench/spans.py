"""The call table the workloads use to reach ``aftx``, with or without spans.

``make_api(None)`` binds each name straight to the ``aftx`` function, so an
untraced run pays nothing.  ``make_api(Tracer())`` wraps each one in a span
named ``<module>.<function>`` and updates the byte and row counters at the
same boundary.  ``api.stage(name)`` opens a ``stage.<name>`` span around the
benchmark's own composition code; untraced it is a no-op.

Spans are kept in memory as (name, start, end, parent) and written out as
JSON when the run ends.  A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from types import SimpleNamespace

_NO_STAGE = contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_s, end_s, parent index or -1]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    @contextlib.contextmanager
    def stage(self, name: str):
        idx = self.begin("stage." + name)
        try:
            yield
        finally:
            self.end(idx)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed ms, and summed self ms."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[i]) * 1e3
        return out

    def dump(self, path: str, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, summary=self.summary(), counts=self.counts,
                   spans=[[n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                          for n, s, e, p in self.spans])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _file_bytes(counter: str, arg: int = 0):
    def count(tracer, args, out):
        tracer.count(counter, os.path.getsize(args[arg]))
    return count


def _rows(tracer, args, out):
    tracer.count("corpus.rows_read", sum(s.matrix.size for s in out.values()))


def _variants(tracer, args, out):
    made = [s for s, prov in out if prov.kind != "original"]
    tracer.count("augment.variants", len(made))
    tracer.count("augment.bytes_materialized", sum(s.values.nbytes for s in made))


def _optim_step(opt) -> None:
    opt.step()


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    from aftx import audio, augment, container, corpus, layers, metrics, tensor

    calls = {
        "audio.load_wav": (audio.load_wav, _file_bytes("audio.bytes_read")),
        "audio.log_mel": (audio.log_mel, None),
        "corpus.read_scores_csv": (corpus.read_scores_csv, _rows),
        "corpus.binarize_majority": (corpus.binarize_majority, None),
        "corpus.make_folds": (corpus.make_folds, None),
        "tensor.conv1d": (tensor.conv1d, None),
        "tensor.relu": (tensor.relu, None),
        "tensor.add": (tensor.add, None),
        "tensor.transpose": (tensor.transpose, None),
        "tensor.reshape": (tensor.reshape, None),
        "tensor.tmean": (tensor.tmean, None),
        "tensor.stack": (tensor.stack, None),
        "tensor.softmax_cross_entropy": (tensor.softmax_cross_entropy, None),
        "tensor.backward": (tensor.backward, None),
        "layers.linear": (layers.linear, None),
        "layers.multi_head_attention": (layers.multi_head_attention, None),
        "layers.feed_forward": (layers.feed_forward, None),
        "layers.layer_norm_residual": (layers.layer_norm_residual, None),
        "optim.step": (_optim_step, None),
        "container.save_container": (container.save_container,
                                     _file_bytes("container.bytes_written")),
        "container.load_container": (container.load_container,
                                     _file_bytes("container.bytes_read")),
        "container.entries_digest": (container.entries_digest, None),
        "augment.augment_corpus": (augment.augment_corpus, _variants),
        "metrics.from_predictions": (metrics.ConfusionMatrix.from_predictions, None),
        "metrics.uar": (metrics.uar, None),
        "metrics.trait_pair_table": (metrics.trait_pair_table, None),
    }
    api = {"Tensor": tensor.Tensor}
    for name, (fn, counter) in calls.items():
        short = name.split(".", 1)[1]
        api[short] = fn if tracer is None else _wrap(tracer, name, fn, counter)
    api["stage"] = (lambda name: _NO_STAGE) if tracer is None else tracer.stage
    return SimpleNamespace(**api)


def _wrap(tracer: Tracer, name: str, fn, counter):
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counter is not None:
            counter(tracer, args, out)
        return out
    return traced


def span_cost_s(calls: int = 20000) -> float:
    """Seconds that tracing adds to one call: a traced no-op against a plain one."""
    tracer = Tracer()
    traced = _wrap(tracer, "noop", lambda: None, None)

    def plain():
        return None

    t = time.perf_counter()
    for _ in range(calls):
        traced()
    with_span = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        plain()
    return (with_span - (time.perf_counter() - t)) / calls


def layer_metrics(summary: dict, counts: dict, names: list[str]) -> dict[str, float]:
    """Values for per-layer metric names: ``<span>.ms``, ``<span>.calls``,
    ``stage.<name>.self_ms`` or a counter.  A layer the workload never
    called reads 0."""
    out = {}
    for name in names:
        for suffix, field in ((".self_ms", "self_ms"), (".ms", "ms"), (".calls", "calls")):
            if name.endswith(suffix):
                out[name] = summary.get(name[:-len(suffix)], {}).get(field, 0)
                break
        else:
            out[name] = counts.get(name, 0)
    return out

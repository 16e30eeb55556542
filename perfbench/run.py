"""Run one workload of the protocol benchmark and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload pretrain|transfer \\
        --seed N --seconds S --trace 0|1

The seeded corpus is written first, by a separate process, under
``.perfbench/corpora``.  The workload then runs in a fresh worker process
with one BLAS thread and ``src`` on the path.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken from
a traced worker, plus the tracing overhead: against an untraced worker run
just before it on the same inputs, and as the span count times the measured
cost of one span.  Check results and the worker's full
report go to standard error.  Exits non-zero, printing no result, when the
program under test is missing or a step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("pretrain", "transfer")
DEADLINE_S = 170              # every step of one run ends within this
_START = time.monotonic()

# One BLAS thread: on a 2-core host shared with other tenants, a second
# BLAS thread makes the encoder faster only while the other core is idle,
# so its speed would follow the neighbours' load (see README.md).
ENV_FIXED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _env() -> dict:
    env = dict(os.environ, **ENV_FIXED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _python(script: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(1.0, _START + DEADLINE_S - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def run_worker(workload: str, seed: int, seconds: float, trace: int, corpus: str) -> dict:
    line = _python("worker.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--corpus", corpus,
                   "--work", os.path.join(STATE, "work"))
    result = json.loads(line)
    for c in result["checks"]:
        print(f"[{'ok' if c['ok'] else 'FAIL'}] {workload}: {c['check']} ({c['detail']})",
              file=sys.stderr)
    print(json.dumps({k: v for k, v in result.items() if k not in ("summary", "counts")}),
          file=sys.stderr)
    return result


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line for one run, as a dict."""
    from spans import layer_metrics

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    corpus = _python("corpora.py", "--workload", workload, "--seed", str(seed),
                     "--root", os.path.join(STATE, "corpora"))
    if not trace:
        r = run_worker(workload, seed, seconds, 0, corpus)
        values = {"setup_s": r["setup_s"], "clips_per_s": r["clips_per_s"],
                  "peak_rss_mib": r["peak_rss_mib"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        runs = [r]
    else:
        base = run_worker(workload, seed, seconds, 0, corpus)
        r = run_worker(workload, seed, seconds, 1, corpus)
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(r["summary"], r["counts"], names)
        per_clip_ms = 1e3 / r["clips_per_s"]
        base_ms = 1e3 / base["clips_per_s"]
        values["trace.overhead_ms_per_clip"] = per_clip_ms - base_ms
        values["trace.overhead_pct"] = 100.0 * (per_clip_ms - base_ms) / base_ms
        values["trace.spans"] = r["spans"]
        values["trace.span_cost_ms"] = r["span_cost_ms"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        runs = [base, r]
    return {"correct": all(x["correct"] for x in runs), "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the protocol benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "aftx", "__init__.py")):
        print(f"no aftx sources under {os.path.join(ROOT, 'src')}; nothing to measure",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

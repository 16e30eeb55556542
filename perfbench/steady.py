"""Steadiness check: two separate sets of runs of the same code, compared.

Usage (from the repository root):

    python3 perfbench/steady.py

Each of the two sets runs every workload of BENCHMARK.json ten times for
its ``run_seconds``, each run with its own seed (set 1 uses seeds 101-110,
set 2 seeds 201-210), workloads interleaved so that host drift spreads over
all of them.  For every workload and end-to-end metric it prints each set's
median and quartiles, the quartile spread as a share of the median, and
whether

- every run was correct;
- the spread stays within the metric's bound, and under a third of it, the
  margin to aim for;
- the two sets' medians differ, in either direction, by no more than the
  bound.

Raw results are written to .perfbench/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                r = run_once(w, 100 * (s + 1) + i + 1, spec["run_seconds"])
                results[w][s].append(r)
                print(f"set {s + 1} run {i + 1} {w}: correct={r['correct']} " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    print(f"\n{'workload':9} {'metric':13} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10}"
          f" {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        if not all(r["correct"] for runs in results[w] for r in runs):
            ok = False
            print(f"{w}: FAIL some run was not correct")
        for m in spec["end_to_end"]:
            medians = []
            for s, runs in enumerate(results[w]):
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                verdict = ("ok" if spread < m["bound"] / 3 else
                           "within bound" if spread <= m["bound"] else "FAIL spread")
                ok &= spread <= m["bound"]
                print(f"{w:9} {m['name']:13} {s + 1:3} {med:10.4g} {q1:10.4g} {q3:10.4g}"
                      f" {spread:7.3f} {m['bound']:6.2f}  {verdict}")
            change = (medians[1] - medians[0]) / medians[0]
            agree = abs(change) <= m["bound"]
            ok &= agree
            print(f"{w:9} {m['name']:13} set 2 differs from set 1 by {change:+.3f}: "
                  f"{'agree' if agree else 'FAIL'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this fresh process and print its result as JSON.

Started by run.py with the BLAS thread count fixed and ``src`` on the path;
not meant to be run by hand.  Order of work:

1. import numpy, ``aftx`` and the workloads, timed here and in a few fresh
   interpreters;
2. set up on several fresh workload objects, keeping the last one;
3. the timed part: whole rounds until ``--seconds`` have passed, traced or not;
4. peak RSS, read before anything else can raise it;
5. as many imports and set-ups again, on objects that are then dropped;
6. the output checks, untraced.

``setup_s`` is the median import time plus the median set-up time.  Half of
the samples of each are taken after the timed part, so that the host's
load at the start of a run cannot move the medians alone.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

SETUPS = 5                        # set-ups, and timed imports, on each side of the timed part
HERE = os.path.dirname(os.path.abspath(__file__))
IMPORTS = "import numpy, aftx, spans, workloads"


def time_import() -> float:
    """Seconds to run IMPORTS in a fresh interpreter, timed inside it."""
    code = (f"import sys, time; sys.path.insert(0, {HERE!r}); t = time.perf_counter(); "
            f"{IMPORTS}; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import numpy, aftx, spans, workloads  # noqa: E401,F401  (the same list as IMPORTS)
    import_runs_s = [time.perf_counter() - t] + [time_import() for _ in range(SETUPS - 1)]
    from spans import Tracer, make_api, span_cost_s
    from workloads import WORKLOADS

    plain = make_api(None)
    os.makedirs(args.work, exist_ok=True)
    setup_times, setup_results = [], []

    def set_up():
        t = time.perf_counter()
        obj = WORKLOADS[args.workload](args.corpus, args.seed, args.work)
        setup_results.append(obj.setup(plain))
        setup_times.append(time.perf_counter() - t)
        return obj

    for _ in range(SETUPS):
        state = None                      # drop the previous copy before loading again
        state = set_up()

    tracer = Tracer() if args.trace else None
    state.api = make_api(tracer) if tracer else plain
    attempted = rounds = 0
    start = time.perf_counter()
    while True:
        attempted += state.round()
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    state.api = plain
    import_runs_s += [time_import() for _ in range(SETUPS)]
    for _ in range(SETUPS):
        set_up()
    state.setup_results = setup_results
    checks = [{"check": name, "ok": bool(ok), "detail": detail}
              for name, ok, detail in state.check()]
    result = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "correct": all(c["ok"] for c in checks), "attempted": attempted, "failed": 0,
        "rounds": rounds, "wall_s": wall_s, "clips_per_s": attempted / wall_s,
        "import_runs_s": import_runs_s, "setup_runs_s": setup_times,
        "setup_s": statistics.median(import_runs_s) + statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib, "checks": checks,
    }
    if tracer is not None:
        result["summary"] = tracer.summary()
        result["counts"] = tracer.counts
        result["spans"] = len(tracer.spans)
        result["span_cost_ms"] = len(tracer.spans) * span_cost_s() * 1e3
        result["trace_file"] = os.path.join(
            args.work, f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(result["trace_file"], {"workload": args.workload, "seed": args.seed,
                                           "wall_s": wall_s, "attempted": attempted})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

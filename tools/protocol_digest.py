"""Print a SHA-256 per workload of the seeded protocol's outputs, and how many Transfer checks pass.

    python3 tools/protocol_digest.py --src SRC_DIR --corpora ROOT

Imports ``aftx`` from SRC_DIR and the workloads of ``perfbench/`` beside this
script.  The ``Pretrain`` digest hashes its set-up digest, then 5 steps'
losses and parameters (seed 722); the ``Transfer`` digest hashes one round's
predictions and UARs plus 8 clips' stacks (seed 721).  Both go on one line,
so a change to the taped path alone shows as a new ``Pretrain`` digest beside
an unchanged ``Transfer`` one.  ``perfbench/corpora.py``'s ``ensure`` writes a
missing corpus under ROOT, and removes that kind's corpora of other seeds."""
import argparse, hashlib, os, sys, tempfile  # noqa: E401

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the directory that holds the aftx package")
    ap.add_argument("--corpora", required=True, help="corpus root, as perfbench/corpora.py --root")
    args = ap.parse_args()
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [os.path.abspath(args.src),
                    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")]
    import numpy as np  # after the BLAS thread setting
    import corpora, spans, workloads  # noqa: E401

    api, pre_h, tr_h = spans.make_api(None), hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        pre = workloads.Pretrain(corpora.ensure(args.corpora, "pretrain", 722), 722, work)
        pre_h.update(pre.setup(api).encode())
        for _ in range(5):
            pre.round()
        for arr in [np.array(pre.losses)] + [pre.params[n].data for n in sorted(pre.params)]:
            pre_h.update(arr.tobytes())
        tr = workloads.Transfer(corpora.ensure(args.corpora, "transfer", 721), 721, work)
        tr.setup(api)
        tr.round()
        for truth, pred, uar in tr.scored:
            tr_h.update(truth.tobytes() + pred.tobytes() + np.float64(uar).tobytes())
        tr_h.update(tr.extract([os.path.join(tr.dir, "clips", i + ".wav") for i in tr.ids[:8]])[1])
        checks = tr.check()
    print(f"Pretrain {pre_h.hexdigest()} Transfer {tr_h.hexdigest()}",
          f"{sum(ok for _, ok, _ in checks)}/{len(checks)} Transfer checks ok")
    sys.exit(0 if all(ok for _, ok, _ in checks) else 1)

"""Print one SHA-256 of the seeded protocol's outputs and how many Transfer checks are ok.

    python3 tools/protocol_digest.py --src SRC_DIR --corpora ROOT

Imports ``aftx`` from SRC_DIR and the workloads of ``perfbench/`` beside this
script, and hashes the ``Pretrain`` set-up digest, then 5 steps' losses and
parameters (seed 722), and one ``Transfer`` round's predictions and UARs plus
8 clips' stacks (seed 721).  ``perfbench/corpora.py``'s ``ensure`` writes a
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

    api, h = spans.make_api(None), hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        pre = workloads.Pretrain(corpora.ensure(args.corpora, "pretrain", 722), 722, work)
        h.update(pre.setup(api).encode())
        for _ in range(5):
            pre.round()
        for arr in [np.array(pre.losses)] + [pre.params[n].data for n in sorted(pre.params)]:
            h.update(arr.tobytes())
        tr = workloads.Transfer(corpora.ensure(args.corpora, "transfer", 721), 721, work)
        tr.setup(api)
        tr.round()
        for truth, pred, uar in tr.scored:
            h.update(truth.tobytes() + pred.tobytes() + np.float64(uar).tobytes())
        h.update(tr.extract([os.path.join(tr.dir, "clips", i + ".wav") for i in tr.ids[:8]])[1])
        checks = tr.check()
    print(h.hexdigest(), f"{sum(ok for _, ok, _ in checks)}/{len(checks)} Transfer checks ok")
    sys.exit(0 if all(ok for _, ok, _ in checks) else 1)

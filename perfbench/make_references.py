"""Regenerate `references.json`: per workload and seed, the loss trace of
one training run, a digest of its final generator and encoder
parameters and digests of its batch-4096 scores and their two terms.

    python3 perfbench/make_references.py --seeds 20

Run it only when a change is meant to alter results, and say so with
the change; the benchmark compares every run against these values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __name__ == "__main__":
    # the same pins as run.py, before numpy loads
    os.environ.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import run  # noqa: E402
from harness import digest, patched  # noqa: E402


def reference(spec, name, seed):
    w = run.Workload(spec, name, seed)
    with patched([(run.fedbiwgan.federation, "manager_generate", w.boundary_wrapper)]):
        out = w.train_once()
    if out is None or w.failed:
        raise RuntimeError(f"{name} seed {seed}: the training run failed its checks")
    result = out[0]
    pool = w.detection_pool()
    scored = w.score(pool, result.bundle_for(0, 0))
    if scored is None:
        raise RuntimeError(f"{name} seed {seed}: scoring failed")
    return {
        "trace": w.trace_rows(result),
        "params": digest(w.final_params(result)),
        "scores": run.score_digests(scored[1]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="references for seeds 0..N-1")
    args = parser.parse_args(argv)
    if not run.load_package():
        print("no fedbiwgan package under src/", file=sys.stderr)
        return 2
    spec = run.load_spec()
    refs = {name: {str(seed): reference(spec, name, seed) for seed in range(args.seeds)}
            for name in spec["workloads"]}
    # one line per workload and seed, so a regenerated file diffs by seed
    lines = ",\n".join(
        f"{json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(ref)}" for seed, ref in by_seed.items()
        ) + "\n}"
        for name, by_seed in refs.items()
    )
    (run.HERE / "references.json").write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one fmfdet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-demo --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The line before it records the environment and the sample
counts. The exit code is 0 for a correct run, 1 for a run whose outputs
failed a check, and 2 when the run could not start. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / "perfbench" / ".work"
# One BLAS thread (nproc is 2 on the reference machine, which is shared):
# fixed before numpy is first imported, and recorded with every result.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        # what `wc -l src/fmfdet/*.py` totals
        "src_lines": sum(p.read_bytes().count(b"\n")
                         for p in (ROOT / "src" / "fmfdet").glob("*.py")),
    }


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fmfdet" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/fmfdet or BENCHMARK.json; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import workloads   # imports numpy, after the BLAS thread count is fixed

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work_dir = WORK_ROOT / f"{wl.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        run = workloads.measure_traced if args.trace else workloads.measure
        metrics, problems, outcomes, detail = run(wl, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass     # another run still uses it
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    detail.update(workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=problems, env=environment())
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that two checkouts write byte-identical outputs.

    python3 scripts/same_outputs.py BASE CHANGE

BASE and CHANGE are two checkout directories. In each, one after the other,
the fmfdet command line runs the same flow twice, each time into its own
temporary directory with that checkout's src on PYTHONPATH and one BLAS
thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS at 1):
"forked" with the CPUs this script has, so that `train` forks workers where
it has two, and "in-process" with each command bound to one CPU, so that
`train` runs every pair in one process. Only the training path differs
between the modes; the BLAS thread count is the same in both. The flow:

- gen-data on two scene specs: `flow`, 2 sequences of 6 frames with ego
  motion (ego_speed 2.0, ego_yaw_rate 0.3), and `dense`, where the per-cell
  point cap binds (20 objects of 1,200 points, 3,000 clutter points,
  min_separation 1.0);
- on each spec, train 6 steps at the demo widths (12/24, head 24) with
  augmentation on, in float32 and float64, each with fusion on and off,
  then infer (score threshold 0.05) and eval --out;
- grad-check, its printout saved with the seconds stripped.

It compares the sha256 of every file the four flows wrote: frame files and
manifests, checkpoints, trace CSVs, detections, reports and the grad-check
printout. It prints each file that differs or is missing from some flow,
then each command that failed, then one JSON line. The exit status is 0
when every file matches in all four flows and every command ran, and 1
otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

_SCENE = {"num_frames": 6, "count": 2, "ego_speed": 2.0, "ego_yaw_rate": 0.3,
          "seed": 11, "class_names": ["car", "pedestrian"]}
SPECS = {
    "flow": dict(_SCENE, num_objects=4, points_per_object=140, clutter_points=60),
    "dense": dict(_SCENE, num_objects=20, points_per_object=1200, clutter_points=3000,
                  min_separation=1.0),
}
TRAIN = {"backbone": {"pfn_channels": 12, "neck_channels": [12, 24],
                      "neck_strides": [1, 2], "out_channels": 24},
         "head_channels": 24, "max_steps": 6, "augment": {"enabled": True},
         "match": {"score_threshold": 0.05}}
RUNS = [(dtype, fusion) for dtype in ("float32", "float64") for fusion in ("on", "off")]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_cpu():
    """Bind the calling process to the lowest of its CPUs: `train` then sees
    one usable CPU and forks no worker."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# each mode's preexec_fn; where there is no sched_setaffinity, `train` never forks
MODES = {"forked": None, "in-process": one_cpu if hasattr(os, "sched_setaffinity") else None}


def write_inputs(inputs):
    """The scene specs and train configs both checkouts read."""
    inputs.mkdir(parents=True)
    for name, spec in SPECS.items():
        (inputs / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    for dtype, fusion in RUNS:
        cfg = dict(TRAIN, compute_dtype=dtype, fmf={"enabled": fusion == "on"})
        (inputs / f"{dtype}-fusion-{fusion}.json").write_text(json.dumps(cfg), encoding="utf-8")


def run_flow(checkout, inputs, out, pin):
    """Every command of the flow, run by `checkout`'s fmfdet with one BLAS
    thread, its outputs under `out` and `pin`, one of MODES, run in the child
    before it starts; returns the failed commands, each with its exit code
    and the tail of its stderr."""
    env = dict(os.environ, **dict.fromkeys(BLAS_THREADS, "1"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(checkout.resolve() / "src"))
    failed = []

    def fmfdet(*args):
        args = [str(a) for a in args]
        done = subprocess.run([sys.executable, "-m", "fmfdet.cli", *args], cwd=out, env=env,
                              preexec_fn=pin, capture_output=True, text=True)
        if done.returncode:
            failed.append(f"{checkout}: fmfdet {' '.join(args)}: exit {done.returncode}: "
                          f"{done.stderr.strip()[-300:]}")
        return done.stdout

    for name in SPECS:
        data = out / name / "data"
        fmfdet("gen-data", "--spec", inputs / f"{name}.json", "--out", data)
        for dtype, fusion in RUNS:
            run = out / name / f"{dtype}-fusion-{fusion}"
            fmfdet("train", "--config", inputs / f"{dtype}-fusion-{fusion}.json",
                   "--data", data, "--out", f"{run}.npz")
            fmfdet("infer", "--ckpt", f"{run}.npz", "--data", data, "--out", f"{run}.jsonl")
            fmfdet("eval", "--dets", f"{run}.jsonl", "--data", data, "--out", f"{run}.json")
    printout = fmfdet("grad-check")
    (out / "grad-check.txt").write_text(re.sub(r" in [0-9.]+s$", " in <seconds>s", printout,
                                               flags=re.MULTILINE), encoding="utf-8")
    return failed


def digests(root):
    """sha256 of every file under `root`, keyed by its path relative to it."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path, help="parent checkout")
    parser.add_argument("change", type=pathlib.Path, help="changed checkout")
    args = parser.parse_args(argv)
    sides = {"base": args.base, "change": args.change}
    for side, checkout in sides.items():
        if not (checkout / "src" / "fmfdet").is_dir():
            parser.error(f"{side} {checkout} has no src/fmfdet")

    failed, sums = [], {}
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = pathlib.Path(tmp)
        write_inputs(work / "inputs")
        for side, checkout in sides.items():
            for mode, pin in MODES.items():
                out = work / side / mode
                out.mkdir(parents=True)
                failed += run_flow(checkout, work / "inputs", out, pin)
                sums[f"{side} {mode}"] = digests(out)
    names = sorted(set().union(*sums.values()))
    differ = [n for n in names if len({flow.get(n) for flow in sums.values()}) > 1]
    for name in differ:
        print(f"differs: {name}: " + ", ".join(f"{flow} {got.get(name, 'missing')[:16]}"
                                               for flow, got in sums.items()))
    for command in failed:
        print(f"failed: {command}")
    print(json.dumps({"base": str(args.base), "change": str(args.change), "files": len(names),
                      "identical": len(names) - len(differ), "differ": differ,
                      "failed": failed}))
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that two checkouts write byte-identical outputs.

    python3 scripts/same_outputs.py BASE CHANGE

BASE and CHANGE are two checkout directories. In each, one after the other,
the fmfdet command line runs the same flow into its own temporary
directory, with that checkout's src on PYTHONPATH and one BLAS thread:

- gen-data on two scene specs: `flow`, 2 sequences of 6 frames with ego
  motion (ego_speed 2.0, ego_yaw_rate 0.3), and `dense`, where the per-cell
  point cap binds (20 objects of 1,200 points, 3,000 clutter points,
  min_separation 1.0);
- on each spec, train 6 steps at the demo widths (12/24, head 24) with
  augmentation on, in float32 and float64, each with fusion on and off,
  then infer (score threshold 0.05) and eval --out;
- grad-check, its printout saved with the seconds stripped.

It compares the sha256 of every file the two flows wrote: frame files and
manifests, checkpoints, trace CSVs, detections, reports and the grad-check
printout. It prints each file that differs or exists on one side only, then
each command that failed, then one JSON line. The exit status is 0 when
every file matches and every command ran, and 1 otherwise.
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


def write_inputs(inputs):
    """The scene specs and train configs both checkouts read."""
    inputs.mkdir(parents=True)
    for name, spec in SPECS.items():
        (inputs / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    for dtype, fusion in RUNS:
        cfg = dict(TRAIN, compute_dtype=dtype, fmf={"enabled": fusion == "on"})
        (inputs / f"{dtype}-fusion-{fusion}.json").write_text(json.dumps(cfg), encoding="utf-8")


def run_flow(checkout, inputs, out):
    """Every command of the flow, run by `checkout`'s fmfdet with its outputs
    under `out`; returns the failed commands, each with its exit code and the
    tail of its stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(checkout.resolve() / "src"))
    failed = []

    def fmfdet(*args):
        args = [str(a) for a in args]
        done = subprocess.run([sys.executable, "-m", "fmfdet.cli", *args], cwd=out, env=env,
                              capture_output=True, text=True)
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
            (work / side).mkdir()
            failed += run_flow(checkout, work / "inputs", work / side)
            sums[side] = digests(work / side)
    names = sorted(sums["base"].keys() | sums["change"].keys())
    differ = [n for n in names if sums["base"].get(n) != sums["change"].get(n)]
    for name in differ:
        base, change = (sums[side].get(name, "missing")[:16] for side in sides)
        print(f"differs: {name}: base {base}, change {change}")
    for command in failed:
        print(f"failed: {command}")
    print(json.dumps({"base": str(args.base), "change": str(args.change), "files": len(names),
                      "identical": len(names) - len(differ), "differ": differ,
                      "failed": failed}))
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write one BENCH_<tag>.json: a performance snapshot of this checkout.

    python3 scripts/bench_snapshot.py --tag <tag>

Run from anywhere; the checkout is the one this script sits in. The file
lands at the root of the checkout and holds:

- every perfbench workload at --trace 0 and --trace 1, on fixed seeds and
  BENCHMARK.json's run_seconds, as perfbench/run.py prints them, run and
  parsed by `ab_pairs.run_perfbench` (whose result also names the commit and
  `src_lines` under "env");
- `fmfdet bench` stage times, minor faults per frame and `points_mb` (the
  MiB of the replayed point arrays), as it prints them, at the demo widths
  (12/24, head 24) and the default widths (32/64, head 64), on fixed
  stream-demo scenes and a fixed-seed 10-step checkpoint;
- the tracemalloc peak of one 3-step, fixed-seed `train.train` call
  (batch 2, augmentation on) at each of those widths, on the same scenes
  read back from their files: `cold` in a fresh process, and `warm` for the
  same call repeated in that thread, whose conv scratch buffers are then
  already sized (the steady state of a long run), in bytes and in MB of
  10**6 bytes. Unlike latency, peak bytes do not drift with the machine;
- tier-1 wall time and its ten slowest tests (pytest --durations=10);
- the line count of every src/fmfdet/*.py file, as `wc -l` counts them;
- the environment: nproc, Python, NumPy and BLAS, the commit.

Everything runs through the perfbench and fmfdet command lines, each in its
own process with one BLAS thread, one at a time. A snapshot takes about
seven minutes on two cores. Snapshots are never overwritten: an existing
file for the tag is an error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile
import time

from ab_pairs import run_perfbench  # this script's directory is on sys.path

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (911,)
BENCH_FRAMES = 200
# perfbench's stream-demo scene, four sequences with their own motion.
DEMO_SCENE = {"num_frames": 10, "num_objects": 3, "points_per_object": 140,
              "clutter_points": 60, "range": 12.8, "margin": 2.0,
              "ego_speed": 2.0, "ego_yaw_rate": 0.2, "seed": 5, "count": 4,
              "class_names": ["car", "pedestrian"]}
OPERATING_POINTS = {
    "demo": {"backbone": {"pfn_channels": 12, "neck_channels": [12, 24],
                          "neck_strides": [1, 2], "out_channels": 24},
             "head_channels": 24},
    "default": {"backbone": {"pfn_channels": 32, "neck_channels": [32, 64],
                             "neck_strides": [1, 2], "out_channels": 64},
                "head_channels": 64},
}
CHECKPOINT = {"max_steps": 10, "batch_size": 2, "seed": 0,
              "augment": {"enabled": False}}
TRAIN_PEAK = {"max_steps": 3, "batch_size": 2, "seed": 0}


def child_env():
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=str(ROOT / "src"))


def run(cmd, timeout=1800):
    """Run one command from the checkout root; returns (exit code, stdout,
    stderr, wall seconds)."""
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def perfbench_runs(seeds):
    """Every workload at --trace 0 and 1, through ab_pairs.run_perfbench."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for wl in spec["workloads"]:
        for seed in seeds:
            for trace in (0, 1):
                entry = {"workload": wl["name"], "seed": seed, "trace": trace,
                         **run_perfbench(ROOT, wl["name"], seed, spec["run_seconds"],
                                         1800, trace=trace, env=child_env())}
                runs.append(entry)
                print(f"perfbench {wl['name']} seed {seed} trace {trace}: "
                      f"exit {entry['exit_code']}, {entry['wall_s']:.0f} s", file=sys.stderr)
    return runs


def fmfdet(*args):
    code, out, err, wall = run([sys.executable, "-m", "fmfdet.cli", *args])
    if code != 0:
        raise RuntimeError(f"fmfdet {' '.join(args)} exited {code}: {err[-2000:]}")
    return out, wall


def stage_bench():
    """`fmfdet bench` at each operating point, on one shared scene set."""
    results = {}
    with tempfile.TemporaryDirectory(prefix="bench_snapshot_") as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "scene.json").write_text(json.dumps(DEMO_SCENE), encoding="utf-8")
        fmfdet("gen-data", "--spec", str(tmp / "scene.json"), "--out", str(tmp / "data"))
        for name, point in OPERATING_POINTS.items():
            cfg_path = tmp / f"{name}.json"
            cfg_path.write_text(json.dumps({**CHECKPOINT, **point}), encoding="utf-8")
            ckpt = tmp / f"{name}.npz"
            _, train_s = fmfdet("train", "--config", str(cfg_path), "--data",
                                str(tmp / "data"), "--out", str(ckpt))
            out, _ = fmfdet("bench", "--ckpt", str(ckpt), "--data", str(tmp / "data"),
                            "--min-frames", str(BENCH_FRAMES))
            results[name] = {"config": point, "checkpoint_train_s": train_s,
                             "report": json.loads(out)}
            print(f"bench {name}: {results[name]['report']['end_to_end']}",
                  file=sys.stderr)
    return results


def train_peak():
    """The tracemalloc peak of one TRAIN_PEAK `train` call per operating
    point, each measured in its own process by `--train-peak NAME`."""
    results = {}
    for name in OPERATING_POINTS:
        code, out, err, _ = run([sys.executable, str(pathlib.Path(__file__).resolve()),
                                 "--train-peak", name])
        if code != 0:
            raise RuntimeError(f"--train-peak {name} exited {code}: {err[-2000:]}")
        results[name] = json.loads(out)
        print(f"train peak {name}: {results[name]['peak_mb']} MB", file=sys.stderr)
    return results


def measure_train_peak(name):
    """Child side of train_peak: DEMO_SCENE's sequences written and read back,
    then the same `train` call traced twice; returns its config and peaks."""
    import tracemalloc

    from fmfdet.cli import load_dataset, main as fmfdet_main
    from fmfdet.config import from_dict, to_dict
    from fmfdet.train import TrainConfig, train

    cfg = from_dict(TrainConfig, {**TRAIN_PEAK, **OPERATING_POINTS[name]})
    with tempfile.TemporaryDirectory(prefix="bench_snapshot_") as tmp:
        (pathlib.Path(tmp) / "scene.json").write_text(json.dumps(DEMO_SCENE), encoding="utf-8")
        with contextlib.redirect_stdout(sys.stderr):
            fmfdet_main(["gen-data", "--spec", f"{tmp}/scene.json", "--out", f"{tmp}/data"])
        scenes = load_dataset(f"{tmp}/data")
    peaks = {}
    for key in ("cold", "warm"):
        tracemalloc.start()
        train(cfg, scenes)
        peaks[key] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {"config": to_dict(cfg), "steps": cfg.max_steps, "peak_bytes": peaks,
            "peak_mb": {key: peak / 1e6 for key, peak in peaks.items()}}


def tier1():
    code, out, err, wall = run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10", "-p", "no:cacheprovider"], timeout=3600)
    lines = out.strip().splitlines()
    durations = [ln.strip() for ln in lines
                 if re.match(r"\s*\d+\.\d+s (call|setup|teardown)\s", ln)]
    print(f"tier-1: exit {code}, {wall:.0f} s", file=sys.stderr)
    return {"exit_code": code, "wall_s": wall,
            "summary": lines[-1] if lines else err[-500:],
            "durations": durations}


def source_lines():
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((ROOT / "src" / "fmfdet").glob("*.py"))}
    return {"files": counts, "total": sum(counts.values())}


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = dirty = None
    if (ROOT / ".git").exists():
        code, out, _, _ = run(["git", "rev-parse", "HEAD"])
        commit = out.strip() if code == 0 else None
        code, out, _, _ = run(["git", "status", "--porcelain", "--", "src", "tests",
                               "perfbench", "BENCHMARK.json"])
        dirty = bool(out.strip()) if code == 0 else None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1, "git_commit": commit, "uncommitted_changes": dirty,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", help="names the output file BENCH_<tag>.json")
    parser.add_argument("--train-peak", choices=OPERATING_POINTS,
                        help="print one operating point's train peak as JSON "
                             "and write no snapshot")
    args = parser.parse_args(argv)
    if args.train_peak:
        print(json.dumps(measure_train_peak(args.train_peak)))
        return 0
    if args.tag is None:
        parser.error("--tag is required")
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.tag):
        parser.error("tag may hold only letters, digits, '.', '_' and '-'")
    path = ROOT / f"BENCH_{args.tag}.json"
    if path.exists():
        parser.error(f"{path.name} exists; snapshots are never overwritten")
    snapshot = {"tag": args.tag, "environment": environment(),
                "src_lines": source_lines(), "seeds": list(SEEDS),
                "perfbench": perfbench_runs(SEEDS), "bench": stage_bench(),
                "train_peak": train_peak(), "tier1": tier1()}
    path.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Wall-clock latency measurement per pipeline stage.

Timings are collected around the same staged calls inference makes, so the
detections produced while benchmarking match run_inference exactly.
"""
from __future__ import annotations

import resource
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from .decode import decode
from .errors import ConfigError
from .voxelizer import voxelize

STAGES = ("voxelize", "backbone", "neck", "fmf", "head", "decode")


def _staged_sequence(model, sequence, match_cfg, times, end_to_end):
    """Inference over one sequence with per-stage timers; returns detections."""
    state = None
    prev_pose = None
    det_frames = []
    for frame in sequence.frames:
        t0 = time.perf_counter()
        pillars = voxelize(frame, model.grid, seed=0)
        t1 = time.perf_counter()
        pseudo = model.pfn(pillars)
        t2 = time.perf_counter()
        bev = model.neck(pseudo)
        t3 = time.perf_counter()
        poses = None
        if prev_pose is not None and frame.ego_pose is not None:
            poses = (prev_pose, frame.ego_pose)
        fused, state = model.fuse(bev, state, poses)
        t4 = time.perf_counter()
        out = model.head(fused)
        t5 = time.perf_counter()
        det_frames.append(decode(out, model.geometry, match_cfg))
        t6 = time.perf_counter()
        prev_pose = frame.ego_pose
        for name, dt in zip(STAGES, np.diff([t0, t1, t2, t3, t4, t5, t6])):
            times[name].append(dt)
        end_to_end.append(t6 - t0)
    return det_frames


def _stats(samples):
    arr = np.asarray(samples) * 1e3
    return {"mean_ms": float(arr.mean()),
            "p50_ms": float(np.percentile(arr, 50)),
            "p99_ms": float(np.percentile(arr, 99))}


def bench(model, sequences, match_cfg, min_frames=1, parallel=False,
          max_workers=4):
    """Benchmark inference; returns (report dict, first-pass detections).

    Sequences are replayed until at least min_frames frames were timed.
    `minor_faults_per_frame` is this process's minor page faults over the
    timed frames, per frame: the cost of heap memory being returned to the
    OS and faulted back in.
    Parallel mode runs whole sequences on a thread pool; per-frame stage
    ordering inside each sequence is unchanged, so detections are identical
    to the sequential ones.
    """
    total = sum(len(seq.frames) for seq in sequences)
    if total == 0:
        raise ConfigError("bench needs at least one frame")

    model.eval()
    times = {name: [] for name in STAGES}
    end_to_end = []
    first_pass = None
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with ad.no_grad():
        while len(end_to_end) < max(min_frames, 1):
            if parallel:
                workers = min(max_workers, len(sequences))
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [pool.submit(_staged_sequence, model, seq,
                                           match_cfg, times, end_to_end)
                               for seq in sequences]
                    dets = [f.result() for f in futures]
            else:
                dets = [_staged_sequence(model, seq, match_cfg, times,
                                         end_to_end)
                        for seq in sequences]
            if first_pass is None:
                first_pass = dets
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before

    report = {
        "mode": "parallel" if parallel else "sequential",
        "frames": len(end_to_end),
        "stages": {name: _stats(times[name]) for name in STAGES},
        "end_to_end": _stats(end_to_end),
        "stage_mean_sum_ms": float(sum(_stats(times[n])["mean_ms"]
                                       for n in STAGES)),
        "minor_faults_per_frame": faults / len(end_to_end),
    }
    return report, first_pass

"""Wall-clock latency measurement per pipeline stage.

Times model.run_inference itself, through its per-stage callback, so the
benched path is the shipped one and the detections match it exactly.
"""
from __future__ import annotations

import resource
import time

import numpy as np

from .errors import ConfigError
from .model import STAGES, run_inference


def _stats(samples):
    arr = np.asarray(samples) * 1e3
    return {"mean_ms": float(arr.mean()),
            "p50_ms": float(np.percentile(arr, 50)),
            "p99_ms": float(np.percentile(arr, 99))}


def bench(model, sequences, match_cfg, min_frames=1):
    """Benchmark inference; returns (report dict, first-pass detections).

    Sequences are replayed through run_inference until at least min_frames
    frames were timed. A stage's time runs from the previous stamp (or the
    start of the sequence) to its own, so a frame's stage times add up to
    its end-to-end time.
    `minor_faults_per_frame` is this process's minor page faults over the
    timed frames, per frame: the cost of heap memory being returned to the
    OS and faulted back in. `compute_dtype` names the dtype of the model's
    parameters, so a latency figure says which dtype it measured.
    `points_mb` is the MiB held by the point arrays of the replayed
    sequences: 16 B per point for frames read from files.
    """
    if not any(seq.frames for seq in sequences):
        raise ConfigError("bench needs at least one frame")

    times = {name: [] for name in STAGES}
    last = 0.0

    def stamp(stage):
        nonlocal last
        now = time.perf_counter()
        times[stage].append(now - last)
        last = now

    first_pass = None
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    while len(times["decode"]) < max(min_frames, 1):
        dets = []
        for seq in sequences:
            last = time.perf_counter()
            dets.append(run_inference(model, seq, match_cfg, stamp))
        if first_pass is None:
            first_pass = dets
    frames = len(times["decode"])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before

    report = {
        "frames": frames,
        "stages": {name: _stats(times[name]) for name in STAGES},
        "end_to_end": _stats(np.sum([times[n] for n in STAGES], axis=0)),
        "minor_faults_per_frame": faults / frames,
        "points_mb": sum(f.points.nbytes for seq in sequences
                         for f in seq.frames) / 2 ** 20,
        "compute_dtype": "+".join(sorted({p.data.dtype.name
                                          for p in model.parameters()})),
    }
    return report, first_pass

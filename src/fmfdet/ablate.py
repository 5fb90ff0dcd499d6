"""Side-by-side comparison of two training configs that differ only in the
temporal-aggregation block, on shared synthetic train and eval scenes.
"""
from __future__ import annotations

import dataclasses

from .bench import bench
from .config import to_dict
from .errors import ConfigError
from .metrics import evaluate
from .scene import SceneSpec, generate_scene
from .train import TrainConfig, train

_DEFAULT_TRAIN_SEQUENCES = 2
_DEFAULT_EVAL_SEQUENCES = 2


def make_scene_set(base_seed, count):
    return [generate_scene(SceneSpec(seed=base_seed + i, ego_speed=0.4))
            for i in range(count)]


def ablation_run(cfg_a: TrainConfig, cfg_b: TrainConfig, train_scenes=None,
                 eval_scenes=None, min_bench_frames=100, print_every=0):
    """Train and benchmark both configs and score the detections of bench's
    first pass (run_inference's); returns a comparison report dict.

    The two configs must agree everywhere outside the fmf block. When scene
    sets are not supplied, deterministic synthetic ones are generated from
    seeds 0 (train) and 1000 (eval).
    """
    if dataclasses.replace(cfg_a, fmf=cfg_b.fmf) != cfg_b:
        raise ConfigError("ablation configs may differ only in fmf settings")
    if train_scenes is None:
        train_scenes = make_scene_set(0, _DEFAULT_TRAIN_SEQUENCES)
    if eval_scenes is None:
        eval_scenes = make_scene_set(1000, _DEFAULT_EVAL_SEQUENCES)
    gt_frames = [list(frame.gt_boxes) for seq in eval_scenes for frame in seq.frames]

    report = {"config_a": to_dict(cfg_a), "config_b": to_dict(cfg_b)}
    for tag, cfg in (("a", cfg_a), ("b", cfg_b)):
        model, _opt, _trace = train(cfg, train_scenes,
                                    print_every=print_every)
        latency, dets = bench(model, eval_scenes, cfg.match,
                              min_frames=min_bench_frames)
        det_frames = [frame_dets for seq_dets in dets for frame_dets in seq_dets]
        result = evaluate(det_frames, gt_frames, eval_scenes[0].class_names, cfg.match)
        report["metrics_" + tag] = result.to_dict()
        report["latency_" + tag] = latency
    report["nds_a"] = report["metrics_a"]["NDS"]
    report["nds_b"] = report["metrics_b"]["NDS"]
    report["nds_delta"] = report["nds_b"] - report["nds_a"]
    return report


def format_ablation(report):
    lines = ["ablation: config_a vs config_b",
             f"  NDS a: {report['nds_a']:.4f}",
             f"  NDS b: {report['nds_b']:.4f}",
             f"  delta (b - a): {report['nds_delta']:+.4f}", "  latency (mean ms per stage):"]
    la, lb = report["latency_a"], report["latency_b"]
    rows = [(name, la["stages"][name], lb["stages"][name]) for name in la["stages"]]
    for name, a, b in rows + [("total", la["end_to_end"], lb["end_to_end"])]:
        lines.append(f"    {name:<9} a {a['mean_ms']:8.3f}   b {b['mean_ms']:8.3f}")
    return "\n".join(lines)

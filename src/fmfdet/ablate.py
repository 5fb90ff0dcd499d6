"""Side-by-side comparison of two training configs that differ only in the
temporal-aggregation block, on shared synthetic train and eval scenes.
"""
from __future__ import annotations

import dataclasses

from .bench import bench
from .config import to_dict
from .errors import ConfigError
from .metrics import evaluate
from .model import run_inference
from .scene import SceneSpec, generate_scene
from .train import TrainConfig, train

_DEFAULT_TRAIN_SEQUENCES = 2
_DEFAULT_EVAL_SEQUENCES = 2


def default_scene_spec(seed=0, num_frames=10):
    return dataclasses.replace(SceneSpec(), seed=seed, num_frames=num_frames,
                               ego_speed=0.4)


def make_scene_set(base_seed, count, num_frames=10):
    return [generate_scene(default_scene_spec(base_seed + i, num_frames))
            for i in range(count)]


def _flatten(sequences):
    return [list(frame.gt_boxes) for seq in sequences for frame in seq.frames]


def _evaluate_model(model, sequences, match_cfg):
    det_frames = [dets for seq in sequences
                  for dets in run_inference(model, seq, match_cfg)]
    gt_frames = _flatten(sequences)
    class_names = sequences[0].class_names
    return evaluate(det_frames, gt_frames, class_names, match_cfg)


def ablation_run(cfg_a: TrainConfig, cfg_b: TrainConfig, train_scenes=None,
                 eval_scenes=None, data_seed=0, min_bench_frames=100,
                 print_every=0):
    """Train and evaluate both configs; returns a comparison report dict.

    The two configs must agree everywhere outside the fmf block. When scene
    sets are not supplied, deterministic synthetic ones are generated from
    data_seed.
    """
    if dataclasses.replace(cfg_a, fmf=cfg_b.fmf) != cfg_b:
        raise ConfigError("ablation configs may differ only in fmf settings")
    if train_scenes is None:
        train_scenes = make_scene_set(data_seed, _DEFAULT_TRAIN_SEQUENCES)
    if eval_scenes is None:
        eval_scenes = make_scene_set(data_seed + 1000,
                                     _DEFAULT_EVAL_SEQUENCES)

    report = {"config_a": to_dict(cfg_a), "config_b": to_dict(cfg_b)}
    for tag, cfg in (("a", cfg_a), ("b", cfg_b)):
        model, _opt, _trace = train(cfg, train_scenes,
                                    print_every=print_every)
        result = _evaluate_model(model, eval_scenes, cfg.match)
        latency, _dets = bench(model, eval_scenes, cfg.match,
                               min_frames=min_bench_frames)
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
    stages = report["latency_a"]["stages"]
    for name in stages:
        a = report["latency_a"]["stages"][name]["mean_ms"]
        b = report["latency_b"]["stages"][name]["mean_ms"]
        lines.append(f"    {name:<9} a {a:8.3f}   b {b:8.3f}")
    lines.append(f"    {'total':<9} a {report['latency_a']['end_to_end']['mean_ms']:8.3f}   "
                 f"b {report['latency_b']['end_to_end']['mean_ms']:8.3f}")
    return "\n".join(lines)

#!/usr/bin/env python3
"""Overfit a small detector on one synthetic scene and report how well the
decoded centers land on the ground truth. Useful as a quick sanity run for
the whole stack: scene -> pillars -> BEV -> fusion -> head -> decode.
"""
import argparse
import math
import pathlib
import sys
import time

from fmfdet.augment import AugmentConfig
from fmfdet.backbone import BackboneConfig
from fmfdet.errors import writing
from fmfdet.model import run_inference
from fmfdet.scene import SceneSpec, generate_scene
from fmfdet.train import TRACE_COLUMNS, TrainConfig, save_checkpoint, train
from fmfdet.voxelizer import desk_pillar_config


def build_config(steps, seed):
    """The demo-width detector on the desk pillar grid, fusion on and
    augmentation off; run_ablation.py trains it with fusion on and off."""
    return TrainConfig(
        grid=desk_pillar_config(),
        backbone=BackboneConfig(pfn_channels=12, neck_channels=(12, 24),
                                neck_strides=(1, 2), out_channels=24),
        head_channels=24, epochs=100, batch_size=2, max_steps=steps,
        seed=seed, augment=AugmentConfig(enabled=False))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scene-seed", type=int, default=42)
    parser.add_argument("--ckpt", default=None,
                        help="optional checkpoint output path")
    args = parser.parse_args()

    spec = SceneSpec(num_frames=10, num_objects=3, range=12.8, margin=2.0,
                     ego_speed=0.5, seed=args.scene_seed,
                     class_names=("car", "pedestrian"),
                     points_per_object=140, clutter_points=60)
    scene = generate_scene(spec)
    cfg = build_config(args.steps, args.seed)

    if args.ckpt:   # made before training, so a bad path ends the run at once
        with writing(args.ckpt):
            pathlib.Path(args.ckpt).parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    model, opt, trace = train(cfg, [scene], print_every=50)
    elapsed = time.perf_counter() - t0

    hm = TRACE_COLUMNS.index("L_hm")
    first, best = trace[0][hm], min(row[hm] for row in trace)
    print(f"\ntrained {len(trace)} steps in {elapsed:.0f}s")
    print(f"L_hm {first:.4f} -> {best:.4f} ({first / max(best, 1e-12):.0f}x)")

    det_frames = run_inference(model, scene, cfg.match)
    cell = model.geometry.cell
    checked = hit = 0
    for frame, dets in zip(scene.frames, det_frames):
        for box in frame.gt_boxes:
            checked += 1
            dists = [math.hypot(d.box.cx - box.cx, d.box.cy - box.cy)
                     for d in dets]
            if dists and min(dists) <= cell:
                hit += 1
    print(f"centers within one output cell ({cell:.2f} m): {hit}/{checked}")

    if args.ckpt:
        save_checkpoint(args.ckpt, model, cfg, scene.class_names,
                        step=len(trace), opt=opt)
        print(f"checkpoint -> {args.ckpt}")
    return 0 if hit == checked else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Train the detector twice on the same synthetic scenes, with temporal
fusion enabled and disabled, and print NDS plus per-stage latency for both.
No direction is assumed; this just measures the difference.
"""
import argparse
import dataclasses
import json
import pathlib
import sys

from fmfdet.ablate import ablation_run, format_ablation, make_scene_set
from fmfdet.errors import atomic_file, writing
from fmfdet.fmf import FMFConfig
from overfit_demo import build_config  # this script's directory is on sys.path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=300,
                        help="training steps per config")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-sequences", type=int, default=2)
    parser.add_argument("--eval-sequences", type=int, default=2)
    parser.add_argument("--bench-frames", type=int, default=40)
    parser.add_argument("--out", default=None, help="JSON report path")
    args = parser.parse_args(argv)

    cfg_a = build_config(args.steps, args.seed)
    cfg_b = dataclasses.replace(cfg_a, fmf=FMFConfig(enabled=False))
    train_scenes = make_scene_set(args.seed, args.train_sequences)
    eval_scenes = make_scene_set(args.seed + 1000, args.eval_sequences)

    if args.out:   # made before training, so a bad path ends the run at once
        with writing(args.out):
            pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    report = ablation_run(cfg_a, cfg_b, train_scenes=train_scenes,
                          eval_scenes=eval_scenes,
                          min_bench_frames=args.bench_frames,
                          print_every=50)
    print()
    print(format_ablation(report))
    if args.out:
        with atomic_file(args.out, encoding="utf-8") as f:
            f.write(json.dumps(report, indent=2) + "\n")
        print(f"\nreport -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

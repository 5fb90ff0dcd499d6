"""Command-line interface.

Subcommands: gen-data, train, infer, eval, ablate, grad-check, bench.
Exit codes: 0 success, 2 ConfigError, 3 DataError (also for an output path
that cannot be written), 4 DivergenceError, 5 WorkerError.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

from .ablate import ablation_run, format_ablation
from .bench import bench
from .config import (apply_overrides, coerce, from_dict, load_config,
                     read_json_object)
from .decode import MatchConfig
from .errors import ConfigError, DataError, DivergenceError, WorkerError, atomic_file, writing
from .frameio import MANIFEST_NAME, read_sequence, write_sequence
from .gradcheck import run_gradcheck
from .metrics import evaluate, read_detections, write_detections
from .model import run_inference
from .scene import SceneSpec, generate_scene
from .train import (TrainConfig, load_checkpoint, save_checkpoint,
                    shared_class_names, train)


def load_dataset(path):
    """Load one sequence dir, or every sequence dir directly under `path`.

    Every sequence must list the first one's class names in the same order;
    a mismatch is a DataError naming both directories.
    """
    p = pathlib.Path(path)
    if not p.is_dir():
        raise DataError(f"data directory not found: {path}")
    if (p / MANIFEST_NAME).is_file():
        return [read_sequence(p)]
    subs = sorted(d for d in p.iterdir()
                  if d.is_dir() and (d / MANIFEST_NAME).is_file())
    if not subs:
        raise DataError(f"no sequences found under {path}")
    scenes = [read_sequence(d) for d in subs]
    shared_class_names(scenes, subs)
    return scenes


def _output(path):
    """`path` (None: no output), once its parent directory exists. Commands
    make it before their work, so an output under a regular file, or at a
    directory, ends the command at once with a DataError naming `path`."""
    if path is None:
        return None
    with writing(path):
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    if pathlib.Path(path).is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    return path


def _write_report(path, report):
    with atomic_file(path, encoding="utf-8") as f:
        f.write(json.dumps(report, indent=2) + "\n")


def cmd_gen_data(args):
    data = read_json_object(args.spec)
    count = coerce(1, data.pop("count", 1), "count")
    if count < 1:
        raise ConfigError("count must be a positive integer")
    spec = from_dict(SceneSpec, data)

    out = pathlib.Path(args.out)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        seq = generate_scene(dataclasses.replace(spec, seed=spec.seed + i))
        write_sequence(seq, out if count == 1 else out / f"seq_{i:03d}")
    print(f"wrote {count} sequence{'s' * (count > 1)} "
          f"({spec.num_frames} frames each) to {out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config, TrainConfig)
    cfg = apply_overrides(cfg, args.set or [])
    scenes = load_dataset(args.data)
    _output(args.out)
    trace_path = _output(args.trace or (args.out + ".trace.csv"))
    model, opt, trace = train(cfg, scenes, trace_path=trace_path,
                              print_every=args.log_every)
    save_checkpoint(args.out, model, cfg, scenes[0].class_names,
                    step=len(trace), opt=opt)
    print(f"trained {len(trace)} steps; checkpoint -> {args.out}, "
          f"trace -> {trace_path}")
    return 0


def _load_model_and_data(args):
    """(model, config, class names, scenes) of --ckpt and --data, whose class names agree."""
    model, cfg, class_names, _step, _opt = load_checkpoint(args.ckpt)
    scenes = load_dataset(args.data)
    if scenes[0].class_names != class_names:
        raise DataError(f"--data {args.data} lists classes {scenes[0].class_names}, "
                        f"--ckpt {args.ckpt} lists {class_names}")
    return model, cfg, class_names, scenes


def cmd_infer(args):
    model, cfg, class_names, scenes = _load_model_and_data(args)
    _output(args.out)
    det_frames = [dets for seq in scenes
                  for dets in run_inference(model, seq, cfg.match)]
    write_detections(det_frames, class_names, args.out)
    total = sum(len(d) for d in det_frames)
    print(f"wrote {total} detections over {len(det_frames)} frames "
          f"to {args.out}")
    return 0


def cmd_eval(args):
    scenes = load_dataset(args.data)
    class_names = scenes[0].class_names
    gt_frames = [list(frame.gt_boxes) for seq in scenes for frame in seq.frames]
    det_frames = read_detections(args.dets, class_names, len(gt_frames))
    out = _output(args.out)
    result = evaluate(det_frames, gt_frames, class_names, MatchConfig())
    if out:
        _write_report(out, result.to_dict())
    print(result.to_table())
    return 0


def cmd_ablate(args):
    cfg_a = load_config(args.config_a, TrainConfig)
    cfg_b = load_config(args.config_b, TrainConfig)
    train_scenes = load_dataset(args.train_data) if args.train_data else None
    eval_scenes = load_dataset(args.data) if args.data else None
    out = _output(args.out)
    report = ablation_run(cfg_a, cfg_b, train_scenes=train_scenes,
                          eval_scenes=eval_scenes,
                          min_bench_frames=args.bench_frames)
    if out:
        _write_report(out, report)
    print(format_ablation(report))
    return 0


def cmd_grad_check(args):
    ok, report = run_gradcheck(full=args.full)
    for name, err in report["ops"]:
        print(f"op {name:<18} max rel err {err:.3e}")
    print(f"ops worst {report['ops_worst']:.3e} "
          f"(tolerance {report['ops_tolerance']:.0e})")
    print(f"pipeline worst {report['pipeline_worst']:.3e} "
          f"(tolerance {report['pipeline_tolerance']:.0e}) over "
          f"{report['pipeline_param_count']} params "
          f"in {report['pipeline_seconds']:.1f}s")
    print("gradient check " + ("PASSED" if ok else "FAILED"))
    if not ok:
        raise DivergenceError("analytic and numeric gradients disagree")
    return 0


def cmd_bench(args):
    model, cfg, _names, scenes = _load_model_and_data(args)
    report, _ = bench(model, scenes, cfg.match, min_frames=args.min_frames)
    print(json.dumps(report, indent=2))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fmfdet",
        description="temporal BEV 3D detection on synthetic point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic scene sequences")
    p.add_argument("--spec", required=True,
                   help="JSON scene spec (optionally with a count field)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--config", required=True, help="JSON training config")
    p.add_argument("--data", required=True, help="sequence directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--trace", default=None,
                   help="loss trace CSV path (default: <out>.trace.csv)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field, e.g. --set epochs=2")
    p.add_argument("--log-every", type=int, default=0,
                   help="print progress every N steps (0 = quiet)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run inference with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="detections JSONL path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--dets", required=True, help="detections JSONL path")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate",
                       help="train and compare two configs side by side")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--train-data", default=None,
                   help="training sequences (default: generated)")
    p.add_argument("--data", default=None,
                   help="evaluation sequences (default: generated)")
    p.add_argument("--out", default=None, help="JSON report path")
    p.add_argument("--bench-frames", type=int, default=100,
                   help="minimum frames for the latency measurement")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grad-check",
                       help="verify analytic gradients by finite differences")
    p.add_argument("--full", action="store_true",
                   help="check every parameter coordinate in the pipeline")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("bench", help="measure per-stage inference latency")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--min-frames", type=int, default=1,
                   help="minimum frames to time")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return 4
    except WorkerError as e:
        print(f"worker error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

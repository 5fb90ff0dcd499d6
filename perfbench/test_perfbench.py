"""Tests of the benchmark itself: output checks and that they catch a wrong
decode or evaluate, the traced run as a pure observer, exact counts, the
layer bypasses, and the metric names.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""
import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SECONDS = 1.0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# counts that depend only on tensor shapes, not on the scene contents
SHAPE_COUNTS = ("autodiff.conv2d.flop", "autodiff.conv2d.bytes") + tuple(
    f"{name}.calls" for name in workloads.CALLED_LAYERS)
DATA_COUNTS = workloads.COUNTS + ("voxelizer.keep_ratio",)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Traced runs, made once per (workload, seed, repeat)."""
    cache = {}

    def get(name, seed, repeat=0):
        key = (name, seed, repeat)
        if key not in cache:
            work = tmp_path_factory.mktemp(f"{name}-{seed}-{repeat}")
            cache[key] = workloads.measure_traced(
                workloads.WORKLOADS[name], seed, SECONDS, work)
        return cache[key]

    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_correct_and_observes_only(traced, name):
    metrics, problems, [plain, traced_out], _detail = traced(name, 3)
    assert problems == []
    assert plain.failed == 0 and traced_out.failed == 0
    assert traced_out.output == plain.output
    assert traced_out.rounds == plain.rounds >= 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_and_remainders_add_up_to_wall_time(traced, name):
    metrics, *_ = traced(name, 3)
    parts = [metrics[n] for n in workloads.TIMED_LAYERS]
    parts += [metrics["model.frame_self"], metrics["train.step_self"]]
    assert min(parts) >= 0.0
    assert sum(parts) == pytest.approx(metrics["trace.item_wall_ms"], rel=1e-9)


@pytest.mark.parametrize("name", ["stream-demo", "train-demo"])
def test_counts_repeat_exactly_across_runs(traced, name):
    first, *_ = traced(name, 3)
    again, *_ = traced(name, 3, repeat=1)
    for count in SHAPE_COUNTS + DATA_COUNTS + ("setup.frameio.read_bytes",):
        assert again[count] == first[count], count


@pytest.mark.parametrize("name", ["stream-demo", "train-demo"])
def test_shape_counts_repeat_across_seeds(traced, name):
    first, *_ = traced(name, 3)
    other, *_ = traced(name, 4)
    for count in SHAPE_COUNTS:
        assert other[count] == first[count], count
    assert other["voxelizer.pillars"] != first["voxelizer.pillars"]


def test_stream_demo_warps_every_frame_but_the_first(traced):
    metrics, *_ = traced("stream-demo", 3)
    assert metrics["fmf.fmf_step.calls"] == 1.0
    frames = workloads.FRAMES_PER_SEQUENCE
    assert metrics["fmf.warp_feature_map.calls"] == (frames - 1) / frames
    assert metrics["autodiff.bilinear_sample.calls"] == (frames - 1) / frames


def test_stream_dense_bypasses_fmf_and_binds_the_caps(traced):
    metrics, _problems, _outs, detail = traced("stream-dense", 3)
    assert not [s for s in detail["spans"] if s.startswith("fmf.")]
    assert metrics["fmf.fmf_step.calls"] == 0
    assert metrics["fmf.warp_feature_map.calls"] == 0
    assert metrics["voxelizer.points_dropped_cap"] > 0
    assert metrics["decode.peaks"] > metrics["decode.kept"]


def test_train_demo_bypasses_decode_and_metrics(traced):
    metrics, _problems, _outs, detail = traced("train-demo", 3)
    assert not [s for s in detail["spans"] if s.startswith(("decode.", "metrics."))]
    assert metrics["decode.decode"] == metrics["metrics.evaluate"] == 0
    assert metrics["autodiff.maxpool2d.calls"] == 0


def test_layer_metrics_match_benchmark_json(traced):
    metrics, *_ = traced("stream-demo", 3)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", ["stream-demo", "train-demo"])
def test_end_to_end_metrics_match_benchmark_json(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    metrics, problems, [outcome], detail = workloads.measure(wl, 3, SECONDS, tmp_path)
    assert problems == [] and outcome.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in metrics.values())
    assert detail["samples"]["setup"] >= workloads.MIN_SETUPS


@pytest.fixture(scope="module")
def dense_setup(tmp_path_factory):
    return workloads.set_up(workloads.WORKLOADS["stream-dense"], 3,
                            tmp_path_factory.mktemp("dense") / "setup")


ORIGINAL_DECODE = workloads.decode_mod.decode


def shifted_decode(head, geom, cfg):
    dets = ORIGINAL_DECODE(head, geom, cfg)
    return [workloads.decode_mod.Detection(
                dataclasses.replace(d.box, cx=d.box.cx + 0.01), d.score, d.class_id)
            for d in dets]


def short_decode(head, geom, cfg):
    return ORIGINAL_DECODE(head, geom, dataclasses.replace(cfg, top_k=cfg.top_k - 1))


@pytest.mark.parametrize("broken", [shifted_decode, short_decode])
def test_wrong_decode_output_is_reported(dense_setup, tmp_path, monkeypatch, broken):
    monkeypatch.setattr(workloads.decode_mod, "decode", broken)
    problems = workloads.run_stream(dense_setup, tmp_path, rounds=1).problems
    assert any("reference decoding" in p for p in problems)


def test_wrong_evaluate_is_reported(dense_setup, tmp_path, monkeypatch):
    evaluate = workloads.metrics_mod.evaluate

    def drops_a_box(det_frames, *args):
        return evaluate([frame[:-1] for frame in det_frames], *args)

    monkeypatch.setattr(workloads.metrics_mod, "evaluate", drops_a_box)
    problems = workloads.run_stream(dense_setup, tmp_path, rounds=1).problems
    assert any("scores the ground truth" in p for p in problems)


def test_dense_scenes_place_their_objects_for_many_seeds():
    wl = workloads.WORKLOADS["stream-dense"]
    for seed in range(25):
        for spec in workloads.scene_specs(wl, seed):
            workloads.scene_mod.generate_scene(spec)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-demo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

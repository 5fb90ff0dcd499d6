"""End-to-end CLI flows in a temp workspace, plus exit-code mapping."""
import dataclasses
import importlib
import json
import pkgutil
import shutil
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fmfdet
from fmfdet import autodiff as ad
from fmfdet.backbone import BackboneConfig
from fmfdet.augment import AugmentConfig
from fmfdet.bench import bench
from fmfdet.cli import load_dataset, main
from fmfdet.config import to_dict
from fmfdet.fmf import FMFConfig
from fmfdet.frameio import read_frame, write_frame
from fmfdet.geometry import Pose2D
from fmfdet.metrics import read_detections
from fmfdet.model import run_inference
from fmfdet.scene import PointCloudFrame
from fmfdet.train import TrainConfig, load_checkpoint, read_trace
from fmfdet.voxelizer import GridConfig, desk_pillar_config

TINY_SPEC = {
    "num_frames": 4, "num_objects": 2, "range": 3.2, "margin": 1.0,
    "ego_speed": 0.3, "seed": 11, "class_names": ["car", "pedestrian"],
    "points_per_object": 40, "clutter_points": 10,
}


def tiny_train_config(**kw):
    base = dict(
        grid=GridConfig(x_range=(-5.12, 5.12), y_range=(-5.12, 5.12),
                        cell_size=(0.32, 0.32, 6.0)),
        backbone=BackboneConfig(pfn_channels=8, neck_channels=(8,),
                                neck_strides=(2,), out_channels=8),
        head_channels=8, epochs=2, batch_size=2, max_steps=4, seed=1,
        augment=AugmentConfig(enabled=False))
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + train once; downstream commands reuse the outputs."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, count=2)))
    data = root / "data"
    assert main(["gen-data", "--spec", str(spec_path),
                 "--out", str(data)]) == 0

    cfg_path = root / "train.json"
    cfg_path.write_text(json.dumps(to_dict(tiny_train_config())))
    ckpt = root / "model.npz"
    assert main(["train", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(ckpt)]) == 0

    dets = root / "dets.jsonl"
    assert main(["infer", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(dets)]) == 0
    return {"root": root, "spec": spec_path, "data": data,
            "cfg": cfg_path, "ckpt": ckpt, "dets": dets}


def poisoned_copy(data, out, field, value):
    """Copy a dataset and set one field of seq_000's second frame to `value`:
    the timestamp, the ego pose's x, the intensity of its third point, or a
    field of its first box."""
    shutil.copytree(data, out)
    path = out / "seq_000" / "frame_000001.bin"
    f = read_frame(path)
    ts, pose, boxes = f.timestamp, f.ego_pose, list(f.gt_boxes)
    points = f.points.copy()
    if field == "timestamp":
        ts = value
    elif field == "intensity":
        points[2, 3] = value
    elif field == "pose":
        pose = Pose2D(value, pose.y, pose.yaw)
    else:
        boxes[0] = dataclasses.replace(boxes[0], **{field: value})
    write_frame(PointCloudFrame(points, ts, pose, boxes), path)
    return path


class TestGenData:
    def test_multi_sequence_layout(self, workspace):
        subdirs = sorted(p.name for p in workspace["data"].iterdir())
        assert subdirs == ["seq_000", "seq_001"]
        for sub in subdirs:
            assert (workspace["data"] / sub / "manifest.json").is_file()

    def test_single_sequence_writes_flat(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TINY_SPEC))
        out = tmp_path / "seq"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        assert "wrote 1 sequence" in capsys.readouterr().out

    def test_missing_spec_is_config_error(self, tmp_path):
        assert main(["gen-data", "--spec", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "d")]) == 2

    def test_bad_count_is_config_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, count=0)))
        assert main(["gen-data", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("count", [True, 2.5, "2"])
    def test_non_integer_count_is_config_error(self, tmp_path, capsys, count):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, count=count)))
        out = tmp_path / "d"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
        assert "count" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_count_is_accepted(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, count=2.0)))
        out = tmp_path / "d"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["seq_000", "seq_001"]
        assert "wrote 2 sequences" in capsys.readouterr().out

    def test_unknown_spec_key_is_config_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, frames=4)))
        assert main(["gen-data", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 2


class TestTrain:
    def test_outputs_exist(self, workspace):
        ckpt = workspace["ckpt"]
        assert ckpt.is_file()
        trace = read_trace(str(ckpt) + ".trace.csv")
        assert len(trace) == 4
        model, cfg, names, step, _ = load_checkpoint(ckpt)
        assert names == ("car", "pedestrian")
        assert step == 4

    def test_set_overrides_apply(self, workspace, tmp_path):
        ckpt = tmp_path / "m.npz"
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--out", str(ckpt), "--set", "max_steps=2",
                     "--set", "lr_init=0.001"]) == 0
        _, cfg, _, step, _ = load_checkpoint(ckpt)
        assert step == 2 and cfg.lr_init == 0.001

    def test_partial_grid_section_merges_onto_desk_grid(self, workspace,
                                                        tmp_path):
        cfg = dict(to_dict(tiny_train_config()), max_steps=1,
                   grid={"max_points_per_cell": 16})
        path = tmp_path / "train.json"
        path.write_text(json.dumps(cfg))
        ckpt = tmp_path / "m.npz"
        assert main(["train", "--config", str(path),
                     "--data", str(workspace["data"]),
                     "--out", str(ckpt)]) == 0
        _, loaded, _, _, _ = load_checkpoint(ckpt)
        assert loaded.grid.dims == (80, 80, 1)
        assert loaded.grid == dataclasses.replace(desk_pillar_config(),
                                                  max_points_per_cell=16)

    @pytest.mark.parametrize("dtype,code", [("float64", 0), ("float16", 2)])
    def test_set_compute_dtype(self, workspace, tmp_path, capsys, dtype, code):
        ckpt = tmp_path / "m.npz"
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]), "--out", str(ckpt),
                     "--set", "max_steps=1",
                     "--set", f"compute_dtype={dtype}"]) == code
        if code:
            assert "compute_dtype must be" in capsys.readouterr().err
            assert not ckpt.exists()
        else:
            model = load_checkpoint(ckpt)[0]
            assert {p.data.dtype for p in model.parameters()} == {
                np.dtype(dtype)}

    def test_missing_data_dir_is_data_error(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(tmp_path / "none"),
                     "--out", str(tmp_path / "m.npz")]) == 3

    def test_bad_override_is_config_error(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.npz"),
                     "--set", "nope=1"]) == 2

    @pytest.mark.parametrize("field,value", [
        ("cx", float("nan")), ("cx", float("inf")), ("yaw", float("nan")),
        ("pose", float("nan")), ("timestamp", float("nan")),
        ("intensity", float("nan"))])
    def test_non_finite_frame_is_format_error(self, workspace, tmp_path,
                                              capsys, field, value):
        bad = poisoned_copy(workspace["data"], tmp_path / "data", field, value)
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "m.npz")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        if field == "intensity":
            assert "point 2" in err

    @pytest.mark.parametrize("key,value", [("frames", 3), ("frames", [1, 2]),
                                           ("class_names", "car"),
                                           ("class_names", [])])
    def test_malformed_manifest_is_format_error(self, workspace, tmp_path,
                                                capsys, key, value):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        mpath = data / "seq_001" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest[key] = value
        mpath.write_text(json.dumps(manifest))
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(data), "--out", str(tmp_path / "m.npz")]) == 3
        assert str(mpath) in capsys.readouterr().err

    def test_manifest_entry_outside_sequence_is_format_error(
            self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        mpath = data / "seq_001" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["frames"][1] = "../seq_000/frame_000001.bin"
        mpath.write_text(json.dumps(manifest))
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(data), "--out", str(tmp_path / "m.npz")]) == 3
        assert str(mpath) in capsys.readouterr().err

    def test_divergence_exit_code(self, workspace, tmp_path):
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(workspace["cfg"]),
                         "--data", str(workspace["data"]),
                         "--out", str(tmp_path / "m.npz"),
                         "--set", "lr_init=1e18", "--set", "max_steps=30",
                         "--set", "epochs=20"])
        assert code == 4


class TestInferEval:
    def test_detections_file_parses(self, workspace):
        frames = read_detections(workspace["dets"], ("car", "pedestrian"), 8)
        assert len(frames) == 8

    def test_missing_checkpoint_is_data_error(self, workspace, tmp_path):
        assert main(["infer", "--ckpt", str(tmp_path / "none.npz"),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "d.jsonl")]) == 3

    def test_garbage_checkpoint_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an npz")
        assert main(["infer", "--ckpt", str(bad),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "d.jsonl")]) == 3

    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_truncated_checkpoint_is_format_error(self, workspace, tmp_path,
                                                  capsys, command):
        raw = workspace["ckpt"].read_bytes()
        bad = tmp_path / "half.npz"
        bad.write_bytes(raw[:len(raw) // 2])
        args = [command, "--ckpt", str(bad), "--data", str(workspace["data"])]
        if command == "infer":
            args += ["--out", str(tmp_path / "d.jsonl")]
        assert main(args) == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("prefix,value", [("param.", np.nan),
                                              ("buffer.", np.inf)])
    def test_non_finite_checkpoint_is_format_error(self, workspace, tmp_path,
                                                   capsys, prefix, value):
        with np.load(workspace["ckpt"]) as data:
            arrays = {k: data[k] for k in data.files}
        key = next(k for k in arrays if k.startswith(prefix))
        arrays[key].flat[0] = value
        bad = tmp_path / "non_finite.npz"
        np.savez(bad, **arrays)
        assert main(["infer", "--ckpt", str(bad),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "d.jsonl")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and key in err

    @pytest.mark.parametrize("change", ["param.", "buffer.", "extra"])
    def test_misfit_checkpoint_array_is_format_error(self, workspace, tmp_path,
                                                     capsys, change):
        """A cut-short parameter or buffer, or arrays the config's model does
        not have (fusion state under fmf.enabled=false), exit 3 naming them."""
        with np.load(workspace["ckpt"]) as data:
            arrays = {k: data[k] for k in data.files}
        if change == "extra":
            cfg = json.loads(str(arrays["meta.config"][()]))
            cfg["fmf"]["enabled"] = False
            arrays["meta.config"] = np.array(json.dumps(cfg))
            keys = [k for k in arrays if k.startswith(("param.fmf.", "buffer.fmf."))]
        else:
            keys = [next(k for k in arrays if k.startswith(change))]
            arrays[keys[0]] = arrays[keys[0]][:-1]
        bad = tmp_path / "misfit.npz"
        np.savez(bad, **arrays)
        assert main(["infer", "--ckpt", str(bad),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "d.jsonl")]) == 3
        err = capsys.readouterr().err
        assert keys and str(bad) in err and all(k in err for k in keys)

    def test_non_finite_pose_is_format_error(self, workspace, tmp_path, capsys):
        bad = poisoned_copy(workspace["data"], tmp_path / "data", "pose",
                            float("nan"))
        assert main(["infer", "--ckpt", str(workspace["ckpt"]),
                     "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "d.jsonl")]) == 3
        assert str(bad) in capsys.readouterr().err

    def test_non_finite_point_is_format_error(self, workspace, tmp_path, capsys):
        bad = poisoned_copy(workspace["data"], tmp_path / "data", "intensity",
                            float("nan"))
        assert main(["infer", "--ckpt", str(workspace["ckpt"]),
                     "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "d.jsonl")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "point 2" in err

    def test_class_mismatch_is_config_error(self, workspace, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, class_names=["truck"])))
        other = tmp_path / "other"
        assert main(["gen-data", "--spec", str(spec),
                     "--out", str(other)]) == 0
        assert main(["infer", "--ckpt", str(workspace["ckpt"]),
                     "--data", str(other),
                     "--out", str(tmp_path / "d.jsonl")]) == 2

    def test_eval_writes_report(self, workspace, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["eval", "--dets", str(workspace["dets"]),
                     "--data", str(workspace["data"]),
                     "--out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "NDS" in out and "mATE" in out
        report = json.loads(report_path.read_text())
        for key in ("NDS", "mAP", "mATE", "mASE", "mAOE", "mAVE", "mAAE",
                    "per_class_ap"):
            assert key in report
        assert 0.0 <= report["NDS"] <= 1.0

    def test_eval_missing_dets_is_data_error(self, workspace, tmp_path):
        assert main(["eval", "--dets", str(tmp_path / "none.jsonl"),
                     "--data", str(workspace["data"])]) == 3

    @pytest.mark.parametrize("field,value", [
        ("score", float("nan")),
        ("center", [0.0, float("inf"), 0.0]),
        ("yaw", float("-inf")),
        ("velocity", [float("nan"), 0.0]),
        ("frame", float("inf")),
    ])
    def test_eval_non_finite_detection_is_data_error(self, workspace, tmp_path,
                                                     capsys, field, value):
        rec = {"frame": 0, "class": "car", "score": 0.5,
               "center": [0.0, 0.0, 0.0], "size": [1.0, 2.0, 1.5],
               "yaw": 0.0, "velocity": [0.0, 0.0]}
        rec[field] = value
        dets = tmp_path / "dets.jsonl"
        dets.write_text(workspace["dets"].read_text() + json.dumps(rec) + "\n")
        assert main(["eval", "--dets", str(dets),
                     "--data", str(workspace["data"])]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {dets}:")

    def test_eval_non_integer_frame_is_data_error(self, workspace, tmp_path,
                                                  capsys):
        rec = {"frame": 1.7, "class": "car", "score": 0.5,
               "center": [0.0, 0.0, 0.0], "size": [1.0, 2.0, 1.5],
               "yaw": 0.0, "velocity": [0.0, 0.0]}
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps(rec) + "\n")
        assert main(["eval", "--dets", str(dets),
                     "--data", str(workspace["data"])]) == 3
        assert "frame index 1.7 is not an integer" in capsys.readouterr().err

    def test_eval_non_positive_box_size_is_format_error(self, workspace,
                                                        tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        frame = data / "seq_000" / "frame_000000.bin"
        raw = bytearray(frame.read_bytes())
        (num_boxes,) = struct.unpack_from("<I", raw, len(raw) - 40 * 2 - 4)
        assert num_boxes == 2
        # box records are (cx, cy, cz, w, ...): overwrite box 1's width
        struct.pack_into("<f", raw, len(raw) - 40 + 3 * 4, -1.0)
        frame.write_bytes(bytes(raw))
        assert main(["eval", "--dets", str(workspace["dets"]),
                     "--data", str(data)]) == 3
        err = capsys.readouterr().err
        assert "frame_000000.bin: box 1" in err and "config error" not in err


class TestBench:
    def test_reports_one_run(self, workspace, capsys):
        assert main(["bench", "--ckpt", str(workspace["ckpt"]),
                     "--data", str(workspace["data"]),
                     "--min-frames", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["stages"]) == {
            "voxelize", "backbone", "neck", "fmf", "head", "decode"}
        assert report["frames"] >= 2
        assert report["end_to_end"]["mean_ms"] > 0
        assert report["minor_faults_per_frame"] >= 0
        assert report["compute_dtype"] == "float32"

    def test_parallel_and_sequential_match_run_inference(self, workspace):
        model, cfg, _names, _step, _opt = load_checkpoint(workspace["ckpt"])
        scenes = load_dataset(workspace["data"]) * 3
        expect = [run_inference(model, seq, cfg.match) for seq in scenes]
        _, sequential = bench(model, scenes, cfg.match)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # interleave the worker threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_inference, model, seq, cfg.match)
                           for seq in scenes]
                parallel = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sequential == expect
        assert parallel == expect
        # the workers' no_grad blocks must leave recording on in this thread
        model.train()
        frames = scenes[0].frames
        out = model.forward_pair(frames[0], frames[1])
        loss = ad.sum(out.heatmap)
        for field in dataclasses.fields(out)[1:]:
            loss = ad.add(loss, ad.sum(getattr(out, field.name)))
        ad.backward(loss)
        assert all(p.grad is not None for _, p in model.named_parameters())


class TestAblate:
    def test_fusion_onoff_report(self, workspace, tmp_path, capsys):
        cfg_b = tmp_path / "b.json"
        cfg_b.write_text(json.dumps(to_dict(
            tiny_train_config(fmf=FMFConfig(enabled=False)))))
        report_path = tmp_path / "ablation.json"
        assert main(["ablate", "--config-a", str(workspace["cfg"]),
                     "--config-b", str(cfg_b),
                     "--train-data", str(workspace["data"]),
                     "--data", str(workspace["data"]),
                     "--bench-frames", "2",
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        for key in ("config_a", "config_b", "metrics_a", "metrics_b",
                    "latency_a", "latency_b", "nds_a", "nds_b", "nds_delta"):
            assert key in report
        assert report["nds_delta"] == pytest.approx(
            report["nds_b"] - report["nds_a"])
        out = capsys.readouterr().out
        assert "NDS" in out

    def test_non_fmf_difference_is_config_error(self, workspace, tmp_path):
        cfg_b = tmp_path / "b.json"
        cfg_b.write_text(json.dumps(to_dict(tiny_train_config(head_channels=12))))
        assert main(["ablate", "--config-a", str(workspace["cfg"]),
                     "--config-b", str(cfg_b),
                     "--train-data", str(workspace["data"]),
                     "--data", str(workspace["data"])]) == 2


class TestGradCheckCommand:
    def test_quick_mode_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "gradient check PASSED" in out
        assert "pipeline worst" in out


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-c",
                               "from fmfdet.cli import main; main(['--help'])"],
                              capture_output=True, text=True)
        assert "gen-data" in proc.stdout and "ablate" in proc.stdout

    def test_every_exported_name_resolves(self):
        modules = [fmfdet] + [importlib.import_module(f"fmfdet.{m.name}")
                              for m in pkgutil.iter_modules(fmfdet.__path__)]
        for mod in modules:
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), f"{mod.__name__}.__all__ names {name}"

"""End-to-end CLI flows in a temp workspace, plus exit-code mapping."""
import dataclasses
import errno
import importlib
import os
import json
import pathlib
import pkgutil
import re
import shutil
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fmfdet
from fmfdet import autodiff as ad
from fmfdet import cli, errors
from fmfdet.backbone import BackboneConfig
from fmfdet.augment import AugmentConfig
from fmfdet.bench import bench
from fmfdet.cli import load_dataset, main
from fmfdet.config import to_dict
from fmfdet.fmf import FMFConfig
from fmfdet.decode import Detection
from fmfdet.frameio import (MANIFEST_NAME, frame_file_name, read_frame, read_sequence,
                            write_frame, write_sequence)
from fmfdet.geometry import Pose2D
from fmfdet.gradcheck import OP_TOLERANCE, PIPELINE_TOLERANCE, run_gradcheck
from fmfdet.metrics import read_detections, write_detections
from fmfdet.model import run_inference
from fmfdet.optim import AdamW
from fmfdet.scene import Box3D, PointCloudFrame, SceneSpec, generate_scene
from fmfdet.train import (TrainConfig, build_model, load_checkpoint, read_trace,
                          save_checkpoint, write_trace)
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
    field of its first box. write_frame refuses a non-finite value, so the
    field is written as a marker whose bytes are then replaced."""
    shutil.copytree(data, out)
    path = out / "seq_000" / "frame_000001.bin"
    f = read_frame(path)
    ts, pose, boxes = f.timestamp, f.ego_pose, list(f.gt_boxes)
    points = f.points.copy()
    mark = 1234.5
    if field == "timestamp":
        ts = mark
    elif field == "intensity":
        points[2, 3] = mark
    elif field == "pose":
        pose = Pose2D(mark, pose.y, pose.yaw)
    else:
        boxes[0] = dataclasses.replace(boxes[0], **{field: mark})
    write_frame(PointCloudFrame(points, ts, pose, boxes), path)
    fmt = "<d" if field in ("timestamp", "pose") else "<f"
    raw = path.read_bytes()
    assert raw.count(struct.pack(fmt, mark)) == 1
    path.write_bytes(raw.replace(struct.pack(fmt, mark), struct.pack(fmt, value)))
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

    def test_repeated_class_names_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, class_names=["car", "car"])))
        out = tmp_path / "d"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
        assert "class names repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_spec_key_is_config_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, frames=4)))
        assert main(["gen-data", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("key,value,path", [
        ("range", float("nan"), "range"),
        ("class_names", [1, 2], "class_names[0]"),
        ("points_per_object", -1, "points_per_object"),
        ("clutter_points", -1, "clutter_points"),
        ("seed", -1, "seed"),
        ("max_object_speed", -0.5, "max_object_speed"),
        ("range", 1e39, "range"),
        ("num_frames", 2 ** 63, "num_frames <= 1000000"),
        ("num_objects", 2 ** 63, "num_objects <= 4294967295"),
        ("points_per_object", 2 ** 63, "points_per_object <= 4294967295"),
        ("clutter_points", 2 ** 63, "clutter_points <= 4294967295"),
        ("points_per_object", 2 ** 31, "num_objects * (points_per_object + 5)")])
    def test_bad_spec_value_is_config_error(self, tmp_path, capsys, key, value, path):
        """A non-finite number, a non-string class name, a negative count or
        a count past what a frame file holds exits 2 naming the field, and
        nothing is written."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, **{key: value})))
        out = tmp_path / "d"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
        assert path in capsys.readouterr().err
        assert not out.exists()


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

    def test_repeated_class_names_is_data_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        for seq in ("seq_000", "seq_001"):
            mpath = data / seq / "manifest.json"
            manifest = json.loads(mpath.read_text())
            manifest["class_names"] = ["car", "car"]
            mpath.write_text(json.dumps(manifest))
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(data), "--out", str(tmp_path / "m.npz")]) == 3
        assert "class names repeat" in capsys.readouterr().err

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

    @pytest.mark.parametrize("assignment,path", [
        ("head_channels=Infinity", "head_channels"),
        ("grid.max_points_per_cell=Infinity", "grid.max_points_per_cell"),
        ("match.top_k=1e400", "match.top_k"),
        pytest.param(f"grid.max_cells={10 ** 400}", "grid.max_cells",
                     id="grid.max_cells=10**400"),
        pytest.param(f"head_channels={'9' * 5000}", "head_channels",
                     id="head_channels=5000_digits"),
        ("lr_init=NaN", "lr_init"),
        ("weight_decay=NaN", "weight_decay"),
        ("focal.alpha=NaN", "focal.alpha"),
        ("loss_weights.size=Infinity", "loss_weights.size"),
        ("match.distance_thresholds=[NaN]", "match.distance_thresholds[0]"),
        ("match.distance_thresholds=[0.5, [1.0]]", "match.distance_thresholds[1]"),
        ("grid.mode=[]", "grid.mode"),
        ("grid.cell_size=[0.32]", "grid: "),
        ("momentum_range=[0.9]", "momentum_range"),
        ("adam_eps=-1", "adam_eps"),
        ("weight_decay=-1", "weight_decay"),
        ("seed=-1", "seed")])
    def test_bad_override_value_is_config_error(self, workspace, tmp_path, capsys,
                                                assignment, path):
        """Each value exits 2 naming its field, before any training."""
        ckpt = tmp_path / "m.npz"
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--data", str(workspace["data"]), "--out", str(ckpt),
                     "--set", assignment]) == 2
        assert path in capsys.readouterr().err
        assert not ckpt.exists()


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

    @pytest.mark.parametrize("pfn_channels", [8, 9])
    def test_parent_format_checkpoint_names_the_pfn_key(self, workspace, tmp_path,
                                                        capsys, pfn_channels):
        """Checkpoints from before the PFN projection became `pfn.proj` [C, D]
        stored it as `pfn.weight` [D, C]. With 9 channels both shapes are
        (9, 9), so only the key keeps such a file from loading transposed."""
        cfg = tiny_train_config(backbone=BackboneConfig(
            pfn_channels=pfn_channels, neck_channels=(8,), neck_strides=(2,),
            out_channels=8))
        model = build_model(cfg, 2)
        assert dict(model.named_parameters())["pfn.proj"].shape == (pfn_channels, 9)
        good = tmp_path / "good.npz"
        save_checkpoint(good, model, cfg, ("car", "pedestrian"),
                        opt=AdamW(model.named_parameters()))
        with np.load(good) as data:
            arrays = {k.replace("pfn.proj", "pfn.weight"): data[k].T if "pfn.proj" in k
                      else data[k] for k in data.files}
        parent = tmp_path / "parent.npz"
        np.savez(parent, **arrays)
        out = tmp_path / "d.jsonl"
        assert main(["infer", "--ckpt", str(parent), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(parent) in err
        assert "param.pfn.weight (not in this model)" in err
        assert "param.pfn.proj (missing)" in err
        assert not out.exists()

    def test_non_finite_detection_is_not_written(self, workspace, tmp_path, capsys):
        """A size bias of 1000 overflows decode's exp, which NumPy warns of,
        into Inf box sizes: infer exits 3 before it writes a detections file
        that eval would reject."""
        with np.load(workspace["ckpt"]) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["param.head.size.final.bias"][:] = 1000.0
        bad = tmp_path / "huge.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "d.jsonl"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["infer", "--ckpt", str(bad), "--data", str(workspace["data"]),
                         "--out", str(out)]) == 3
        assert re.search(re.escape(str(out)) + r": frame \d+: non-finite values",
                         capsys.readouterr().err)
        assert not out.exists()

    def test_degenerate_decoded_size_is_data_error(self, workspace, tmp_path, capsys):
        """A size bias of -1000 underflows decode's exp to 0: infer exits 3,
        naming the class and cell, and writes no detections file."""
        with np.load(workspace["ckpt"]) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["param.head.size.final.bias"][:] = -1000.0
        bad = tmp_path / "tiny.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "d.jsonl"
        assert main(["infer", "--ckpt", str(bad), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 3
        assert re.search(r"decoded box size \[0\.0, 0\.0, 0\.0\] is not positive: "
                         r"class \d+, cell", capsys.readouterr().err)
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["infer", "bench"])
    def test_class_mismatch_is_data_error(self, workspace, tmp_path, capsys, command):
        """Data whose class names differ from the checkpoint's exits 3, naming
        both paths, and infer writes no detections file."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(TINY_SPEC, class_names=["truck"])))
        other = tmp_path / "other"
        assert main(["gen-data", "--spec", str(spec),
                     "--out", str(other)]) == 0
        out = tmp_path / "d.jsonl"
        extra = ["--out", str(out)] if command == "infer" else []
        capsys.readouterr()
        assert main([command, "--ckpt", str(workspace["ckpt"]),
                     "--data", str(other)] + extra) == 3
        err = capsys.readouterr().err
        assert str(workspace["ckpt"]) in err and str(other) in err
        assert not out.exists()

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

    def test_sequences_disagreeing_on_class_order_is_data_error(
            self, workspace, tmp_path, capsys):
        """Two sequences of one data directory that list the same names in
        another order are bad data, not a bad config."""
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        mpath = data / "seq_001" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["class_names"] = manifest["class_names"][::-1]
        mpath.write_text(json.dumps(manifest))
        assert main(["eval", "--dets", str(workspace["dets"]),
                     "--data", str(data)]) == 3
        assert "scene class names differ" in capsys.readouterr().err

    def test_class_name_mismatch_names_both_sequences(self, workspace, tmp_path,
                                                      capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        mpath = data / "seq_001" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["class_names"] = manifest["class_names"][::-1]
        mpath.write_text(json.dumps(manifest))
        assert main(["eval", "--dets", str(workspace["dets"]),
                     "--data", str(data)]) == 3
        err = capsys.readouterr().err
        assert str(data / "seq_000") in err and str(data / "seq_001") in err
        assert "('pedestrian', 'car')" in err and "('car', 'pedestrian')" in err

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
        points = sum(f.num_points for seq in load_dataset(workspace["data"])
                     for f in seq.frames)
        assert report["points_mb"] == 16 * points / 2 ** 20

    def test_run_inference_calls_the_decode_module_attribute(self, workspace, monkeypatch):
        """run_inference imports decode per call, so a wrapper set on the
        decode module's `decode` runs once per frame (the package attribute
        `fmfdet.decode` is the function, so the module comes from importlib)."""
        model, cfg, _names, _step, _opt = load_checkpoint(workspace["ckpt"])
        seq = load_dataset(workspace["data"])[0]
        expect = run_inference(model, seq, cfg.match)
        decode_mod = importlib.import_module("fmfdet.decode")
        real, calls = decode_mod.decode, []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(decode_mod, "decode", counting)
        assert run_inference(model, seq, cfg.match) == expect
        assert len(calls) == len(seq.frames)

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


def output_command(workspace, tmp_path, command, flag, path):
    """argv for `command` on the workspace, with `flag` set to `path`."""
    ws = {k: str(v) for k, v in workspace.items()}
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(to_dict(tiny_train_config(fmf=FMFConfig(enabled=False)))))
    args = {"gen-data": ["--spec", ws["spec"]],
            "train": ["--config", ws["cfg"], "--data", ws["data"],
                      "--out", str(tmp_path / "m.npz")],
            "infer": ["--ckpt", ws["ckpt"], "--data", ws["data"]],
            "eval": ["--dets", ws["dets"], "--data", ws["data"]],
            "ablate": ["--config-a", ws["cfg"], "--config-b", str(cfg_b),
                       "--train-data", ws["data"], "--data", ws["data"],
                       "--bench-frames", "2"]}[command]
    return [command, *args, flag, str(path)]


OUTPUTS = [("gen-data", "--out", "generate_scene"), ("train", "--out", "train"),
           ("train", "--trace", "train"), ("infer", "--out", "run_inference"),
           ("eval", "--out", "evaluate"), ("ablate", "--out", "ablation_run")]


class TestOutputPaths:
    @pytest.mark.parametrize("command,flag,work", OUTPUTS)
    def test_output_under_a_regular_file_exits_3_before_the_work(
            self, workspace, tmp_path, monkeypatch, capsys, command, flag, work):
        blocker = tmp_path / "file"
        blocker.write_text("")

        def never(*args, **kwargs):
            pytest.fail(f"{work} ran")
        monkeypatch.setattr(cli, work, never)
        target = blocker / "out"
        assert main(output_command(workspace, tmp_path, command, flag, target)) == 3
        assert f"cannot write {target}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,work", OUTPUTS)
    def test_missing_parent_is_created(self, workspace, tmp_path, command, flag, work):
        target = tmp_path / "new" / "dir" / "out"
        assert main(output_command(workspace, tmp_path, command, flag, target)) == 0
        assert target.is_dir() if command == "gen-data" else target.is_file()

    def test_output_at_a_directory_exits_3_before_the_work(self, workspace, tmp_path,
                                                            monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_inference", lambda *a: pytest.fail("inference ran"))
        assert main(output_command(workspace, tmp_path, "infer", "--out", tmp_path)) == 3
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err


class HalfWriter:
    """A file whose first write stores half its bytes and then fails, as on
    a full disk."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def fail_halfway(monkeypatch, after=0):
    """Let `errors.atomic_file` open `after` files as usual and give every
    later one a HalfWriter."""
    opened = []

    def fake_open(path, *args, **kwargs):
        opened.append(path)
        f = open(path, *args, **kwargs)
        return HalfWriter(f) if len(opened) > after else f
    monkeypatch.setattr(errors, "open", fake_open, raising=False)


def _write_checkpoint(path):
    cfg = tiny_train_config()
    save_checkpoint(path, build_model(cfg, 2), cfg, ("car", "pedestrian"), step=3)


ATOMIC_WRITERS = {
    "report": lambda path: cli._write_report(path, {"nds": 0.25, "mAP": 0.5}),
    "detections": lambda path: write_detections(
        [[Detection(Box3D(1.0, 2.0, 0.5, 1.8, 4.2, 1.5, 0.3, 0.1, 0.0), 0.9, 0)]],
        ("car",), path),
    "trace": lambda path: write_trace(path, [(1, 0.001) + (0.5,) * 7] * 3),
    "checkpoint": _write_checkpoint,
    "frame": lambda path: write_frame(
        PointCloudFrame(np.ones((50, 4), np.float32), 0.5, Pose2D(1.0, 2.0, 0.1)), path),
}


class TestAtomicOutputs:
    """Every output goes to a sibling temporary file that replaces the
    output only once it is complete: a writer that fails halfway leaves an
    existing output byte-identical, a new one absent, and no temporary file."""

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
    @pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
    def test_failed_write_leaves_the_old_bytes_or_nothing(
            self, tmp_path, monkeypatch, writer, existing):
        path = tmp_path / "out.bin"
        if existing:
            path.write_bytes(b"the previous output\n")
        fail_halfway(monkeypatch)
        with pytest.raises(errors.DataError, match=f"cannot write {path}: No space"):
            ATOMIC_WRITERS[writer](path)
        assert os.listdir(tmp_path) == (["out.bin"] if existing else [])
        if existing:
            assert path.read_bytes() == b"the previous output\n"

    @pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
    def test_complete_write_replaces_the_output(self, tmp_path, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"the previous output\n")
        ATOMIC_WRITERS[writer](path)
        assert os.listdir(tmp_path) == ["out.bin"]
        assert path.read_bytes() != b"the previous output\n"

    def test_sequence_writes_frames_atomically_and_the_manifest_last(
            self, tmp_path, monkeypatch):
        """A write_sequence that fails at its third frame keeps that frame's
        and the manifest's old bytes; into a new directory it leaves the two
        finished frames and no manifest, so no reader takes it for a
        sequence."""
        old = generate_scene(SceneSpec(**dict(TINY_SPEC, seed=12)))
        new = generate_scene(SceneSpec(**TINY_SPEC))
        existing, fresh = tmp_path / "existing", tmp_path / "fresh"
        write_sequence(old, existing)
        before = {p.name: p.read_bytes() for p in existing.iterdir()}
        fail_halfway(monkeypatch, after=2)
        with pytest.raises(errors.DataError, match="frame_000002.bin: No space"):
            write_sequence(new, existing)
        after = {p.name: p.read_bytes() for p in existing.iterdir()}
        assert sorted(after) == sorted(before)
        assert {name for name in after if after[name] != before[name]} == {
            "frame_000000.bin", "frame_000001.bin"}
        fail_halfway(monkeypatch, after=2)
        with pytest.raises(errors.DataError):
            write_sequence(new, fresh)
        assert sorted(os.listdir(fresh)) == ["frame_000000.bin", "frame_000001.bin"]
        with pytest.raises(errors.DataError, match="not a sequence directory"):
            read_sequence(fresh)


class TestUnreadableInputs:
    """An input file or directory the OS refuses to read ends in its error
    class's exit code, naming it. The refusal is patched into pathlib.Path's
    read or listing, for that path only, because chmod does not stop root."""

    @pytest.mark.parametrize("name,method,code,message", [
        ("frame", "read_bytes", 3, "data error: cannot read frame"),
        ("manifest", "read_text", 3, "data error: cannot read manifest"),
        ("data", "iterdir", 3, "data error: cannot read data directory"),
        ("spec", "read_text", 2, "config error: cannot read config file")])
    def test_refused_read(self, workspace, tmp_path, monkeypatch, capsys,
                          name, method, code, message):
        seq = workspace["data"] / "seq_000"
        target = {"frame": seq / frame_file_name(1), "manifest": seq / MANIFEST_NAME,
                  "data": workspace["data"], "spec": workspace["spec"]}[name]
        real = getattr(pathlib.Path, method)

        def refused(self, *args, **kwargs):
            if self == target:
                raise PermissionError(errno.EACCES, "Permission denied", str(self))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, method, refused)
        args = (["gen-data", "--spec", str(target), "--out", str(tmp_path / "data")]
                if name == "spec" else
                ["eval", "--dets", str(workspace["dets"]), "--data", str(workspace["data"])])
        assert main(args) == code
        assert capsys.readouterr().err == f"{message} {target}: Permission denied\n"


class TestGradCheckCommand:
    def test_quick_mode_passes(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "gradient check PASSED" in out
        assert "pipeline worst" in out

    def test_a_wrong_gradient_fails(self, monkeypatch, capsys):
        """relu's backward made to return twice its gradient: the op suite
        and the pipeline check each catch it, and the command exits 4."""
        real = ad.relu

        def doubled(a):   # forward 2y - y == y exactly; d/dy is 2
            y = real(a)
            return ad.add(ad.mul(y, 2.0), -y.data)

        monkeypatch.setattr(ad, "relu", doubled)
        ok, report = run_gradcheck(full=False)
        assert not ok
        assert dict(report["ops"])["relu"] >= OP_TOLERANCE
        assert report["pipeline_worst"] >= PIPELINE_TOLERANCE
        assert main(["grad-check"]) == 4
        assert "gradient check FAILED" in capsys.readouterr().out


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

    def test_one_exception_class_per_exit_code(self, monkeypatch, capsys):
        """Each error exit code has exactly one exception class; the
        programming errors are not caught and end in a traceback."""
        defined = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and obj.__module__ == errors.__name__}
        assert defined == {"ConfigError", "ShapeError", "DataError", "StateError",
                           "DivergenceError", "WorkerError"}
        for exc, code, prefix in ((errors.ConfigError, 2, "config error"),
                                  (errors.DataError, 3, "data error"),
                                  (errors.DivergenceError, 4, "numeric divergence"),
                                  (errors.WorkerError, 5, "worker error"),
                                  (errors.ShapeError, None, None),
                                  (errors.StateError, None, None)):
            def command(args, exc=exc):
                raise exc("bad input")
            monkeypatch.setattr(cli, "cmd_grad_check", command)
            if code is None:
                with pytest.raises(exc):
                    main(["grad-check"])
            else:
                assert main(["grad-check"]) == code
                assert capsys.readouterr().err == f"{prefix}: bad input\n"

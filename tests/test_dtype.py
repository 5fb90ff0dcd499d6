"""compute_dtype: the model path, the trained state and the checkpoint round
trip keep the configured dtype, and the finite-difference checks stay float64.

`voxelize` returns float64 point rows (they are geometry); the PFN casts them,
so every map from the PFN on must carry the compute dtype.
"""
import contextlib
import dataclasses
import json

import numpy as np
import pytest

import fmfdet.autodiff as ad
import fmfdet.fmf as fmf_mod
from fmfdet.augment import AugmentConfig
from fmfdet.backbone import BackboneConfig
from fmfdet.config import from_dict
from fmfdet.errors import ConfigError
from fmfdet.gradcheck import tiny_train_config
from fmfdet.heads import HeadOutput
from fmfdet.model import run_inference
from fmfdet.scene import PointCloudFrame, SceneSpec, generate_scene
from fmfdet.train import (TrainConfig, build_model, load_checkpoint,
                          save_checkpoint, train)
from fmfdet.voxelizer import GridConfig

DTYPES = ("float32", "float64")
CLASS_NAMES = ("car", "pedestrian")
HEAD_MAPS = tuple(f.name for f in dataclasses.fields(HeadOutput))


def tiny_cfg(dtype, **kw):
    base = dict(grid=GridConfig(x_range=(-5.12, 5.12), y_range=(-5.12, 5.12),
                                cell_size=(0.32, 0.32, 6.0)),
                backbone=BackboneConfig(pfn_channels=8, neck_channels=(8,),
                                        neck_strides=(2,), out_channels=8),
                head_channels=8, max_steps=2, seed=1,
                augment=AugmentConfig(enabled=False), compute_dtype=dtype)
    base.update(kw)
    return TrainConfig(**base)


def moving_scene(num_frames=3):
    """Ego motion with a yaw rate, so the odometry warp really resamples."""
    return generate_scene(SceneSpec(
        num_frames=num_frames, num_objects=2, range=3.2, margin=1.0,
        ego_speed=0.8, ego_yaw_rate=0.3, seed=5, class_names=CLASS_NAMES,
        points_per_object=40, clutter_points=10))


def record_maps(model, monkeypatch):
    """Record (stage, dtype) for the PFN, neck, warp, fusion and head outputs
    of `model`, and ("op", dtype) for every autodiff op result."""
    seen = []

    def recorder(stage, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            maps = ([(f"head.{n}", getattr(out, n)) for n in HEAD_MAPS]
                    if isinstance(out, HeadOutput) else [(stage, out)])
            seen.extend((name, m.data.dtype) for name, m in maps)
            return out
        return wrapped

    node = ad._node

    def recording_node(data, parents, backward_fn):
        seen.append(("op", np.asarray(data).dtype))
        return node(data, parents, backward_fn)

    monkeypatch.setattr(ad, "_node", recording_node)
    monkeypatch.setattr(fmf_mod, "warp_feature_map",
                        recorder("warp", fmf_mod.warp_feature_map))
    for stage in ("pfn", "neck", "fmf", "head"):
        setattr(model, stage, recorder(stage, getattr(model, stage)))
    return seen


def assert_all(seen, dtype, stages):
    assert {name for name, _ in seen} >= set(stages)
    wrong = sorted({(name, str(dt)) for name, dt in seen if dt != dtype})
    assert not wrong


@pytest.mark.parametrize("dtype", DTYPES)
def test_training_forward_maps_have_compute_dtype(dtype, monkeypatch):
    model = build_model(tiny_cfg(dtype), len(CLASS_NAMES))
    model.train()
    frames = moving_scene().frames
    seen = record_maps(model, monkeypatch)
    model.forward_pair(frames[0], frames[1])       # warped fusion
    assert sum(name == "warp" for name, _ in seen) == 1
    model.forward_frame(frames[2])                  # self-aggregation
    model.forward_frame(PointCloudFrame(np.zeros((0, 4)), 0.0))  # empty frame
    assert sum(name == "fmf" for name, _ in seen) == 3
    assert_all(seen, np.dtype(dtype),
               ("op", "pfn", "neck", "warp", "fmf")
               + tuple(f"head.{n}" for n in HEAD_MAPS))


@pytest.mark.parametrize("dtype", DTYPES)
def test_eval_maps_after_checkpoint_round_trip_have_compute_dtype(
        dtype, tmp_path, monkeypatch):
    cfg = tiny_cfg(dtype)
    scene = moving_scene()
    model, opt, _trace = train(cfg, [scene])
    path = tmp_path / "m.npz"
    save_checkpoint(path, model, cfg, CLASS_NAMES, step=2, opt=opt)
    loaded, loaded_cfg, _names, _step, _opt = load_checkpoint(path)
    assert loaded_cfg.compute_dtype == dtype
    seen = record_maps(loaded, monkeypatch)
    run_inference(loaded, scene, loaded_cfg.match)
    # the first frame self-aggregates, the other two are warped
    assert sum(name == "warp" for name, _ in seen) == 2
    assert sum(name == "fmf" for name, _ in seen) == 3
    assert_all(seen, np.dtype(dtype),
               ("op", "pfn", "neck", "warp", "fmf")
               + tuple(f"head.{n}" for n in HEAD_MAPS))


@pytest.mark.parametrize("dtype", DTYPES)
def test_no_grad_eval_frames_equal_the_recorded_eval_frames(dtype):
    """In eval mode under no_grad every ConvBNReLU (neck and fusion) runs its
    batch norm in the conv's epilogue; every head map of every frame, warped
    ones included, equals the grad-enabled eval run's bit for bit."""
    cfg = tiny_cfg(dtype)
    scene = moving_scene()
    model = train(cfg, [scene])[0].eval()
    runs = []
    for recording in (True, False):
        with contextlib.nullcontext() if recording else ad.no_grad():
            state, maps = None, []
            for frame in scene.frames:
                out, state = model.forward_frame(frame, state)
                maps.append([getattr(out, name) for name in HEAD_MAPS])
        assert (maps[0][0]._backward_fn is not None) == recording
        runs.append(maps)
    for recorded, fused in zip(*runs):
        for a, b in zip(recorded, fused):
            assert a.data.dtype == b.data.dtype == np.dtype(dtype)
            assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_train_step_keeps_state_in_compute_dtype(dtype):
    model, opt, _trace = train(tiny_cfg(dtype, max_steps=1), [moving_scene()])
    arrays = dict(model.state_dict())
    arrays.update({"m." + k: v for k, v in opt.m.items()})
    arrays.update({"v." + k: v for k, v in opt.v.items()})
    assert {k for k in arrays if k.startswith("buffer.")}
    wrong = sorted(k for k, v in arrays.items() if v.dtype != np.dtype(dtype))
    assert not wrong


@pytest.mark.parametrize("value", ["float16", "int32", 32])
def test_other_compute_dtype_is_config_error(value):
    with pytest.raises(ConfigError, match="compute_dtype"):
        TrainConfig(compute_dtype=value)
    with pytest.raises(ConfigError, match="compute_dtype"):
        from_dict(TrainConfig, {"compute_dtype": value})


def test_checkpoint_without_compute_dtype_loads_as_float32(tmp_path):
    """A checkpoint written before compute_dtype existed gets the default,
    float32: its float64 values are rounded once on load."""
    cfg = tiny_cfg("float64")
    model, _opt, _trace = train(cfg, [moving_scene()])
    path = tmp_path / "old.npz"
    save_checkpoint(path, model, cfg, CLASS_NAMES, step=2)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    config = json.loads(str(arrays["meta.config"][()]))
    del config["compute_dtype"]
    arrays["meta.config"] = np.array(json.dumps(config))
    with open(path, "wb") as f:
        np.savez(f, **arrays)

    loaded, loaded_cfg, _names, _step, _opt = load_checkpoint(path)
    assert loaded_cfg.compute_dtype == "float32"
    want = model.state_dict()
    for key, val in loaded.state_dict().items():
        assert val.dtype == np.float32
        assert np.array_equal(val, want[key].astype(np.float32))


def test_gradcheck_model_is_float64():
    model = build_model(tiny_train_config(), 2)
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
    assert {v.dtype for v in model.state_dict().values()} == {
        np.dtype(np.float64)}

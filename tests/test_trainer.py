"""Training loop, trace files, checkpoints, and config plumbing."""
import dataclasses
import importlib
import json
import re
import threading

import numpy as np
import pytest

from fmfdet import autodiff as ad
from fmfdet.ablate import ablation_run
from fmfdet.augment import AugmentConfig
from fmfdet.backbone import BackboneConfig
from fmfdet.config import apply_overrides, from_dict, load_config, to_dict
from fmfdet.decode import MatchConfig, decode
from fmfdet.errors import ConfigError, DataError, DivergenceError, ShapeError
from fmfdet.fmf import FMFConfig
from fmfdet.heads import total_loss
from fmfdet.layers import ConvBNReLU
from fmfdet.model import Detector, run_inference
from fmfdet.optim import AdamW
from fmfdet.scene import SceneSpec, generate_scene
from fmfdet.train import (TRACE_COLUMNS, TrainConfig, build_model,
                          load_checkpoint, read_trace, save_checkpoint,
                          train, write_trace)
from fmfdet.voxelizer import GridConfig, desk_pillar_config

TINY_GRID = GridConfig(x_range=(-5.12, 5.12), y_range=(-5.12, 5.12),
                       cell_size=(0.32, 0.32, 6.0))
TINY_BACKBONE = BackboneConfig(pfn_channels=8, neck_channels=(8,),
                               neck_strides=(2,), out_channels=8)


def tiny_cfg(**kw):
    base = dict(grid=TINY_GRID, backbone=TINY_BACKBONE, head_channels=8,
                epochs=4, batch_size=2, max_steps=6, seed=1,
                augment=AugmentConfig(enabled=False))
    base.update(kw)
    return TrainConfig(**base)


def tiny_scene(seed=5, num_frames=4):
    spec = SceneSpec(num_frames=num_frames, num_objects=2, range=3.2,
                     margin=1.0, ego_speed=0.3, seed=seed,
                     class_names=("car", "pedestrian"),
                     points_per_object=40, clutter_points=10)
    return generate_scene(spec)


class TestTrainConfig:
    @pytest.mark.parametrize("kw", [
        dict(lr_init=0.0),
        dict(momentum_range=(0.9, 0.8)),
        dict(momentum_range=(0.0, 0.9)),
        dict(beta2=1.0),
        dict(epochs=0),
        dict(batch_size=0),
        dict(max_steps=-1),
        dict(head_channels=0),
        dict(min_overlap=0.0),
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)

    def test_trace_columns(self):
        assert TRACE_COLUMNS == ("step", "lr", "L_hm", "L_l", "L_s", "L_H",
                                 "L_r", "L_v", "L_total")


class TestTrainLoop:
    def test_runs_and_traces(self):
        model, opt, trace = train(tiny_cfg(), [tiny_scene()])
        assert len(trace) == 6
        assert [row[0] for row in trace] == list(range(6))
        assert all(len(row) == len(TRACE_COLUMNS) for row in trace)
        assert all(np.isfinite(row[2:]).all() for row in trace)

    def test_voxel_grid_step_reaches_every_pfn_parameter(self):
        grid = GridConfig(x_range=(-3.2, 3.2), y_range=(-3.2, 3.2),
                          cell_size=(0.32, 0.32, 1.5), mode="voxel")
        assert grid.dims[2] == 4
        model, opt, trace = train(tiny_cfg(grid=grid, max_steps=1), [tiny_scene()])
        assert np.isfinite(trace[0][2:]).all()
        # one AdamW step leaves m = (1 - beta1) * grad
        pfn = [name for name, _ in model.named_parameters() if name.startswith("pfn.")]
        assert pfn == ["pfn.proj", "pfn.bn.gamma", "pfn.bn.beta"]
        assert all(opt.m[name].any() for name in pfn)

    def test_deterministic_reruns(self):
        scenes = [tiny_scene()]
        _, _, a = train(tiny_cfg(max_steps=10, epochs=8), scenes)
        _, _, b = train(tiny_cfg(max_steps=10, epochs=8), scenes)
        assert a == b  # bit-identical floats, not just approx

    def test_augmented_runs_are_seed_deterministic(self):
        scenes = [tiny_scene()]
        cfg = tiny_cfg(augment=AugmentConfig())
        _, _, a = train(cfg, scenes)
        _, _, b = train(cfg, scenes)
        assert a == b

    def test_seed_changes_trajectory(self):
        scenes = [tiny_scene()]
        _, _, a = train(tiny_cfg(seed=1), scenes)
        _, _, b = train(tiny_cfg(seed=2), scenes)
        assert a != b

    def test_single_frame_scene_pairs_with_itself(self):
        _, _, trace = train(tiny_cfg(max_steps=2), [tiny_scene(num_frames=1)])
        assert len(trace) == 2

    def test_mixed_class_names_rejected(self):
        other = generate_scene(SceneSpec(
            num_frames=2, num_objects=1, range=3.2, margin=1.0, seed=9,
            class_names=("truck",), points_per_object=30, clutter_points=5))
        with pytest.raises(DataError, match="scene class names differ"):
            train(tiny_cfg(), [tiny_scene(), other])

    def test_no_scenes_rejected(self):
        with pytest.raises(ConfigError):
            train(tiny_cfg(), [])

    def test_divergence_raises(self):
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="non-finite"):
                train(tiny_cfg(lr_init=1e18, max_steps=30, epochs=20),
                      [tiny_scene()])

    def test_non_finite_gradient_raises_before_the_step(self, monkeypatch):
        # the package's `train` function shadows its train module
        train_mod = importlib.import_module("fmfdet.train")
        models, at_backward = [], {}
        real_build, real_backward = train_mod.build_model, ad.backward

        def spy_build(*args, **kw):
            models.append(real_build(*args, **kw))
            return models[-1]

        def nan_backward(loss):
            real_backward(loss)
            params = models[0].parameters()
            at_backward.update((id(p), p.data.copy()) for p in params)
            params[0].grad[(0,) * params[0].grad.ndim] = np.nan

        monkeypatch.setattr(train_mod, "build_model", spy_build)
        monkeypatch.setattr(ad, "backward", nan_backward)
        with pytest.raises(DivergenceError, match="non-finite gradient"):
            train(tiny_cfg(), [tiny_scene()])
        params = models[0].parameters()
        assert len(at_backward) == len(params)
        assert all(np.array_equal(p.data, at_backward[id(p)]) for p in params)

    def test_each_pair_is_backpropagated_before_the_next_is_built(self, monkeypatch):
        """In one process; tests/test_workers.py checks each process of a
        forked run, which these spies cannot see into."""
        monkeypatch.setattr(importlib.import_module("fmfdet.forkmap"), "_can_fork",
                            lambda: False)
        calls = []
        real_forward, real_backward = Detector.forward_pair, ad.backward

        def spy_forward(self, *args, **kw):
            calls.append("forward_pair")
            return real_forward(self, *args, **kw)

        def spy_backward(loss):
            calls.append("backward")
            real_backward(loss)

        monkeypatch.setattr(Detector, "forward_pair", spy_forward)
        monkeypatch.setattr(ad, "backward", spy_backward)
        train(tiny_cfg(max_steps=1, batch_size=2), [tiny_scene()])
        assert calls == ["forward_pair", "backward", "forward_pair", "backward"]

    def test_pairwise_backward_equals_one_joint_loss(self, monkeypatch):
        """Gradients summed in .grad pair by pair equal those of one graph
        over the batch means, and the trace holds those means exactly. In
        one process, so the spy sees both pairs' inputs; a forked run gives
        the same bytes (tests/test_workers.py)."""
        train_mod = importlib.import_module("fmfdet.train")
        monkeypatch.setattr(importlib.import_module("fmfdet.forkmap"), "_can_fork",
                            lambda: False)
        cfg = tiny_cfg(max_steps=1, batch_size=2, compute_dtype="float64",
                       augment=AugmentConfig())
        inputs, stepped = [], {}
        real_pair_losses, real_step = train_mod.pair_losses, AdamW.step

        def spy_pair_losses(model, prev, cur, cfg, vox_seeds):
            inputs.append((prev, cur, vox_seeds))
            return real_pair_losses(model, prev, cur, cfg, vox_seeds)

        def spy_step(opt):
            stepped.update((name, p.grad.copy()) for name, p in opt.params)
            real_step(opt)

        monkeypatch.setattr(train_mod, "pair_losses", spy_pair_losses)
        monkeypatch.setattr(AdamW, "step", spy_step)
        _, _, trace = train(cfg, [tiny_scene()])
        assert len(inputs) == 2

        model = build_model(cfg, 2)
        model.train()
        per_pair = [real_pair_losses(model, prev, cur, cfg, seeds)
                    for prev, cur, seeds in inputs]
        means = [ad.mul(ad.add(a, b), 0.5) for a, b in zip(*per_pair)]
        loss = total_loss(means, cfg.loss_weights)
        ad.backward(loss)
        assert trace[0][2:] == tuple(m.item() for m in means) + (loss.item(),)
        joint = dict(model.named_parameters())
        assert set(stepped) == set(joint)
        for name, grad in stepped.items():
            want = joint[name].grad
            assert grad.dtype == np.float64
            assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_train_step_scratch_holds_four_roles(self):
        """conv2d's backward reuses the forward's acc and tap scratch, so a
        thread that ran a train step keeps four scratch buffers."""
        roles = []

        def step():
            train(tiny_cfg(max_steps=1), [tiny_scene()])
            roles.extend(vars(ad._scratch))

        thread = threading.Thread(target=step)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert sorted(roles) == ["acc", "grad_phases", "phases", "tap"]

    def test_disabling_fusion_removes_exactly_its_params(self):
        cfg = tiny_cfg()
        n_on = sum(p.data.size for _, p in
                   build_model(cfg, 2).named_parameters())
        n_off = sum(p.data.size for _, p in
                    build_model(tiny_cfg(fmf=FMFConfig(enabled=False)),
                                2).named_parameters())
        c = TINY_BACKBONE.out_channels
        block = ConvBNReLU(2 * c, c, cfg.fmf.kernel_size, np.random.default_rng(0))
        n_block = sum(p.data.size for _, p in block.named_parameters())
        assert n_on - n_off == n_block


class TestForwardPath:
    @pytest.mark.parametrize("fmf", [FMFConfig(use_odometry=True),
                                     FMFConfig(use_odometry=False),
                                     FMFConfig(enabled=False)],
                             ids=["odometry", "no_odometry", "no_fusion"])
    def test_pair_forward_equals_streaming_step(self, fmf):
        spec = SceneSpec(num_frames=2, num_objects=2, range=3.2, margin=1.0,
                         ego_speed=0.5, ego_yaw_rate=0.4, seed=3,
                         class_names=("car", "pedestrian"),
                         points_per_object=40, clutter_points=10)
        f0, f1 = generate_scene(spec).frames
        model = build_model(tiny_cfg(fmf=fmf), 2)
        # a fresh heatmap branch predicts a constant; make it see its input
        final = model.head.branches["heatmap"][1]
        final.weight.data[:] = np.random.default_rng(0).normal(
            size=final.weight.data.shape)
        model.eval()
        with ad.no_grad():
            pair = model.forward_pair(f0, f1, (4, 5))
            _, state = model.forward_frame(f0, None, 4)
            stream, _ = model.forward_frame(f1, state, 5)
        for field in dataclasses.fields(pair):
            assert np.array_equal(getattr(pair, field.name).data,
                                  getattr(stream, field.name).data), field.name

    @pytest.mark.parametrize("match", [MatchConfig(score_threshold=0.05),
                                       MatchConfig(score_threshold=0.0, top_k=7)],
                             ids=["threshold", "top_k"])
    def test_inference_at_peaks_equals_decoding_every_cell(self, match):
        """run_inference evaluates the regression maps at the selected peaks
        only; decoding a head output evaluated at every cell gives the same
        classes, order and scores, and boxes within perfbench's tolerances."""
        model, _, _ = train(tiny_cfg(), [tiny_scene()])
        seq = tiny_scene(seed=9)
        got = run_inference(model, seq, match)
        want, state = [], None
        with ad.no_grad():
            for frame in seq.frames:
                out, state = model.forward_frame(frame, state)
                want.append(decode(out, model.geometry, match))
        assert sum(map(len, want)) > len(seq.frames)
        for got_frame, want_frame in zip(got, want, strict=True):
            assert ([(d.class_id, d.score) for d in got_frame]
                    == [(d.class_id, d.score) for d in want_frame])
            for g, w in zip(got_frame, want_frame):
                assert np.allclose(dataclasses.astuple(g.box),
                                   dataclasses.astuple(w.box), rtol=1e-5, atol=1e-5)


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        _, _, trace = train(tiny_cfg(max_steps=3), [tiny_scene()],
                            trace_path=path)
        rows = read_trace(path)
        assert len(rows) == 3
        for got, want in zip(rows, trace):
            assert got == pytest.approx(want, rel=1e-9)

    def test_header_is_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,loss\n0,1.0\n")
        with pytest.raises(ConfigError, match="columns"):
            read_trace(path)

    def test_write_then_read_explicit_rows(self, tmp_path):
        rows = [(0, 0.001, 1.5, 0.1, 0.2, 0.3, 0.4, 0.5, 3.0)]
        path = tmp_path / "t.csv"
        write_trace(path, rows)
        assert read_trace(path) == [tuple(float(v) for v in rows[0])]


class TestCheckpoints:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        scenes = [tiny_scene()]
        cfg = tiny_cfg()
        model, opt, _ = train(cfg, scenes)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, cfg, ("car", "pedestrian"), step=6,
                        opt=opt)
        model2, cfg2, names, step, opt_state = load_checkpoint(path)
        assert cfg2 == cfg
        assert names == ("car", "pedestrian")
        assert step == 6
        want = model.state_dict()
        got = model2.state_dict()
        assert set(want) == set(got)
        for key in want:
            assert np.array_equal(want[key], got[key]), key
        for key, val in opt.state_dict().items():
            assert np.array_equal(opt_state[key], val), key

    def test_loaded_model_is_in_eval_mode(self, tmp_path):
        cfg = tiny_cfg()
        model = build_model(cfg, 2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, cfg, ("car", "pedestrian"))
        model2, _, _, step, opt_state = load_checkpoint(path)
        assert step == 0 and opt_state is None
        assert not model2.training
        frame = tiny_scene().frames[0]
        model.eval()
        a = model.forward_pair(frame, frame)
        b = model2.forward_pair(frame, frame)
        assert np.array_equal(a.heatmap.data, b.heatmap.data)


    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_unopenable_checkpoint_is_data_error(self, tmp_path, case):
        path = tmp_path / "ckpt.npz"
        if case == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=re.escape(f"cannot open checkpoint {path}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.full((2,), np.nan), np.array(["x", "y"]),
                                       np.array([True, False])])
    def test_bad_optimizer_array_is_format_error(self, tmp_path, value):
        cfg = tiny_cfg()
        model = build_model(cfg, 2)
        good = tmp_path / "good.npz"
        save_checkpoint(good, model, cfg, ("car", "pedestrian"),
                        opt=AdamW(model.named_parameters()))
        with np.load(good) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["opt.m.pfn.proj"] = value
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(DataError, match=re.escape(str(bad)) + ": non-.* opt.m.pfn.proj"):
            load_checkpoint(bad)

    def test_misfit_state_names_every_key_and_loads_nothing(self):
        model = build_model(tiny_cfg(), 2)
        before = model.state_dict()
        state = dict(before, **{"param.extra": np.zeros(2)})
        del state["param.pfn.proj"]
        state["param.fmf.conv.weight"] = np.zeros(3)
        with pytest.raises(ShapeError) as err:
            model.load_state_dict(state)
        for key in ("param.extra (not in this model)", "param.pfn.proj (missing)",
                    "param.fmf.conv.weight (shape (3,)"):
            assert key in str(err.value)
        assert all(np.array_equal(v, before[k]) for k, v in model.state_dict().items())

    @pytest.mark.parametrize("case", ["garbage", "half_file", "no_meta_config",
                                      "bad_json", "bad_config", "parent_format"])
    def test_corrupt_checkpoint_is_format_error(self, tmp_path, case):
        """load_checkpoint itself maps every way a file fails to be a
        checkpoint to DataError naming the path, and for misfit arrays
        every extra and missing key. A checkpoint from before the PFN
        projection became the [C, D] `pfn.proj` (it was `pfn.weight`, [D, C])
        has no loader of its own."""
        cfg = tiny_cfg()
        good = tmp_path / "good.npz"
        save_checkpoint(good, build_model(cfg, 2), cfg, ("car", "pedestrian"))
        with np.load(good) as data:
            arrays = {k: data[k] for k in data.files}
        bad = tmp_path / "bad.npz"
        keys = []
        if case == "garbage":
            bad.write_bytes(b"not an npz")
        elif case == "half_file":
            raw = good.read_bytes()
            bad.write_bytes(raw[:len(raw) // 2])
        else:
            if case == "no_meta_config":
                del arrays["meta.config"]
            elif case == "bad_json":
                arrays["meta.config"] = np.array("{not json")
            elif case == "bad_config":
                stored = json.loads(str(arrays["meta.config"][()]))
                arrays["meta.config"] = np.array(json.dumps(dict(stored, lr_init=0.0)))
            else:
                arrays["param.pfn.weight"] = arrays.pop("param.pfn.proj").T
                keys = ["param.pfn.weight", "param.pfn.proj"]
            np.savez(bad, **arrays)
        with pytest.raises(DataError, match="invalid checkpoint") as err:
            load_checkpoint(bad)
        assert str(bad) in str(err.value)
        assert all(k in str(err.value) for k in keys)


class TestConfigIO:
    def test_to_from_dict_roundtrip(self):
        cfg = tiny_cfg(lr_init=0.007)
        again = from_dict(TrainConfig, to_dict(cfg))
        assert again == cfg

    def test_partial_dict_keeps_defaults(self):
        cfg = from_dict(TrainConfig, {"epochs": 3})
        assert cfg.epochs == 3
        assert cfg.lr_init == TrainConfig().lr_init

    def test_partial_section_merges_onto_its_default(self):
        cfg = from_dict(TrainConfig, {"grid": {"max_cells": 100}})
        assert cfg.grid == dataclasses.replace(desk_pillar_config(),
                                               max_cells=100)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            from_dict(TrainConfig, {"lr": 0.1})

    def test_nested_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match="grid.cells"):
            from_dict(TrainConfig, {"grid": {"cells": 4}})

    def test_bool_fields_reject_numbers(self):
        with pytest.raises(ConfigError, match="boolean"):
            from_dict(TrainConfig, {"augment": {"enabled": 1}})

    def test_int_fields_reject_fractions(self):
        with pytest.raises(ConfigError, match="integer"):
            from_dict(TrainConfig, {"epochs": 2.5})
        assert from_dict(TrainConfig, {"epochs": 2.0}).epochs == 2

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = tiny_cfg(weight_decay=0.05)
        path.write_text(json.dumps(to_dict(cfg)))
        assert load_config(path, TrainConfig) == cfg
        assert json.loads(path.read_text())["weight_decay"] == 0.05

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json", TrainConfig)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path, TrainConfig)

    @pytest.mark.parametrize("raw,match", [
        (b"\xff\xfe{}", "invalid JSON"),
        (b"[1, 2]", "expected a JSON object")])
    def test_non_utf8_or_non_object_file(self, tmp_path, raw, match):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=f"bad.json: {match}"):
            load_config(path, TrainConfig)


class TestOverrides:
    def test_scalar_and_nested(self):
        cfg = apply_overrides(TrainConfig(), ["lr_init=0.01",
                                              "grid.max_cells=500",
                                              "augment.enabled=false"])
        assert cfg.lr_init == 0.01
        assert cfg.grid.max_cells == 500
        assert cfg.augment.enabled is False

    def test_string_fallback(self):
        cfg = apply_overrides(TrainConfig(), ["grid.mode=pillar"])
        assert cfg.grid.mode == "pillar"

    @pytest.mark.parametrize("section,field,value", [
        ("grid", "max_cells", 100), ("backbone", "out_channels", 16),
        ("fmf", "use_odometry", False), ("augment", "flip_x", False)])
    def test_file_and_set_agree(self, tmp_path, section, field, value):
        """A partial section merges onto the section it replaces, whether it
        comes from a file or from --set, dotted or as a whole object."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {field: value}}))
        dotted = [f"{section}.{field}={json.dumps(value)}"]
        whole = [f"{section}={json.dumps({field: value})}"]
        assert load_config(path, TrainConfig) == apply_overrides(
            TrainConfig(), dotted)
        base = tiny_cfg(fmf=FMFConfig(kernel_size=5))
        cfg = apply_overrides(base, dotted)
        assert apply_overrides(base, whole) == cfg
        assert getattr(cfg, section) == dataclasses.replace(
            getattr(base, section), **{field: value})

    def test_bad_forms(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(TrainConfig(), ["lr_init"])
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(TrainConfig(), ["nope=1"])
        with pytest.raises(ConfigError, match="empty path"):
            apply_overrides(TrainConfig(), ["grid..mode=pillar"])

    def test_path_into_a_scalar_rejected(self):
        with pytest.raises(ConfigError, match="lr_init"):
            apply_overrides(TrainConfig(), ["lr_init.x=1"])

    def test_validation_still_applies(self):
        with pytest.raises(ConfigError):
            apply_overrides(TrainConfig(), ["lr_init=-1"])

    def test_leaf_takes_its_declared_type(self):
        """A leaf is checked against its field's default, not against the
        value it replaces: a grid built with integer ranges takes fractions."""
        base = TrainConfig(grid=GridConfig(x_range=(-8, 8), y_range=(-8, 8),
                                           cell_size=(0.5, 0.5, 6.0)))
        cfg = apply_overrides(base, ["grid.x_range=[-5.5, 5.5]"])
        assert cfg.grid.x_range == (-5.5, 5.5)


def test_ablation_configs_may_differ_only_in_fmf():
    with pytest.raises(ConfigError, match="differ only in fmf"):
        ablation_run(tiny_cfg(), tiny_cfg(fmf=FMFConfig(enabled=False),
                                          head_channels=9))

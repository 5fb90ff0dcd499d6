"""End-to-end acceptance checks for the full detection stack.

Each test covers one release criterion and prints a single PASS line;
a pytest failure on any of them is the corresponding FAIL line.
"""
import bisect
import math
import time

import numpy as np
import pytest

import fmfdet.autodiff as ad
from fmfdet.ablate import ablation_run
from fmfdet.augment import AugmentConfig
from fmfdet.backbone import BackboneConfig
from fmfdet.decode import MatchConfig, decode, find_peaks
from fmfdet.fmf import FMFConfig, warp_feature_map
from fmfdet.geometry import MapGeometry, Pose2D, relative_pose, wrap_angle
from fmfdet.gradcheck import run_gradcheck
from fmfdet.heads import (FocalParams, HeadOutput, TargetMaps, focal_loss,
                          render_targets)
from fmfdet.metrics import nds, write_detections
from fmfdet.model import run_inference
from fmfdet.scene import Box3D, SceneSpec, generate_scene
from fmfdet.train import TRACE_COLUMNS, TrainConfig, train
from fmfdet.voxelizer import GridConfig, desk_pillar_config, voxelize

GEOM = MapGeometry(x_min=-12.8, y_min=-12.8, cell=0.64, h=40, w=40)

TINY_CFG = dict(
    grid=GridConfig(x_range=(-5.12, 5.12), y_range=(-5.12, 5.12),
                    cell_size=(0.32, 0.32, 6.0)),
    backbone=BackboneConfig(pfn_channels=8, neck_channels=(8,),
                            neck_strides=(2,), out_channels=8),
    head_channels=8, epochs=8, batch_size=2, max_steps=10, seed=1,
    augment=AugmentConfig(enabled=False))


def tiny_scene(seed=5):
    return generate_scene(SceneSpec(
        num_frames=4, num_objects=2, range=3.2, margin=1.0, ego_speed=0.3,
        seed=seed, class_names=("car", "pedestrian"), points_per_object=40,
        clutter_points=10))


def _report(num, text):
    print(f"[criterion {num:02d}] PASS  {text}")


def head_from_targets(tgt: TargetMaps, geom) -> HeadOutput:
    maps = {"offset": np.zeros((1, 2, geom.h, geom.w)),
            "height": np.zeros((1, 1, geom.h, geom.w)),
            "size": np.zeros((1, 3, geom.h, geom.w)),
            "rotation": np.zeros((1, 2, geom.h, geom.w)),
            "velocity": np.zeros((1, 2, geom.h, geom.w))}
    rows = {"offset": tgt.offset, "height": tgt.height, "size": tgt.size,
            "rotation": tgt.rotation, "velocity": tgt.velocity}
    for row, ((iy, ix), _cid, _obj) in enumerate(tgt.center_mask):
        for name in maps:
            maps[name][0, :, iy, ix] = rows[name][row]
    return HeadOutput(heatmap=ad.Tensor(tgt.heatmap[None].copy()),
                      **{k: ad.Tensor(v) for k, v in maps.items()})


def test_c01_nds_reference_values():
    got_a = nds(0.5719, 0.2964, 0.2552, 0.3258, 0.2793, 0.1860)
    got_b = nds(0.5024, 0.3130, 0.2593, 0.3936, 0.3260, 0.1976)
    assert got_a == pytest.approx(0.6517, abs=5e-5)
    assert got_b == pytest.approx(0.6023, abs=5e-5)
    _report(1, f"NDS composite reproduces reference values "
               f"({got_a:.5f}, {got_b:.5f})")


def test_c02_focal_loss_hand_values():
    fp = FocalParams()

    def single_pixel(y, z, n_objects):
        tgt = TargetMaps(heatmap=np.full((1, 1, 1), y), center_mask=[],
                         offset=np.zeros((0, 2)), height=np.zeros((0, 1)),
                         size=np.zeros((0, 3)), rotation=np.zeros((0, 2)),
                         velocity=np.zeros((0, 2)), num_objects=n_objects)
        pred = ad.Tensor(np.full((1, 1, 1, 1), z))
        return float(focal_loss(pred, tgt, fp).data)

    pos = single_pixel(1.0, 0.5, 1)
    neg = single_pixel(0.5, 0.5, 1)
    assert pos == pytest.approx(0.1733, abs=1e-4)
    assert neg == pytest.approx(0.01083, abs=1e-4)
    _report(2, f"focal loss hand values match ({pos:.6f}, {neg:.6f})")


def test_c03_gradient_suite():
    t0 = time.perf_counter()
    ok, report = run_gradcheck(full=True)
    elapsed = time.perf_counter() - t0
    assert ok
    assert report["ops_worst"] < 1e-5
    assert report["pipeline_worst"] < 1e-4
    assert elapsed < 60.0
    _report(3, f"all ops rel err < 1e-5 (worst {report['ops_worst']:.1e}), "
               f"pipeline < 1e-4 (worst {report['pipeline_worst']:.1e}) "
               f"in {elapsed:.1f}s")


def test_c04_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    total = recovered = 0
    worst_center = worst_size = worst_yaw = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        centers = []
        while len(centers) < n:
            c = rng.uniform(-11, 11, 2)
            if all(np.hypot(*(c - o)) >= 2.0 for o in centers):
                centers.append(c)
        boxes = [Box3D(c[0], c[1], rng.uniform(0.3, 1.5),
                       rng.uniform(0.6, 2.5), rng.uniform(0.6, 5.0),
                       rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi),
                       rng.uniform(-3, 3), rng.uniform(-3, 3),
                       int(rng.integers(0, 3)))
                 for c in centers]
        tgt = render_targets(boxes, GEOM, 3, 0.1)
        dets = decode(head_from_targets(tgt, GEOM), GEOM, MatchConfig())
        total += len(boxes)
        for b in boxes:
            same = [d for d in dets if d.class_id == b.class_id]
            dists = [math.hypot(d.box.cx - b.cx, d.box.cy - b.cy)
                     for d in same]
            if not dists:
                continue
            best = same[int(np.argmin(dists))]
            recovered += 1
            worst_center = max(worst_center, min(dists))
            worst_size = max(worst_size, abs(best.box.w - b.w),
                             abs(best.box.l - b.l), abs(best.box.h - b.h))
            worst_yaw = max(worst_yaw,
                            abs(wrap_angle(best.box.yaw - b.yaw)))
    elapsed = time.perf_counter() - t0
    assert recovered == total
    assert worst_center < 1e-6
    assert worst_size < 1e-6
    assert worst_yaw < 1e-6
    assert elapsed < 30.0
    _report(4, f"{recovered}/{total} boxes recovered; worst center "
               f"{worst_center:.1e} m, size {worst_size:.1e}, yaw "
               f"{worst_yaw:.1e} in {elapsed:.1f}s")


def test_c05_brute_force_oracles():
    rng = np.random.default_rng(1)

    # (a) heatmap rendering vs per-pixel max-of-gaussians
    def oracle_radius(box, cell, min_overlap):
        bw, bl = box.w / cell, box.l / cell
        cases = [
            (1.0, bl + bw, bw * bl * (1 - min_overlap) / (1 + min_overlap)),
            (4.0, 2 * (bl + bw), (1 - min_overlap) * bw * bl),
            (4.0 * min_overlap, -2 * min_overlap * (bl + bw),
             (min_overlap - 1) * bw * bl),
        ]
        roots = [max(np.roots([1.0, -b, a * c]).real) for a, b, c in cases]
        return max(2.0, min(roots)) / 3.0

    render_worst = 0.0
    for _ in range(10):
        boxes = [Box3D(rng.uniform(-11, 11), rng.uniform(-11, 11), 0.8,
                       rng.uniform(0.6, 2.5), rng.uniform(0.6, 5.0), 1.5,
                       0.0, 0.0, 0.0, int(rng.integers(0, 2)))
                 for _ in range(4)]
        got = render_targets(boxes, GEOM, 2, 0.1).heatmap
        want = np.zeros_like(got)
        for box in boxes:
            ix = int(math.floor((box.cx - GEOM.x_min) / GEOM.cell))
            iy = int(math.floor((box.cy - GEOM.y_min) / GEOM.cell))
            sigma = oracle_radius(box, GEOM.cell, 0.1)
            for y in range(GEOM.h):
                for x in range(GEOM.w):
                    d2 = (x - ix) ** 2 + (y - iy) ** 2
                    want[box.class_id, y, x] = max(
                        want[box.class_id, y, x],
                        math.exp(-d2 / (2 * sigma * sigma)))
        render_worst = max(render_worst, np.abs(got - want).max())
    assert render_worst < 1e-12

    # (b) peak finding vs literal 8-neighborhood enumeration
    def oracle_peaks(hm):
        k, h, w = hm.shape
        out = np.zeros((k, h, w), dtype=bool)
        for c in range(k):
            for y in range(h):
                for x in range(w):
                    v = hm[c, y, x]
                    ok = True
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            if dy == 0 and dx == 0:
                                continue
                            yy, xx = y + dy, x + dx
                            if not (0 <= yy < h and 0 <= xx < w):
                                continue
                            nv = hm[c, yy, xx]
                            if nv > v or (nv == v and (dy, dx) < (0, 0)):
                                ok = False
                    out[c, y, x] = ok
        return out

    for i in range(100):
        if i % 2:
            hm = rng.integers(0, 5, size=(1, 64, 64)) / 4.0  # ties galore
        else:
            hm = rng.random((1, 64, 64))
        assert np.array_equal(find_peaks(hm), oracle_peaks(hm))

    # (c) AP vs exhaustive PR-curve evaluation
    from fmfdet.metrics import _ap_from_flags

    def oracle_ap(flags, num_gt):
        if num_gt == 0 or not flags:
            return 0.0
        tp, rec, prec = 0, [], []
        for i, f in enumerate(flags):
            tp += 1 if f else 0
            rec.append(tp / num_gt)
            prec.append(tp / (i + 1))
        vals = []
        for r in np.linspace(0.1, 1.0, 101):
            if r > rec[-1]:
                vals.append(0.0)
            elif r < rec[0]:
                vals.append(prec[0])
            else:
                j = bisect.bisect_right(rec, r) - 1
                if rec[j] == r:
                    vals.append(prec[j])
                else:
                    t = (r - rec[j]) / (rec[j + 1] - rec[j])
                    vals.append(prec[j] + t * (prec[j + 1] - prec[j]))
        return float(np.clip(np.mean(vals), 0.0, 1.0))

    ap_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 21))
        flags = list(rng.random(n) < 0.5)
        num_gt = int(rng.integers(1, 12))
        ap_worst = max(ap_worst, abs(_ap_from_flags(flags, num_gt)
                                     - oracle_ap(flags, num_gt)))
    assert ap_worst < 1e-9
    _report(5, f"render worst {render_worst:.1e}, peak sets identical on "
               f"100 maps, AP worst {ap_worst:.1e}")


def test_c06_feature_map_warp():
    cell = 0.25
    rng = np.random.default_rng(2)

    # identity pose: bit-exact passthrough
    m = ad.Tensor(rng.random((1, 3, 24, 24)))
    out = warp_feature_map(m, Pose2D(0.0, 0.0, 0.0), cell)
    assert np.array_equal(out.data, m.data)

    # integer-cell translation: exact index shift
    k = 3
    rel = relative_pose(Pose2D(0, 0, 0), Pose2D(k * cell, 0.0, 0.0))
    out = warp_feature_map(m, rel, cell).data
    assert np.array_equal(out[:, :, :, :-k], m.data[:, :, :, k:])
    assert not out[:, :, :, -k:].any()

    # forward-inverse roundtrip on smooth maps
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    worst_mean = 0.0
    for _ in range(5):
        cx, cy = rng.uniform(20, 44, 2)
        sigma = rng.uniform(14.0, 20.0)
        smooth = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2)
                        / (2 * sigma ** 2))
        t = ad.Tensor(smooth[None, None])
        cur = Pose2D(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7),
                     rng.uniform(-0.25, 0.25))
        fwd = warp_feature_map(t, relative_pose(Pose2D(0, 0, 0), cur), cell)
        back = warp_feature_map(fwd, relative_pose(cur, Pose2D(0, 0, 0)),
                                cell)
        err = np.abs(back.data - t.data)[0, 0, 12:-12, 12:-12]
        worst_mean = max(worst_mean, float(err.mean()))
    assert worst_mean < 1e-3
    _report(6, f"identity and integer shifts exact; roundtrip interior "
               f"mean err {worst_mean:.1e}")


def test_c07_recurrence_depth_is_two_frames():
    from fmfdet.train import build_model

    scene = tiny_scene()
    cfg = TrainConfig(**TINY_CFG)
    model = build_model(cfg, 2)
    rng = np.random.default_rng(0)
    for _name, p in model.named_parameters():
        p.data[...] += rng.normal(0.0, 0.05, p.data.shape)  # no dead layers
    model.eval()
    f0, f1, f2, sentinel = scene.frames

    def run(first):
        outs, state = [], None
        with ad.no_grad():
            for frame in (first, f1, f2):
                out, state = model.forward_frame(frame, state, vox_seed=0)
                outs.append(out.heatmap.data)
        return outs

    base, poked = run(f0), run(sentinel)
    assert not np.array_equal(base[0], poked[0])  # sentinel reaches frame 0
    assert not np.array_equal(base[1], poked[1])  # and frame 1 via fusion
    assert np.array_equal(base[2], poked[2])      # but never frame 2
    _report(7, "frame-t output depends on frames t and t-1 only")


def test_c08_single_scene_overfit():
    spec = SceneSpec(num_frames=10, num_objects=3, range=12.8, margin=2.0,
                     ego_speed=0.5, seed=42,
                     class_names=("car", "pedestrian"),
                     points_per_object=140, clutter_points=60)
    scene = generate_scene(spec)
    cfg = TrainConfig(
        grid=desk_pillar_config(),
        backbone=BackboneConfig(pfn_channels=12, neck_channels=(12, 24),
                                neck_strides=(1, 2), out_channels=24),
        head_channels=24, epochs=100, batch_size=2, max_steps=500, seed=0,
        augment=AugmentConfig(enabled=False))

    t0 = time.perf_counter()
    model, _opt, trace = train(cfg, [scene])
    elapsed = time.perf_counter() - t0
    assert model.geometry.h == model.geometry.w == 40

    hm_col = TRACE_COLUMNS.index("L_hm")
    first, best = trace[0][hm_col], min(row[hm_col] for row in trace)
    assert best <= first / 10.0

    det_frames = run_inference(model, scene, cfg.match)
    checked = hit = 0
    for frame, dets in zip(scene.frames, det_frames):
        for box in frame.gt_boxes:
            checked += 1
            dists = [math.hypot(d.box.cx - box.cx, d.box.cy - box.cy)
                     for d in dets]
            if dists and min(dists) <= model.geometry.cell:
                hit += 1
    assert hit == checked
    assert elapsed < 600.0
    _report(8, f"L_hm {first:.4f} -> {best:.4f} ({first / best:.0f}x), "
               f"{hit}/{checked} centers within one cell, {elapsed:.0f}s")


def test_c09_determinism(tmp_path):
    scene = tiny_scene()
    frame = scene.frames[0]

    grid = desk_pillar_config()
    a = voxelize(frame, grid, seed=3)
    b = voxelize(frame, grid, seed=3)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.point_counts.tobytes() == b.point_counts.tobytes()

    cfg = TrainConfig(**TINY_CFG)
    model_a, _, trace_a = train(cfg, [scene])
    model_b, _, trace_b = train(cfg, [scene])
    assert trace_a[:10] == trace_b[:10]

    paths = []
    for i, model in enumerate((model_a, model_b)):
        dets = run_inference(model, scene, cfg.match)
        path = tmp_path / f"dets_{i}.jsonl"
        write_detections(dets, scene.class_names, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _report(9, "voxelization bit-identical, 10-step traces equal, "
               "detection files identical")


def test_c09_determinism_float64(tmp_path):
    """c09's rerun check on the float64 path, which c09 itself (at the
    float32 default) no longer covers."""
    scene = tiny_scene()
    cfg = TrainConfig(**TINY_CFG, compute_dtype="float64")
    model_a, _, trace_a = train(cfg, [scene])
    model_b, _, trace_b = train(cfg, [scene])
    assert model_a.parameters()[0].data.dtype == np.float64
    assert trace_a == trace_b

    paths = []
    for i, model in enumerate((model_a, model_b)):
        dets = run_inference(model, scene, cfg.match)
        path = tmp_path / f"dets_{i}.jsonl"
        write_detections(dets, scene.class_names, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _report(9, "float64: 10-step traces equal, detection files identical")


def test_c10_ablation_harness():
    cfg_a = TrainConfig(**TINY_CFG)
    cfg_b = TrainConfig(**dict(TINY_CFG, fmf=FMFConfig(enabled=False)))
    scenes = [tiny_scene(seed=5)]
    report = ablation_run(cfg_a, cfg_b, train_scenes=scenes,
                          eval_scenes=[tiny_scene(seed=6)],
                          min_bench_frames=2)
    for tag in ("a", "b"):
        assert 0.0 <= report["nds_" + tag] <= 1.0
        stages = report["latency_" + tag]["stages"]
        assert set(stages) == {"voxelize", "backbone", "neck", "fmf",
                               "head", "decode"}
        assert all(s["mean_ms"] >= 0 for s in stages.values())
    assert report["nds_delta"] == pytest.approx(
        report["nds_b"] - report["nds_a"])
    _report(10, f"ablation completed: NDS with fusion {report['nds_a']:.4f}, "
                f"without {report['nds_b']:.4f} "
                f"(delta {report['nds_delta']:+.4f})")

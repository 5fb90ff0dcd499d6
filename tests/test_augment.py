"""Global frame augmentation: geometry consistency across points, boxes, poses."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmfdet.augment import (ROTATION_RANGE, SCALE_RANGE, AugmentConfig,
                            AugTransform, apply_transform, sample_transform)
from fmfdet.geometry import Pose2D, relative_pose, rot2d
from fmfdet.scene import Box3D, PointCloudFrame

POSES = st.builds(Pose2D, st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                  st.floats(-10.0, 10.0))
TRANSFORMS = st.builds(AugTransform, st.booleans(), st.booleans(),
                       st.floats(-ROTATION_RANGE, ROTATION_RANGE), st.floats(*SCALE_RANGE))


def demo_frame(seed=0, pose=Pose2D(1.0, -2.0, 0.4)):
    rng = np.random.default_rng(seed)
    pts = np.concatenate([rng.uniform(-8, 8, size=(40, 2)),
                          rng.uniform(0, 2, size=(40, 1)),
                          rng.uniform(0, 1, size=(40, 1))], axis=1)
    boxes = [Box3D(2.0, 3.0, 0.8, 1.9, 4.4, 1.6, 0.7, 1.0, -0.5, 0),
             Box3D(-4.0, 1.0, 0.9, 0.7, 0.8, 1.75, -2.5, 0.0, 0.0, 1)]
    return PointCloudFrame(pts, 0.5, pose, boxes)


def points_in_box(points_xy, box):
    local = (points_xy - np.array([box.cx, box.cy])) @ rot2d(box.yaw)
    return (np.abs(local[:, 0]) <= box.l / 2 + 1e-9) & \
           (np.abs(local[:, 1]) <= box.w / 2 + 1e-9)


class TestTransformAlgebra:
    def test_identity_is_exact_up_to_yaw_wrap(self):
        f = demo_frame()
        out = apply_transform(f, AugTransform())
        assert np.array_equal(out.points, f.points)
        assert (out.ego_pose.x, out.ego_pose.y) == (f.ego_pose.x, f.ego_pose.y)
        assert out.ego_pose.yaw == pytest.approx(f.ego_pose.yaw, abs=1e-12)
        for a, b in zip(out.gt_boxes, f.gt_boxes):
            diff = np.abs(a.as_array() - b.as_array())
            assert diff.max() < 1e-12  # wrap jitter on yaw only

    def test_flips_are_involutions(self):
        f = demo_frame()
        for tf in (AugTransform(flip_x=True), AugTransform(flip_y=True)):
            out = apply_transform(apply_transform(f, tf), tf)
            assert np.allclose(out.points, f.points, atol=1e-12)
            for a, b in zip(out.gt_boxes, f.gt_boxes):
                assert a.cx == pytest.approx(b.cx, abs=1e-12)
                assert a.cy == pytest.approx(b.cy, abs=1e-12)
                assert math.sin(a.yaw) == pytest.approx(math.sin(b.yaw), abs=1e-12)
                assert math.cos(a.yaw) == pytest.approx(math.cos(b.yaw), abs=1e-12)
            assert out.ego_pose.yaw == pytest.approx(f.ego_pose.yaw, abs=1e-12)

    def test_rotation_inverts(self):
        f = demo_frame()
        fwd = apply_transform(f, AugTransform(rotation=0.35))
        back = apply_transform(fwd, AugTransform(rotation=-0.35))
        assert np.allclose(back.points, f.points, atol=1e-9)
        for a, b in zip(back.gt_boxes, f.gt_boxes):
            assert a.cx == pytest.approx(b.cx, abs=1e-9)
            assert a.yaw == pytest.approx(b.yaw, abs=1e-9)
            assert a.vx == pytest.approx(b.vx, abs=1e-9)

    def test_scale_inverts(self):
        f = demo_frame()
        fwd = apply_transform(f, AugTransform(scale=1.04))
        back = apply_transform(fwd, AugTransform(scale=1.0 / 1.04))
        assert np.allclose(back.points, f.points, atol=1e-9)
        assert back.gt_boxes[0].w == pytest.approx(1.9, abs=1e-12)

    def test_scale_touches_all_metric_fields(self):
        f = demo_frame()
        out = apply_transform(f, AugTransform(scale=2.0))
        assert np.allclose(out.points[:, :3], f.points[:, :3] * 2)
        assert np.allclose(out.points[:, 3], f.points[:, 3])  # intensity fixed
        a, b = out.gt_boxes[0], f.gt_boxes[0]
        for attr in ("cx", "cy", "cz", "w", "l", "h", "vx", "vy"):
            assert getattr(a, attr) == pytest.approx(2 * getattr(b, attr))
        assert a.yaw == pytest.approx(b.yaw, abs=1e-12)

    def test_velocity_rotates_with_frame(self):
        f = demo_frame()
        out = apply_transform(f, AugTransform(rotation=math.pi / 2))
        a, b = out.gt_boxes[0], f.gt_boxes[0]
        assert a.vx == pytest.approx(-b.vy, abs=1e-12)
        assert a.vy == pytest.approx(b.vx, abs=1e-12)


class TestLabelConsistency:
    def test_box_membership_survives_any_transform(self):
        rng = np.random.default_rng(1)
        box = Box3D(2.0, -1.0, 0.8, 1.9, 4.4, 1.6, 0.6, 0.0, 0.0, 0)
        local = rng.uniform(-0.49, 0.49, size=(30, 2)) * np.array([4.4, 1.9])
        pts_xy = local @ rot2d(0.6).T + np.array([2.0, -1.0])
        pts = np.concatenate([pts_xy, np.full((30, 1), 0.5),
                              np.zeros((30, 1))], axis=1)
        frame = PointCloudFrame(pts, 0.0, None, [box])
        assert points_in_box(pts_xy, box).all()
        for seed in range(8):
            tf = sample_transform(np.random.default_rng(seed), AugmentConfig())
            out = apply_transform(frame, tf)
            assert points_in_box(out.points[:, :2], out.gt_boxes[0]).all()

    def test_pair_transform_keeps_relative_poses_valid(self):
        # a world-fixed point seen from two poses must stay world-fixed
        # after both frames go through the same transform
        p0 = Pose2D(0.0, 0.0, 0.0)
        p1 = Pose2D(0.7, -0.2, 0.3)
        world = np.array([[3.0, 1.5]])
        frames = []
        for pose in (p0, p1):
            ego = pose.inverse_apply(world)
            pts = np.concatenate([ego, [[0.5]], [[0.1]]], axis=1)
            frames.append(PointCloudFrame(pts, 0.0, pose, []))
        for seed in range(8):
            tf = sample_transform(np.random.default_rng(seed), AugmentConfig())
            a0 = apply_transform(frames[0], tf)
            a1 = apply_transform(frames[1], tf)
            w0 = a0.ego_pose.apply(a0.points[:, :2])
            w1 = a1.ego_pose.apply(a1.points[:, :2])
            assert np.allclose(w0, w1, atol=1e-9)

    @given(POSES, POSES, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), TRANSFORMS)
    @example(Pose2D(0.4, 0.1, -0.2), Pose2D(0.9, -0.3, 0.25), 2.0, -1.0,
             AugTransform(flip_x=True, rotation=0.3, scale=1.02))
    @settings(max_examples=50, deadline=None)
    def test_relative_pose_conjugation(self, p0, p1, qx, qy, tf):
        q_prev = np.array([[qx, qy]])
        rel = relative_pose(p0, p1)
        q_cur = rel.apply(q_prev)
        f_prev = PointCloudFrame(np.concatenate([q_prev, [[0.0]], [[0.0]]], 1),
                                 0.0, p0, [])
        f_cur = PointCloudFrame(np.concatenate([q_cur, [[0.0]], [[0.0]]], 1),
                                0.1, p1, [])
        a_prev = apply_transform(f_prev, tf)
        a_cur = apply_transform(f_cur, tf)
        rel_aug = relative_pose(a_prev.ego_pose, a_cur.ego_pose)
        assert np.allclose(rel_aug.apply(a_prev.points[:, :2]),
                           a_cur.points[:, :2], atol=1e-9)


class TestFloat32Frames:
    @pytest.mark.parametrize("tf", [
        AugTransform(),
        AugTransform(flip_x=True, rotation=0.3, scale=1.02),
        AugTransform(flip_y=True, rotation=-0.37, scale=0.96),
    ])
    def test_float32_frame_transforms_like_its_float64_cast(self, tf):
        f = demo_frame(seed=5)
        f32 = PointCloudFrame(f.points.astype(np.float32), f.timestamp,
                              f.ego_pose, f.gt_boxes)
        f64 = PointCloudFrame(f32.points.astype(np.float64), f.timestamp,
                              f.ego_pose, f.gt_boxes)
        a, b = apply_transform(f32, tf), apply_transform(f64, tf)
        assert a.points.dtype == b.points.dtype == np.float64
        assert a.points.tobytes() == b.points.tobytes()
        assert a == b


class TestSampling:
    def test_seed_determinism(self):
        f = demo_frame()
        a = apply_transform(f, sample_transform(np.random.default_rng(7),
                                                AugmentConfig()))
        b = apply_transform(f, sample_transform(np.random.default_rng(7),
                                                AugmentConfig()))
        assert a == b

    def test_disabled_config_is_identity(self):
        f = demo_frame()
        tf = sample_transform(np.random.default_rng(3),
                              AugmentConfig(enabled=False))
        out = apply_transform(f, tf)
        assert np.array_equal(out.points, f.points)
        for a, b in zip(out.gt_boxes, f.gt_boxes):
            assert np.abs(a.as_array() - b.as_array()).max() < 1e-12

    def test_sampled_values_respect_config_switches(self):
        rng = np.random.default_rng(0)
        cfg = AugmentConfig(flip_x=False, flip_y=False, rotate=False, scale=True)
        for _ in range(5):
            tf = sample_transform(rng, cfg)
            assert not tf.flip_x and not tf.flip_y
            assert tf.rotation == 0.0
            assert 0.95 <= tf.scale <= 1.05

    def test_transforms_vary_across_seeds(self):
        tfs = {sample_transform(np.random.default_rng(s), AugmentConfig())
               for s in range(10)}
        assert len(tfs) > 1

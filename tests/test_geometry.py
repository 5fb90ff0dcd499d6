"""SE(2) pose algebra and BEV map geometry."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmfdet.autodiff as ad
from fmfdet.errors import ConfigError
from fmfdet.fmf import warp_feature_map
from fmfdet.geometry import MapGeometry, Pose2D, relative_pose, rot2d, wrap_angle
from fmfdet.voxelizer import desk_pillar_config

angles = st.floats(-10.0, 10.0, allow_nan=False)
coords = st.floats(-50.0, 50.0, allow_nan=False)
poses = st.builds(Pose2D, coords, coords, angles)


class TestAngles:
    def test_wrap_half_open_range(self):
        assert wrap_angle(math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)

    @given(angles)
    @settings(max_examples=50, deadline=None)
    def test_wrap_preserves_direction(self, a):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)

    def test_rot2d_is_orthonormal(self):
        r = rot2d(0.7)
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(1.0)


class TestPose:
    def test_apply_then_inverse_apply_is_identity(self):
        pose = Pose2D(1.0, -2.0, 0.6)
        pts = np.array([[0.5, 0.5], [-3.0, 2.0]])
        back = pose.inverse_apply(pose.apply(pts))
        assert np.allclose(back, pts, atol=1e-12)

    def test_apply_passes_extra_columns_through(self):
        pose = Pose2D(1.0, 0.0, math.pi / 2)
        pts = np.array([[1.0, 0.0, 5.0, 0.7]])
        out = pose.apply(pts)
        assert np.allclose(out[0, :2], [1.0, 1.0], atol=1e-12)
        assert np.array_equal(out[0, 2:], [5.0, 0.7])

    def test_relative_pose_maps_prev_into_cur(self):
        prev = Pose2D(2.0, 1.0, 0.3)
        cur = Pose2D(2.5, 0.5, 0.9)
        rel = relative_pose(prev, cur)
        # a world point fixed to the previous ego origin must land where the
        # current frame sees it
        world = np.array([[prev.x, prev.y]])
        in_cur = cur.inverse_apply(world)
        via_rel = rot2d(rel.yaw) @ np.zeros(2) + np.array([rel.x, rel.y])
        assert np.allclose(in_cur[0], via_rel, atol=1e-12)

    @given(poses, poses, coords, coords)
    @settings(max_examples=50, deadline=None)
    def test_relative_pose_consistent_for_any_point(self, prev, cur, px, py):
        rel = relative_pose(prev, cur)
        p_prev = np.array([[px, py]])
        direct = cur.inverse_apply(prev.apply(p_prev))
        via = p_prev @ rot2d(rel.yaw).T + np.array([rel.x, rel.y])
        assert np.allclose(direct, via, atol=1e-6)

    def test_relative_pose_of_identical_poses_is_identity(self):
        p = Pose2D(3.0, -1.0, 2.0)
        rel = relative_pose(p, p)
        assert rel.x == pytest.approx(0.0, abs=1e-12)
        assert rel.y == pytest.approx(0.0, abs=1e-12)
        assert rel.yaw == pytest.approx(0.0, abs=1e-12)


class TestMapGeometry:
    def test_from_grid_divides_dims_by_stride(self):
        grid = desk_pillar_config()
        geom = MapGeometry.from_grid(grid, stride=2)
        assert (geom.h, geom.w) == (40, 40)
        assert geom.cell == pytest.approx(0.64)
        assert geom.x_min == -12.8
        assert geom.y_min == -12.8

    def test_from_grid_rejects_non_divisible_stride(self):
        grid = desk_pillar_config()
        with pytest.raises(ConfigError):
            MapGeometry.from_grid(grid, stride=3)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            MapGeometry(0.0, 0.0, -1.0, 4, 4)
        with pytest.raises(ConfigError):
            MapGeometry(0.0, 0.0, 1.0, 0, 4)


map_geometries = st.builds(MapGeometry, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
                           st.floats(0.01, 2.0), st.integers(1, 200), st.integers(1, 200))


class TestWorldCellMap:
    """`to_cell` and `to_world`: the one world <-> cell map that targets,
    decode and the warp go through."""

    @given(map_geometries)
    @settings(max_examples=100, deadline=None)
    def test_every_cell_centre_maps_back_to_its_cell(self, geom):
        iy, ix = np.mgrid[0:geom.h, 0:geom.w]
        px, py = geom.to_cell(*geom.to_world(ix + 0.5, iy + 0.5))
        assert np.array_equal(np.floor(px), ix) and np.array_equal(np.floor(py), iy)

    @given(map_geometries, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_to_world_inverts_to_cell(self, geom, x, y):
        wx, wy = geom.to_world(*geom.to_cell(x, y))
        assert wx == pytest.approx(x, rel=0.0, abs=1e-9)
        assert wy == pytest.approx(y, rel=0.0, abs=1e-9)

    def test_cells_are_half_open_from_the_origin(self):
        geom = MapGeometry(-10.0, -3.25, 0.5, 4, 6)
        assert geom.to_cell(-10.0, -3.25) == (0.0, 0.0)
        assert geom.to_world(1.5, 2.5) == (-9.25, -2.0)

    @given(map_geometries, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(MapGeometry(-10.0, -3.2, 0.32, 24, 40), 0)
    def test_identity_warp_is_bit_exact_at_any_origin(self, geom, seed):
        """c06 checks the ego-centred default origin; here the origin is the
        geometry's own."""
        fmap = ad.Tensor(np.random.default_rng(seed).normal(size=(1, 2, geom.h, geom.w)))
        out = warp_feature_map(fmap, Pose2D(0.0, 0.0, 0.0), geom.cell, (geom.x_min, geom.y_min))
        assert out.data.tobytes() == fmap.data.tobytes()

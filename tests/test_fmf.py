"""Temporal fusion: selector oracle, ego-motion warp, state semantics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmfdet.autodiff as ad
from fmfdet.errors import ConfigError, ShapeError, StateError
from fmfdet.fmf import FMFConfig, FMFState, fmf_step, warp_feature_map
from fmfdet.geometry import MapGeometry, Pose2D, relative_pose
from fmfdet.layers import ConvBNReLU

CELL = 0.32
GEOM = MapGeometry(x_min=-3 * CELL, y_min=-3 * CELL, cell=CELL, h=6, w=6)

# up to 3 cells of translation and 0.15 rad of yaw on a 64x64 map of 0.25 m
# cells: every point of the 32x32 interior reads inside the map on both paths
SMALL_POSES = st.builds(Pose2D, st.floats(-0.75, 0.75), st.floats(-0.75, 0.75),
                        st.floats(-0.15, 0.15))


BN_EPS = ad._BN_EPS


def fusion_block(c, seed):
    """The model's fusion block for c-channel maps: ConvBNReLU(2c -> c, 3x3)."""
    return ConvBNReLU(2 * c, c, 3, np.random.default_rng(seed))


def selector_params(c, pick="current"):
    """Fusion block rigged to pass one concat half through unchanged."""
    params = fusion_block(c, 0)
    w = np.zeros_like(params.conv.weight.data)
    off = 0 if pick == "current" else c
    for ch in range(c):
        w[ch, ch + off, 1, 1] = 1.0
    params.conv.weight.data = w
    params.bn.running_var.data = np.full(c, 1.0 - BN_EPS)  # exact identity BN
    params.eval()
    return params


def rand_map(seed, c=3, h=6, w=6):
    return ad.Tensor(np.random.default_rng(seed).normal(size=(1, c, h, w)))


class TestFusionBlock:
    def test_selector_on_current_gives_relu_of_current(self):
        cur, prev = rand_map(1), rand_map(2)
        out, _ = fmf_step(cur, FMFState(prev_map=prev), selector_params(3, "current"))
        assert np.allclose(out.data, np.maximum(cur.data, 0.0), atol=1e-12)

    def test_selector_on_previous_gives_relu_of_previous(self):
        cur, prev = rand_map(3), rand_map(4)
        out, _ = fmf_step(cur, FMFState(prev_map=prev), selector_params(3, "previous"))
        assert np.allclose(out.data, np.maximum(prev.data, 0.0), atol=1e-12)

    def test_shape_mismatch_raises(self):
        block = selector_params(3)
        with pytest.raises(ShapeError):
            block(ad.concat_channels(rand_map(0, h=6), rand_map(1, h=8)))
        with pytest.raises(ShapeError):
            fmf_step(rand_map(2, c=4), None, block)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            FMFConfig(kernel_size=2)


class TestWarp:
    def test_identity_motion_is_exact(self):
        m = rand_map(5)
        rel = relative_pose(Pose2D(1.0, -2.0, 0.7), Pose2D(1.0, -2.0, 0.7))
        out = warp_feature_map(m, rel, CELL)
        assert np.array_equal(out.data, m.data)

    def test_integer_cell_shift_is_exact(self):
        m = rand_map(6)
        k = 2
        rel = relative_pose(Pose2D(0, 0, 0), Pose2D(k * CELL, 0.0, 0.0))
        out = warp_feature_map(m, rel, CELL).data
        assert np.array_equal(out[:, :, :, :-k], m.data[:, :, :, k:])
        assert not out[:, :, :, -k:].any()

    def test_quarter_turn_permutes_cells_exactly(self):
        m = rand_map(7)
        rel = relative_pose(Pose2D(0, 0, 0), Pose2D(0, 0, np.pi / 2))
        out = warp_feature_map(m, rel, CELL).data
        h = 6
        for iy in range(h):
            for ix in range(h):
                assert np.allclose(out[0, :, iy, ix], m.data[0, :, ix, h - 1 - iy],
                                   atol=1e-12)

    def test_shift_roundtrip_recovers_interior(self):
        m = rand_map(8)
        k = 2
        fwd = relative_pose(Pose2D(0, 0, 0), Pose2D(k * CELL, 0, 0))
        bwd = relative_pose(Pose2D(k * CELL, 0, 0), Pose2D(0, 0, 0))
        out = warp_feature_map(warp_feature_map(m, fwd, CELL), bwd, CELL).data
        assert np.allclose(out[:, :, :, k:], m.data[:, :, :, k:], atol=1e-12)

    def test_warp_is_linear_in_the_map(self):
        a, b = rand_map(9), rand_map(10)
        rel = Pose2D(0.13, -0.21, 0.37)
        wa = warp_feature_map(a, rel, CELL).data
        wb = warp_feature_map(b, rel, CELL).data
        wab = warp_feature_map(ad.Tensor(a.data + b.data), rel, CELL).data
        assert np.allclose(wab, wa + wb, atol=1e-12)

    def test_bad_cell_size_rejected(self):
        with pytest.raises(ConfigError):
            warp_feature_map(rand_map(0), Pose2D(0, 0, 0), 0.0)

    @given(SMALL_POSES, SMALL_POSES, SMALL_POSES)
    @example(Pose2D(0.0, 0.0, 0.0), Pose2D(0.37, -0.21, 0.11), Pose2D(0.69, 0.13, -0.07))
    @settings(max_examples=40, deadline=None)
    def test_warps_compose_like_relative_poses(self, p0, p1, p2):
        """Warping by rel(p0, p1), then by rel(p1, p2), matches one warp by
        rel(p0, p2) on a smooth map, away from the borders. 4e-3 bounds the
        two bilinear passes' extra smoothing: the worst measured over 2,000
        random draws and every corner of the pose box was 2.5e-3. A flipped
        relative yaw moves the two paths apart by cells, not by 1e-3."""
        cell = 0.25
        yy, xx = np.mgrid[0:64, 0:64].astype(float)
        smooth = ad.Tensor(np.exp(-((xx - 30.3) ** 2 + (yy - 33.7) ** 2) / (2 * 14.0 ** 2))
                           [None, None])
        two = warp_feature_map(warp_feature_map(smooth, relative_pose(p0, p1), cell),
                               relative_pose(p1, p2), cell)
        one = warp_feature_map(smooth, relative_pose(p0, p2), cell)
        assert np.abs(two.data - one.data)[0, 0, 16:-16, 16:-16].max() < 4e-3


class TestStep:
    def test_cold_start_self_aggregates(self):
        cur = rand_map(11)
        out, state = fmf_step(cur, None, selector_params(3, "previous"))
        assert np.allclose(out.data, np.maximum(cur.data, 0.0), atol=1e-12)
        assert state.prev_map is cur

    def test_state_carries_raw_map_not_fused_output(self):
        a, b = rand_map(12), rand_map(13)
        params = selector_params(3, "previous")
        out1, state = fmf_step(a, None, params)
        assert np.array_equal(state.prev_map.data, a.data)
        assert not np.array_equal(state.prev_map.data, out1.data)
        out2, _ = fmf_step(b, state, params)
        assert np.allclose(out2.data, np.maximum(a.data, 0.0), atol=1e-12)

    def test_temporal_receptive_field_is_two_frames(self):
        params = fusion_block(3, 2)
        b, c = rand_map(14), rand_map(15)
        outs = []
        for first in (rand_map(16), rand_map(17)):
            state = None
            for m in (first, b, c):
                out, state = fmf_step(m, state, params)
            outs.append(out.data)
        assert np.array_equal(outs[0], outs[1])

    def test_static_scene_is_a_fixed_point(self):
        params = fusion_block(3, 3)
        cur = rand_map(18)
        pose = Pose2D(0.5, 0.5, 0.1)
        state = None
        outs = []
        for _ in range(3):
            out, state = fmf_step(cur, state, params, pose, GEOM)
            outs.append(out.data)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])

    def test_odometry_shifts_previous_map(self):
        params = selector_params(3, "previous")
        prev = rand_map(19)
        p0, p1 = Pose2D(0, 0, 0), Pose2D(2 * CELL, 0, 0)
        state = FMFState(prev_map=prev, prev_pose=p0)
        out, _ = fmf_step(rand_map(20), state, params, p1, GEOM)
        expect = np.maximum(prev.data[:, :, :, 2:], 0.0)
        assert np.allclose(out.data[:, :, :, :-2], expect, atol=1e-12)
        assert not out.data[:, :, :, -2:].any()

    def test_shape_change_mid_sequence_raises(self):
        params = fusion_block(3, 4)
        _, state = fmf_step(rand_map(21), None, params)
        with pytest.raises(StateError):
            fmf_step(rand_map(22, h=8, w=8), state, params)

    def test_warp_without_cell_size_raises(self):
        """A pose pair with no map geometry (which holds the cell size)."""
        params = fusion_block(3, 5)
        _, state = fmf_step(rand_map(23), None, params, Pose2D(0, 0, 0))
        assert state.prev_pose == Pose2D(0, 0, 0)
        with pytest.raises(ConfigError):
            fmf_step(rand_map(24), state, params, Pose2D(1, 0, 0))


class TestGradients:
    def _fd(self, loss, leaf, idx, h=1e-6):
        out = loss()
        ad.backward(out)
        analytic = leaf.grad[idx]
        with ad.no_grad():
            leaf.data[idx] += h
            up = loss().data
            leaf.data[idx] -= 2 * h
            down = loss().data
            leaf.data[idx] += h
        numeric = (up - down) / (2 * h)
        assert abs(analytic - numeric) / max(1.0, abs(numeric)) < 1e-4

    def test_gradient_through_plain_step(self):
        params = fusion_block(3, 6)
        cur = rand_map(25)
        prev = rand_map(26)
        prev.requires_grad = True
        wts = ad.Tensor(np.cos(np.arange(cur.data.size)).reshape(cur.data.shape))
        state_proto = FMFState(prev_map=prev, prev_pose=None)

        def loss():
            out, _ = fmf_step(cur, state_proto, params)
            return ad.sum(out * wts)

        self._fd(loss, params.conv.weight, (0, 1, 1, 1))
        params.zero_grad()
        prev.grad = None
        self._fd(loss, prev, (0, 0, 2, 2))

    def test_gradient_through_warp_branch(self):
        params = fusion_block(3, 7)
        cur = rand_map(27)
        prev = rand_map(28)
        prev.requires_grad = True
        p0, p1 = Pose2D(0, 0, 0), Pose2D(0.1, -0.07, 0.05)
        wts = ad.Tensor(np.sin(np.arange(cur.data.size)).reshape(cur.data.shape))

        def loss():
            state = FMFState(prev_map=prev, prev_pose=p0)
            out, _ = fmf_step(cur, state, params, p1, GEOM)
            return ad.sum(out * wts)

        self._fd(loss, params.conv.weight, (1, 4, 0, 2))
        params.zero_grad()
        prev.grad = None
        self._fd(loss, prev, (0, 1, 3, 3))

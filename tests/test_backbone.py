"""PFN and BEV neck: masking, scatter layout, shapes, locality, equivariance."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmfdet.autodiff as ad
from fmfdet.backbone import BackboneConfig, Neck, PillarFeatureNet
from fmfdet.errors import ConfigError, ShapeError
from fmfdet.scene import PointCloudFrame
from fmfdet.voxelizer import GridConfig, desk_pillar_config, desk_voxel_config, voxelize


def frame_of(rows):
    return PointCloudFrame(np.asarray(rows, dtype=np.float64).reshape(-1, 4), 0.0)


def tiny_grid():
    return GridConfig(x_range=(-1.28, 1.28), y_range=(-1.28, 1.28),
                      cell_size=(0.32, 0.32, 6.0))


def brute_voxel_map(pfn, pillars):
    """Eval-mode PFN map by a dict over BEV columns: each voxel's max over its
    embedded rows, averaged over its column in ascending z. The sum is
    np.add.reduceat over the column's stacked rows, whose association order
    (first row plus the sum of the rest) segment_mean shares, so the maps
    compare bitwise."""
    with ad.no_grad():
        embedded = pfn.bn(ad.conv_rows(ad.Tensor(pillars.features), pfn.proj)).data
    columns, start = {}, 0
    for (ix, iy, iz), count in zip(pillars.coords.tolist(),
                                   pillars.point_counts.tolist()):
        columns.setdefault((ix, iy), {})[iz] = embedded[start:start + count].max(axis=0)
        start += count
    w, h = pillars.grid_dims
    out = np.zeros((1, pfn.channels, h, w))
    for (ix, iy), voxels in columns.items():
        stacked = np.stack([voxels[iz] for iz in sorted(voxels)])
        out[0, :, iy, ix] = np.add.reduceat(stacked, [0])[0] / len(voxels)
    return out


class TestBackboneConfig:
    def test_stride_validation(self):
        with pytest.raises(ConfigError):
            BackboneConfig(neck_channels=(8, 8), neck_strides=(1, 3))
        with pytest.raises(ConfigError):
            BackboneConfig(neck_channels=(8, 8), neck_strides=(4, 2))
        with pytest.raises(ConfigError):
            BackboneConfig(neck_channels=(8,), neck_strides=(1, 2))
        assert BackboneConfig(neck_channels=(8, 8, 8),
                              neck_strides=(1, 2, 4)).s_out == 4


class TestPillarFeatureNet:
    def test_empty_frame_gives_zero_image(self):
        cfg = desk_pillar_config()
        pfn = PillarFeatureNet(9, 8, np.random.default_rng(0))
        out = pfn(voxelize(PointCloudFrame(np.zeros((0, 4)), 0.0), cfg))
        assert out.data.shape == (1, 8, 80, 80)
        assert not out.data.any()

    def test_scatter_puts_pillar_at_its_cell(self):
        pfn = PillarFeatureNet(9, 8, np.random.default_rng(1)).eval()
        pillars = voxelize(frame_of([[-0.2, 0.4, 0.5, 0.8],
                                     [-0.21, 0.41, 0.3, 0.2]]), tiny_grid())
        assert pillars.coords.tolist() == [[3, 5]]
        out = pfn(pillars).data
        assert out.shape == (1, 8, 8, 8)
        assert np.abs(out[0, :, 5, 3]).max() > 0
        mask = np.zeros((8, 8), dtype=bool)
        mask[5, 3] = True
        assert not out[0, :, ~mask].any()

    def test_feature_dim_mismatch_raises(self):
        pillars = voxelize(frame_of([[0.0, 0.0, 0.0, 0.1]]), desk_voxel_config())
        pfn = PillarFeatureNet(9, 8, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            pfn(pillars)

    def test_voxel_columns_average_over_z(self):
        # eval-mode embeddings are per-voxel, so a two-voxel column equals the
        # mean of the single-voxel columns
        cfg = desk_voxel_config()
        pfn = PillarFeatureNet(7, 8, np.random.default_rng(4)).eval()
        lo = [0.01, 0.02, -1.99, 0.9]
        hi = [0.01, 0.02, 0.5, 0.4]
        out_lo = pfn(voxelize(frame_of([lo]), cfg)).data
        out_hi = pfn(voxelize(frame_of([hi]), cfg)).data
        out_both = pfn(voxelize(frame_of([lo, hi]), cfg)).data
        assert np.allclose(out_both, (out_lo + out_hi) / 2, atol=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_voxel_map_matches_column_brute_force(self, seed, n):
        cfg = GridConfig(x_range=(-0.64, 0.64), y_range=(-0.64, 0.64),
                         cell_size=(0.32, 0.32, 1.0), max_points_per_cell=120,
                         mode="voxel")
        rng = np.random.default_rng(seed)
        pts = rng.uniform([-0.7, -0.7, -2.2, 0.0], [0.7, 0.7, 4.2, 1.0], size=(n, 4))
        pillars = voxelize(frame_of(pts), cfg)
        pfn = PillarFeatureNet(7, 6, np.random.default_rng(8)).eval()
        with ad.no_grad():
            got = pfn(pillars).data
        assert got.tobytes() == brute_voxel_map(pfn, pillars).tobytes()

    def test_analytic_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(-1.2, 1.2, size=(12, 2)),
                              rng.uniform(-1.9, 3.9, size=(12, 1)),
                              rng.uniform(0, 1, size=(12, 1))], axis=1)
        pillars = voxelize(frame_of(pts), tiny_grid())
        pfn = PillarFeatureNet(9, 4, np.random.default_rng(6))
        weights = np.cos(np.arange(4 * 8 * 8)).reshape(1, 4, 8, 8)

        def loss():
            return ad.sum(pfn(pillars) * ad.Tensor(weights))

        out = loss()
        ad.backward(out)
        w = pfn.proj
        analytic = w.grad[0, 0]
        h = 1e-6
        with ad.no_grad():
            w.data[0, 0] += h
            up = loss().data
            w.data[0, 0] -= 2 * h
            down = loss().data
            w.data[0, 0] += h
        numeric = (up - down) / (2 * h)
        assert abs(analytic - numeric) / max(1.0, abs(numeric)) < 1e-5


class TestNeck:
    def test_output_shape_follows_output_stride(self):
        cfg = BackboneConfig(pfn_channels=4, neck_channels=(6, 8),
                             neck_strides=(1, 2), out_channels=5)
        neck = Neck(cfg, np.random.default_rng(0))
        out = neck(ad.Tensor(np.random.default_rng(1).normal(size=(1, 4, 16, 16))))
        assert out.data.shape == (1, 5, 8, 8)

    def test_indivisible_input_raises(self):
        cfg = BackboneConfig(pfn_channels=4, neck_channels=(6,),
                             neck_strides=(2,), out_channels=5)
        neck = Neck(cfg, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            neck(ad.Tensor(np.zeros((1, 4, 15, 15))))

    def test_zero_input_stays_zero_in_eval(self):
        cfg = BackboneConfig(pfn_channels=4, neck_channels=(6, 8),
                             neck_strides=(1, 2), out_channels=5)
        neck = Neck(cfg, np.random.default_rng(0)).eval()
        out = neck(ad.Tensor(np.zeros((1, 4, 16, 16))))
        assert not out.data.any()

    def test_impulse_response_is_local(self):
        cfg = BackboneConfig(pfn_channels=3, neck_channels=(6,),
                             neck_strides=(1,), out_channels=6)
        neck = Neck(cfg, np.random.default_rng(2)).eval()
        x = np.zeros((1, 3, 33, 33))
        x[0, :, 16, 16] = [1.0, -1.0, 0.5]
        out = neck(ad.Tensor(x)).data
        # 3x3 convs: stage (2) + resample (1) + fuse (1) = radius 4
        yy, xx = np.nonzero(np.abs(out[0]).max(axis=0))
        assert yy.size > 0
        assert np.abs(yy - 16).max() <= 4 and np.abs(xx - 16).max() <= 4

    def test_translation_equivariance_in_eval(self):
        cfg = BackboneConfig(pfn_channels=2, neck_channels=(4, 6),
                             neck_strides=(1, 2), out_channels=4)
        neck = Neck(cfg, np.random.default_rng(3)).eval()
        rng = np.random.default_rng(4)
        block = rng.normal(size=(1, 2, 4, 4))
        a = np.zeros((1, 2, 24, 24))
        b = np.zeros((1, 2, 24, 24))
        a[:, :, 10:14, 8:12] = block
        b[:, :, 10:14, 10:14] = block
        out_a = neck(ad.Tensor(a)).data
        out_b = neck(ad.Tensor(b)).data
        assert np.allclose(out_a[:, :, :, :-1], out_b[:, :, :, 1:], atol=1e-10)

    def test_param_count_matches_closed_form(self):
        cfg = BackboneConfig(pfn_channels=8, neck_channels=(8, 12),
                             neck_strides=(1, 2), out_channels=10)
        neck = Neck(cfg, np.random.default_rng(0))
        pfn = PillarFeatureNet(9, 8, np.random.default_rng(0))

        def block(cin, cout):
            return 9 * cin * cout + 2 * cout

        expect_neck = (block(8, 8) + block(8, 8)       # stage 0
                       + block(8, 12) + block(12, 12)  # stage 1
                       + block(8, 8) + block(12, 12)   # resample convs
                       + block(20, 10))                # fuse
        assert neck.param_count() == expect_neck
        assert pfn.param_count() == 9 * 8 + 2 * 8


class TestPillarFeatureNetEval:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_equals_the_recorded_eval_chain(self, dtype):
        """On a crowded frame (the 20-point cap binds), the eval PFN under
        no_grad gives the bytes of the grad-recording eval chain."""
        rng = np.random.default_rng(12)
        centers = rng.uniform(-11, 11, size=(15, 2))
        xy = (centers[:, None] + rng.normal(0, 0.5, size=(15, 600, 2))).reshape(-1, 2)
        pts = np.concatenate([xy, rng.uniform(-1.5, 1.5, size=(9000, 1)),
                              rng.uniform(0, 1, size=(9000, 1))], axis=1)
        pillars = voxelize(frame_of(pts), desk_pillar_config(), seed=3)
        assert pillars.points_dropped_cap > 0
        pfn = PillarFeatureNet(9, 12, np.random.default_rng(13))
        pfn.bn.running_mean.data = rng.normal(size=12)
        pfn.bn.running_var.data = rng.uniform(0.2, 3.0, size=12)
        for _key, t in pfn.named_state():
            t.data = t.data.astype(dtype)
        pfn.eval()
        recorded = pfn(pillars)
        assert recorded._backward_fn is not None
        with ad.no_grad():
            fast = pfn(pillars)
        assert fast.data.dtype == recorded.data.dtype == dtype
        assert fast.data.tobytes() == recorded.data.tobytes()
        assert (fast.data > 0).any()

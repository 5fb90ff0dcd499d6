"""Pillar/voxel binning: partition oracle, caps, decoration, determinism."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmfdet.config import from_dict
from fmfdet.errors import ConfigError
from fmfdet.scene import PointCloudFrame
from fmfdet.train import TrainConfig
from fmfdet.voxelizer import (PILLAR_FEATURE_DIM, VOXEL_FEATURE_DIM,
                              GridConfig, desk_pillar_config,
                              desk_voxel_config, voxelize)

FULL_PILLAR = GridConfig()
FULL_VOXEL = GridConfig(cell_size=(0.1, 0.1, 0.15), max_points_per_cell=10,
                        max_cells=150000, mode="voxel")


def frame_of(rows):
    return PointCloudFrame(np.asarray(rows, dtype=np.float64).reshape(-1, 4), 0.0)


def cell_rows(out, p):
    """Feature rows of cell p: a contiguous run of the flat rows."""
    start = int(out.point_counts[:p].sum())
    return out.features[start:start + out.point_counts[p]]


def brute_bins(points, cfg):
    """Dict partition of in-range points by floor binning."""
    mins = np.array([cfg.x_range[0], cfg.y_range[0], cfg.z_range[0]])
    maxs = np.array([cfg.x_range[1], cfg.y_range[1], cfg.z_range[1]])
    cell = np.array(cfg.cell_size)
    out = {}
    for pt in np.asarray(points, dtype=np.float64):
        if np.all(pt[:3] >= mins) and np.all(pt[:3] < maxs):
            idx = np.floor((pt[:3] - mins) / cell).astype(int)
            key = tuple(idx[:2]) if cfg.mode == "pillar" else tuple(idx)
            out.setdefault(key, []).append(tuple(pt))
    return out


class TestGridConfig:
    def test_default_grid_dims(self):
        assert FULL_PILLAR.dims == (320, 320, 1)
        assert desk_pillar_config().dims == (80, 80, 1)
        assert FULL_VOXEL.dims == (1024, 1024, 40)
        assert desk_voxel_config().dims == (256, 256, 40)

    def test_feature_dims_per_mode(self):
        assert desk_pillar_config().feature_dim == PILLAR_FEATURE_DIM == 9
        assert desk_voxel_config().feature_dim == VOXEL_FEATURE_DIM == 7

    def test_non_divisible_extent_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(x_range=(-1.0, 1.0), cell_size=(0.3, 0.32, 6.0))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(mode="octree")

    def test_bad_caps_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(max_points_per_cell=0)
        with pytest.raises(ConfigError):
            GridConfig(max_cells=0)

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig(y_range=(2.0, 2.0))

    def test_cell_count_over_2_31_rejected(self):
        """voxelize sorts key * n + rank in int64, which stays below 2^63 only
        for W*H*Z <= 2^31. Only configs are built: such a grid's map would
        take hundreds of GB."""
        xy = dict(x_range=(0.0, 2048.0), y_range=(0.0, 2048.0), cell_size=(1.0, 1.0, 1.0))
        assert GridConfig(z_range=(0.0, 512.0), **xy).dims == (2048, 2048, 512)
        with pytest.raises(ConfigError, match=r"cell_size \(1\.0, 1\.0, 1\.0\) gives a "
                                              r"2048x2048x513 grid"):
            GridConfig(z_range=(0.0, 513.0), **xy)
        with pytest.raises(ConfigError, match=r"^grid: cell_size"):
            from_dict(TrainConfig, {"grid": {"cell_size": [0.001, 0.001, 0.001]}})


class TestBinning:
    def test_index_arithmetic_on_known_points(self):
        out = voxelize(frame_of([[0.0, 0.0, 0.0, 0.1]]), FULL_PILLAR)
        assert out.coords.tolist() == [[160, 160]]
        cfg = desk_pillar_config()
        out = voxelize(frame_of([[0.0, 0.0, 0.0, 0.1],
                                 [-12.8, -12.8, -2.0, 0.0]]), cfg)
        assert sorted(out.coords.tolist()) == [[0, 0], [40, 40]]

    def test_half_open_upper_boundary_discarded(self):
        cfg = desk_pillar_config()
        out = voxelize(frame_of([[12.8, 0.0, 0.0, 0.1],
                                 [0.0, 12.8, 0.0, 0.1],
                                 [0.0, 0.0, 4.0, 0.1]]), cfg)
        assert out.num_cells == 0

    @pytest.mark.parametrize("cfg",
                             [desk_pillar_config(), desk_voxel_config()],
                             ids=["pillar", "voxel"])
    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
    def test_point_just_below_upper_boundary_lands_in_last_cell(self, cfg,
                                                                 axis):
        # (nextafter(max, 0) - min) / cell rounds up to the cell count here;
        # pillar mode never reads the z index, so its z case only checks the
        # point is kept.
        ranges = (cfg.x_range, cfg.y_range, cfg.z_range)
        pt = [0.05, 0.05, 0.05, 0.5]
        pt[axis] = np.nextafter(ranges[axis][1], 0.0)
        out = voxelize(frame_of([pt]), cfg)
        assert out.num_cells == 1
        ndim = out.coords.shape[1]
        assert (out.coords[0] < np.array(cfg.dims[:ndim])).all()
        if axis < ndim:
            assert out.coords[0, axis] == cfg.dims[axis] - 1

    def test_edge_point_keeps_its_own_pillar(self):
        # Unclamped, the x-edge point's flat key equals that of cell (0, 41)
        # on the far side of the map, and the two shared one pillar.
        out = voxelize(frame_of([[np.nextafter(12.8, 0.0), 0.05, 0.0, 0.5],
                                 [-12.7, 0.42, 0.0, 0.5]]),
                       desk_pillar_config())
        assert out.coords.tolist() == [[79, 40], [0, 41]]
        assert out.point_counts.tolist() == [1, 1]

    def test_lower_boundary_kept_at_index_zero(self):
        cfg = desk_pillar_config()
        out = voxelize(frame_of([[-12.8, -12.8, -2.0, 0.5]]), cfg)
        assert out.coords.tolist() == [[0, 0]]
        assert out.point_counts.tolist() == [1]

    def test_cells_ordered_by_row_major_flat_key(self):
        cfg = desk_pillar_config()
        out = voxelize(frame_of([[0.0, 0.0, 1.0, 0.5],
                                 [5.0, -3.0, 1.0, 0.2],
                                 [-12.8, -12.8, 0.0, 0.0]]), cfg)
        assert out.coords.tolist() == [[0, 0], [55, 30], [40, 40]]

    def test_empty_frame_gives_empty_tensor(self):
        cfg = desk_pillar_config()
        out = voxelize(PointCloudFrame(np.zeros((0, 4)), 0.0), cfg)
        assert out.features.shape == (0, 9)
        assert out.coords.shape == (0, 2)
        assert out.point_counts.shape == (0,)
        assert out.num_cells == 0
        assert out.grid_dims == (80, 80)

    def test_all_points_out_of_range_gives_empty_tensor(self):
        cfg = desk_pillar_config()
        out = voxelize(frame_of([[100.0, 0.0, 0.0, 0.1]]), cfg)
        assert out.num_cells == 0
        assert out.features.shape == (0, 9)

    @given(pts=st.lists(st.tuples(
        st.floats(-12.7, 12.7), st.floats(-12.7, 12.7),
        st.floats(-1.9, 3.9), st.floats(0, 1)), min_size=0, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_partition_matches_brute_force(self, pts):
        cfg = desk_pillar_config()
        out = voxelize(frame_of(np.array(pts).reshape(-1, 4)), cfg)
        expect = brute_bins(np.array(pts).reshape(-1, 4), cfg)
        got_keys = {tuple(c) for c in out.coords.tolist()}
        assert got_keys == set(expect)
        assert out.features.shape == (out.point_counts.sum(), 9)
        for p, key in enumerate(map(tuple, out.coords.tolist())):
            rows = {tuple(r) for r in cell_rows(out, p)[:, :4].tolist()}
            assert rows == set(expect[key])

    def test_voxel_mode_bins_in_three_axes(self):
        cfg = desk_voxel_config()
        out = voxelize(frame_of([[0.0, 0.0, -2.0, 0.1],
                                 [0.0, 0.0, 0.0, 0.2]]), cfg)
        assert sorted(out.coords.tolist()) == [[128, 128, 0], [128, 128, 13]]
        assert out.features.shape == (2, 7)


class TestDecoration:
    def test_pillar_feature_layout_by_hand(self):
        cfg = desk_pillar_config()
        out = voxelize(frame_of([[0.0, 0.0, 1.0, 0.5],
                                 [0.1, 0.1, 0.5, 0.2]]), cfg)
        assert out.num_cells == 1
        cc = -12.8 + 40.5 * 0.32  # center of cell (40, 40) on both axes
        row0 = [0.0, 0.0, 1.0, 0.5, -0.05, -0.05, 0.25, -cc, -cc]
        row1 = [0.1, 0.1, 0.5, 0.2, 0.05, 0.05, -0.25, 0.1 - cc, 0.1 - cc]
        assert out.features.shape == (2, 9)
        assert np.allclose(out.features[0], row0, atol=1e-12)
        assert np.allclose(out.features[1], row1, atol=1e-12)

    def test_voxel_feature_layout_omits_cell_center(self):
        cfg = desk_voxel_config()
        out = voxelize(frame_of([[0.01, 0.02, 0.03, 0.9]]), cfg)
        assert out.features.shape == (1, 7)
        row = out.features[0]
        assert np.allclose(row[:4], [0.01, 0.02, 0.03, 0.9])
        assert np.allclose(row[4:], 0.0)  # single point: offsets to own mean

    def test_mean_offsets_sum_to_zero_within_cell(self):
        rng = np.random.default_rng(3)
        pts = np.concatenate([rng.uniform(-0.15, 0.15, size=(6, 3)),
                              rng.uniform(0, 1, size=(6, 1))], axis=1)
        out = voxelize(frame_of(pts), desk_pillar_config())
        assert out.num_cells > 0
        for p in range(out.num_cells):
            assert np.allclose(cell_rows(out, p)[:, 4:7].sum(axis=0), 0.0,
                               atol=1e-12)


class TestCaps:
    one_cell = GridConfig(x_range=(-1.6, 1.6), y_range=(-1.6, 1.6),
                          cell_size=(3.2, 3.2, 6.0), max_points_per_cell=5)

    def test_point_cap_keeps_subset_of_cell(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.uniform(-1.5, 1.5, size=(20, 2)),
                              rng.uniform(-1.9, 3.9, size=(20, 1)),
                              rng.uniform(0, 1, size=(20, 1))], axis=1)
        out = voxelize(frame_of(pts), self.one_cell, seed=1)
        assert out.point_counts.tolist() == [5]
        assert out.features.shape == (5, 9)
        kept = {tuple(r) for r in out.features[:, :4].tolist()}
        assert len(kept) == 5
        assert kept <= {tuple(r) for r in pts.tolist()}

    def test_cell_cap_keeps_subset_of_cells(self):
        cfg = GridConfig(x_range=(-12.8, 12.8), y_range=(-12.8, 12.8),
                         max_cells=3)
        xs = np.linspace(-12, 12, 10)
        pts = np.stack([xs, xs, np.zeros(10), np.ones(10)], axis=1)
        full = voxelize(frame_of(pts), dataclasses.replace(cfg, max_cells=60000))
        out = voxelize(frame_of(pts), cfg, seed=2)
        assert out.num_cells == 3
        all_keys = {tuple(c) for c in full.coords.tolist()}
        assert {tuple(c) for c in out.coords.tolist()} <= all_keys

    def test_same_seed_reproduces_bytes(self):
        rng = np.random.default_rng(7)
        pts = np.concatenate([rng.uniform(-1.5, 1.5, size=(40, 2)),
                              rng.uniform(-1.9, 3.9, size=(40, 1)),
                              rng.uniform(0, 1, size=(40, 1))], axis=1)
        a = voxelize(frame_of(pts), self.one_cell, seed=9)
        b = voxelize(frame_of(pts), self.one_cell, seed=9)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.point_counts.tobytes() == b.point_counts.tobytes()

    def test_different_seed_draws_different_survivors(self):
        rng = np.random.default_rng(7)
        pts = np.concatenate([rng.uniform(-1.5, 1.5, size=(40, 2)),
                              rng.uniform(-1.9, 3.9, size=(40, 1)),
                              rng.uniform(0, 1, size=(40, 1))], axis=1)
        a = voxelize(frame_of(pts), self.one_cell, seed=0)
        b = voxelize(frame_of(pts), self.one_cell, seed=1)
        assert a.features.tobytes() != b.features.tobytes()

    def test_cap_survivors_are_uniform_over_seeds(self):
        # 12 points in one cell, cap 5: each point survives 5/12 of the time.
        # Over 3000 seeds the binomial standard deviation of a count is ~27,
        # and the bound below is ~6 of them.
        xs = np.linspace(-1.4, 1.4, 12)
        pts = np.stack([xs, np.zeros(12), np.zeros(12), np.ones(12)], axis=1)
        seeds = 3000
        survived = np.zeros(12)
        for seed in range(seeds):
            out = voxelize(frame_of(pts), self.one_cell, seed=seed)
            survived[np.searchsorted(xs, out.features[:, 0])] += 1
        assert survived.sum() == 5 * seeds
        assert np.abs(survived - seeds * 5 / 12).max() < 160


class TestVoxelOrder:
    @given(pts=st.lists(st.tuples(
        st.sampled_from([-12.8, -0.15, -0.05, 0.05, 0.25, 12.75]),
        st.sampled_from([-0.15, 0.05, 0.15, 12.75]),
        st.floats(-2.0, 3.99), st.floats(0, 1)), min_size=0, max_size=60),
        n_max=st.integers(1, 4), max_cells=st.integers(1, 40),
        seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_voxels_of_a_column_are_adjacent_in_ascending_z(self, pts, n_max,
                                                             max_cells, seed):
        cfg = dataclasses.replace(desk_voxel_config(), max_points_per_cell=n_max,
                                  max_cells=max_cells)
        out = voxelize(frame_of(np.array(pts).reshape(-1, 4)), cfg, seed=seed)
        bev = out.coords[:, 1] * cfg.dims[0] + out.coords[:, 0]
        step = np.diff(bev)
        assert (step >= 0).all()
        assert (np.diff(out.coords[:, 2])[step == 0] > 0).all()


def stable_sort_voxelize(points, cfg):
    """Binning by one stable argsort of the flat cell keys, for frames where
    no cap binds: cells in ascending key order, points in input order within
    a cell."""
    w, h, z = cfg.dims
    mins = np.array([cfg.x_range[0], cfg.y_range[0], cfg.z_range[0]])
    maxs = np.array([cfg.x_range[1], cfg.y_range[1], cfg.z_range[1]])
    pts = points[np.all((points[:, :3] >= mins) & (points[:, :3] < maxs), axis=1)]
    cells = np.floor((pts[:, :3] - mins) / np.array(cfg.cell_size)).astype(np.int64)
    cells = np.minimum(cells, np.array([w - 1, h - 1, z - 1]))
    if cfg.mode == "pillar":
        keys = cells[:, 1] * w + cells[:, 0]
    else:
        keys = (cells[:, 1] * w + cells[:, 0]) * z + cells[:, 2]
    order = np.argsort(keys, kind="stable")
    pts, cells = pts[order], cells[order]
    _, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    assert counts.max(initial=0) <= cfg.max_points_per_cell
    assert counts.size <= cfg.max_cells
    means = np.add.reduceat(pts[:, :3], starts, axis=0) / counts[:, None]
    out = [pts, pts[:, :3] - np.repeat(means, counts, axis=0)]
    if cfg.mode == "pillar":
        ccx = cfg.x_min + (cells[:, 0] + 0.5) * cfg.cell_size[0]
        ccy = cfg.y_min + (cells[:, 1] + 0.5) * cfg.cell_size[1]
        out.append(np.stack([pts[:, 0] - ccx, pts[:, 1] - ccy], axis=1))
    coords = cells[starts, :2] if cfg.mode == "pillar" else cells[starts]
    return np.concatenate(out, axis=1), coords, counts


class TestUncappedFrames:
    @pytest.mark.parametrize("cfg",
                             [desk_pillar_config(), desk_voxel_config()],
                             ids=["pillar", "voxel"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_stable_sort_reference(self, cfg, seed):
        # Clustered points, some out of range, with caps that cannot bind.
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-13.5, 13.5, size=(40, 3)) * [1, 1, 0.2] + [0, 0, 1]
        pts = np.concatenate([centers[rng.integers(0, 40, 3000)]
                              + rng.normal(0, 0.4, size=(3000, 3)),
                              rng.uniform(0, 1, size=(3000, 1))], axis=1)
        cfg = dataclasses.replace(cfg, max_points_per_cell=3000, max_cells=10 ** 6)
        out = voxelize(frame_of(pts), cfg, seed=seed)
        features, coords, counts = stable_sort_voxelize(pts, cfg)
        assert out.features.tobytes() == features.tobytes()
        assert out.coords.tobytes() == coords.tobytes()
        assert out.point_counts.tobytes() == counts.tobytes()


def float32_edge_points(cfg, n, seed):
    """float32 points on the grid's bounds and float32-rounded cell edges.

    np.float32(x_min) lies just outside the float64 range and
    nextafter(np.float32(x_max), 0) just inside it, so a float32 range
    compare would keep or drop other points than the float64 one does.
    """
    rng = np.random.default_rng(seed)
    cols = []
    for (lo, hi), cell, count in zip((cfg.x_range, cfg.y_range, cfg.z_range),
                                     cfg.cell_size, cfg.dims):
        edges = np.float32(lo + np.arange(count + 1) * cell)
        bounds = [np.float32(lo), np.nextafter(np.float32(hi), np.float32(0)),
                  np.float32(hi), np.float32(0.5 * (lo + hi))]
        cols.append(rng.choice(np.concatenate([edges, bounds]), size=n))
    cols.append(rng.uniform(0, 1, size=n))
    return np.stack(cols, axis=1).astype(np.float32)


class TestFloat32Frames:
    @pytest.mark.parametrize("cfg", [
        desk_pillar_config(), desk_voxel_config(),
        dataclasses.replace(desk_pillar_config(), max_points_per_cell=2, max_cells=60),
        dataclasses.replace(desk_voxel_config(), max_points_per_cell=1, max_cells=300),
    ], ids=["pillar", "voxel", "pillar-capped", "voxel-capped"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_float32_frame_bins_like_its_float64_cast(self, cfg, seed):
        pts = float32_edge_points(cfg, 4000, seed)
        a = voxelize(PointCloudFrame(pts, 0.0), cfg, seed=seed)
        b = voxelize(PointCloudFrame(pts.astype(np.float64), 0.0), cfg, seed=seed)
        assert a.features.dtype == b.features.dtype == np.float64
        assert a.features.tobytes() == b.features.tobytes()
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.point_counts.tobytes() == b.point_counts.tobytes()
        assert ((a.points_in_range, a.points_dropped_cap, a.cells_dropped)
                == (b.points_in_range, b.points_dropped_cap, b.cells_dropped))


class TestCapCounts:
    @given(pts=st.lists(st.tuples(
        st.sampled_from([-13.0, -0.3, -0.1, 0.1, 0.5, 0.7, 12.7]),
        st.sampled_from([-0.5, -0.2, 0.2, 12.9]),
        st.floats(-2.5, 4.5), st.floats(0, 1)), min_size=0, max_size=60),
        n_max=st.integers(1, 4), max_cells=st.integers(1, 6),
        seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_brute_force(self, pts, n_max, max_cells, seed):
        cfg = dataclasses.replace(desk_pillar_config(), max_points_per_cell=n_max,
                                  max_cells=max_cells)
        pts = np.array(pts).reshape(-1, 4)
        bins = brute_bins(pts, cfg)
        out = voxelize(frame_of(pts), cfg, seed=seed)
        assert out.points_in_range == sum(map(len, bins.values()))
        assert out.points_dropped_cap == sum(max(len(b) - n_max, 0)
                                             for b in bins.values())
        assert out.cells_dropped == max(len(bins) - max_cells, 0)
        assert out.num_cells == len(bins) - out.cells_dropped
        for key, count in zip(map(tuple, out.coords.tolist()), out.point_counts):
            assert count == min(len(bins[key]), n_max)


def dense_clutter_points(seed, dtype):
    """A crowded desk frame: 20 object clusters of 1200 points, some tight
    enough to fill 0.1 m voxels, and 3000 clutter points, some of them outside
    the grid's ranges."""
    rng = np.random.default_rng(seed)
    centers = np.concatenate([rng.uniform(-11.0, 11.0, size=(20, 2)),
                              rng.uniform(-1.0, 1.0, size=(20, 1))], axis=1)
    spread = [0.6, 0.3, 0.4] * rng.uniform(0.05, 1.0, size=(20, 1, 1))
    objects = (centers[:, None] + spread * rng.normal(size=(20, 1200, 3))).reshape(-1, 3)
    clutter = rng.uniform([-13.5, -13.5, -2.5], [13.5, 13.5, 4.5], size=(3000, 3))
    xyz = np.concatenate([objects, clutter])
    pts = np.concatenate([xyz, rng.uniform(0, 1, size=(xyz.shape[0], 1))], axis=1)
    return pts[rng.permutation(pts.shape[0])].astype(dtype)


def digest(a):
    import hashlib
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def capped_digests(cfg_name, dtype):
    """sha256 of the features (C order), coords and counts of a capped draw,
    and the three counters."""
    out = voxelize(PointCloudFrame(dense_clutter_points(5, dtype), 0.0),
                   CAPPED_CONFIGS[cfg_name], seed=11)
    return (digest(out.features), digest(out.coords), digest(out.point_counts),
            (out.points_in_range, out.points_dropped_cap, out.cells_dropped))


CAPPED_CONFIGS = {
    "pillar": desk_pillar_config(),
    "pillar-cells": dataclasses.replace(desk_pillar_config(), max_cells=900),
    "voxel": desk_voxel_config(),
    "voxel-cells": dataclasses.replace(desk_voxel_config(), max_cells=6000),
}

# Recorded from the sort-based draw as first written (one seeded permutation,
# one sort on key * n + rank, one sort back): any later rewrite of voxelize
# must reproduce these bytes on capped frames, where TestUncappedFrames has
# no reference.
CAPPED_DIGESTS = {
    ("pillar", "float64"): (
        "23e97418ad9291a4dbd91c82beaff156401f4ef9335be09015bb76339cbac6d7",
        "e2619efad81b2a4436a574ea97402857e8abed480deaeecb31c9dc21d78676af",
        "4801ac7db59d7b86bfd43293901947d7d5653e117df420bd0533982dc71ffb40",
        (26302, 17641, 0)),
    ("pillar", "float32"): (
        "db0a8f13d4f35f93d1c2de30883eef8938c712542f7d06f3f74a6bb2bf84405e",
        "e2619efad81b2a4436a574ea97402857e8abed480deaeecb31c9dc21d78676af",
        "4801ac7db59d7b86bfd43293901947d7d5653e117df420bd0533982dc71ffb40",
        (26302, 17641, 0)),
    ("pillar-cells", "float64"): (
        "a222130fd31cffa72017381e741af32bfeca831ea16e313f7d4265fc7e0a4718",
        "1a71c54d615465460c20ef88243abf54ab92490d834de3d216d4446fa3909dd2",
        "64948d54a965abedddf803864a9786cf8a4fdeab13ddafebba375cdfb6d7b9ee",
        (26302, 17641, 1424)),
    ("pillar-cells", "float32"): (
        "8f777f798408b3965010fa3bc257f34fb67c7d5b18b35cb71ac958483e84a7ec",
        "1a71c54d615465460c20ef88243abf54ab92490d834de3d216d4446fa3909dd2",
        "64948d54a965abedddf803864a9786cf8a4fdeab13ddafebba375cdfb6d7b9ee",
        (26302, 17641, 1424)),
    ("voxel", "float64"): (
        "6d6398aa4a05286162cf6a4aa09d5db42934747d778cbfe29a3f6a5294ddb85f",
        "a545bec2d721887fe2872dc58ed591f5462f109eb0736ddc6b2026116e21de39",
        "3a77d096a8e9bb281c60c7318ce6a4109311559215841f3758991bf26036ba45",
        (26302, 3398, 0)),
    ("voxel", "float32"): (
        "0e54000c4b6ff49ec2d6915db3215ed3bb8d8eb28841726d89094141d58e5a67",
        "a545bec2d721887fe2872dc58ed591f5462f109eb0736ddc6b2026116e21de39",
        "3a77d096a8e9bb281c60c7318ce6a4109311559215841f3758991bf26036ba45",
        (26302, 3398, 0)),
    ("voxel-cells", "float64"): (
        "05e7d917624dcdf940bce949fcaac5258ac5b716d1645fc40462abd6045b5326",
        "ed1915973cd3a772e14adf18453d69100f120b90986485988c2cda1954347894",
        "9ab2d2dde016a4968d9804681fcbee7b6917931fec7e274e4976b62c7648ebb1",
        (26302, 3398, 6892)),
    ("voxel-cells", "float32"): (
        "0e564e104d1aef15980ff0fad9a9003aa1e1f08a4e47af3dfa43d3cfa99f92ca",
        "ed1915973cd3a772e14adf18453d69100f120b90986485988c2cda1954347894",
        "9ab2d2dde016a4968d9804681fcbee7b6917931fec7e274e4976b62c7648ebb1",
        (26302, 3398, 6892)),
}


class TestCappedDigests:
    @pytest.mark.parametrize("cfg_name,dtype", list(CAPPED_DIGESTS))
    def test_capped_draw_bytes_are_pinned(self, cfg_name, dtype):
        features, coords, counts, counters = CAPPED_DIGESTS[cfg_name, dtype]
        assert counters[1] > 0 and (counters[2] > 0) == cfg_name.endswith("-cells")
        assert capped_digests(cfg_name, np.dtype(dtype)) == (features, coords, counts,
                                                             counters)

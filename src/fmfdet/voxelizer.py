"""Point-cloud binning into capped, decorated pillars or voxels.

Cells are half-open along every axis: a point exactly on a max-range boundary
is discarded, and a cell index floor((p - min)/cell) that rounds up to the
cell count is clamped to the last cell, so every kept point lands in-grid.
When a cell holds more points than the cap, or the frame more occupied cells
than max_cells, survivors are drawn by seeded uniform sampling without
replacement; cells are processed in ascending flat-key order so the result is
a pure function of (frame, config, seed).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError
from .scene import PointCloudFrame

PILLAR_FEATURE_DIM = 9
VOXEL_FEATURE_DIM = 7


def _check_axis(name, rng, cell):
    lo, hi = rng
    if not hi > lo:
        raise ConfigError(f"{name} range must be nonempty, got {rng}")
    if cell <= 0:
        raise ConfigError(f"{name} cell size must be positive, got {cell}")
    n = (hi - lo) / cell
    if abs(n - round(n)) > 1e-6:
        raise ConfigError(f"{name} extent {hi - lo} is not a whole number of "
                          f"{cell} cells")
    return int(round(n))


@dataclasses.dataclass(frozen=True)
class GridConfig:
    """Binning layout: metric ranges, cell size, retention caps, and mode."""

    x_range: tuple = (-51.2, 51.2)
    y_range: tuple = (-51.2, 51.2)
    z_range: tuple = (-2.0, 4.0)
    cell_size: tuple = (0.32, 0.32, 6.0)
    max_points_per_cell: int = 20
    max_cells: int = 60000
    mode: str = "pillar"

    def __post_init__(self):
        if self.mode not in ("pillar", "voxel"):
            raise ConfigError(f"mode must be 'pillar' or 'voxel', got {self.mode!r}")
        if self.max_points_per_cell < 1 or self.max_cells < 1:
            raise ConfigError("retention caps must be >= 1")
        for name, rng, cell in (("x", self.x_range, self.cell_size[0]),
                                ("y", self.y_range, self.cell_size[1]),
                                ("z", self.z_range, self.cell_size[2])):
            _check_axis(name, rng, cell)

    @property
    def dims(self):
        """(W, H, Z) cell counts along x, y, z."""
        return (_check_axis("x", self.x_range, self.cell_size[0]),
                _check_axis("y", self.y_range, self.cell_size[1]),
                _check_axis("z", self.z_range, self.cell_size[2]))

    @property
    def cell_x(self):
        return self.cell_size[0]

    @property
    def cell_y(self):
        return self.cell_size[1]

    @property
    def x_min(self):
        return self.x_range[0]

    @property
    def y_min(self):
        return self.y_range[0]

    @property
    def feature_dim(self):
        return PILLAR_FEATURE_DIM if self.mode == "pillar" else VOXEL_FEATURE_DIM


def desk_pillar_config() -> GridConfig:
    """Pillar preset on a +-12.8 m area (80x80 grid), same cells and caps."""
    return GridConfig(x_range=(-12.8, 12.8), y_range=(-12.8, 12.8))


def desk_voxel_config() -> GridConfig:
    """Voxel preset on a +-12.8 m area (256x256x40 grid), same cells and caps."""
    return GridConfig(x_range=(-12.8, 12.8), y_range=(-12.8, 12.8),
                      cell_size=(0.1, 0.1, 0.15), max_points_per_cell=10,
                      max_cells=150000, mode="voxel")


@dataclasses.dataclass
class PillarTensor:
    """Occupied cells of one frame, as flat point rows.

    features: [M, D] decorated rows of the kept points, cell by cell in cell
    order, so cell p owns rows starts[p]:starts[p] + point_counts[p] with
    starts the exclusive cumulative sum of point_counts;
    coords: [P, 2] (ix, iy) in pillar mode, [P, 3] (ix, iy, iz) in voxel mode;
    grid_dims: (W, H) BEV extent; z_bins: number of z levels (1 for pillars).
    """

    features: np.ndarray
    coords: np.ndarray
    point_counts: np.ndarray
    grid_dims: tuple
    z_bins: int = 1

    @property
    def num_cells(self):
        return self.point_counts.shape[0]


def _decorate(pts, coords_per_point, means_per_point, cfg):
    """Per-point feature rows: raw point, offsets to cell mean, cell center."""
    out = [pts, pts[:, :3] - means_per_point]
    if cfg.mode == "pillar":
        ccx = cfg.x_min + (coords_per_point[:, 0] + 0.5) * cfg.cell_size[0]
        ccy = cfg.y_min + (coords_per_point[:, 1] + 0.5) * cfg.cell_size[1]
        out.append(np.stack([pts[:, 0] - ccx, pts[:, 1] - ccy], axis=1))
    return np.concatenate(out, axis=1)


def voxelize(frame: PointCloudFrame, cfg: GridConfig, seed: int = 0) -> PillarTensor:
    w, h, z = cfg.dims
    n_max = cfg.max_points_per_cell
    mins = np.array([cfg.x_range[0], cfg.y_range[0], cfg.z_range[0]])
    maxs = np.array([cfg.x_range[1], cfg.y_range[1], cfg.z_range[1]])
    pts = frame.points
    pts = pts[np.all((pts[:, :3] >= mins) & (pts[:, :3] < maxs), axis=1)]

    cells = np.floor((pts[:, :3] - mins) / np.array(cfg.cell_size)).astype(np.int64)
    cells = np.minimum(cells, np.array([w - 1, h - 1, z - 1]))
    if cfg.mode == "pillar":
        keys = cells[:, 1] * w + cells[:, 0]
    else:
        keys = (cells[:, 2] * h + cells[:, 1]) * w + cells[:, 0]

    order = np.argsort(keys, kind="stable")
    pts = pts[order]
    cells = cells[order]
    keys = keys[order]
    uniq_keys, starts, counts = np.unique(keys, return_index=True,
                                          return_counts=True)
    rng = np.random.default_rng(seed)

    keep = np.ones(pts.shape[0], dtype=bool)
    for ci in np.nonzero(counts > n_max)[0]:
        s, c = starts[ci], counts[ci]
        keep[s:s + c] = False
        chosen = np.sort(rng.choice(c, size=n_max, replace=False))
        keep[s + chosen] = True

    capped_counts = np.minimum(counts, n_max)
    if uniq_keys.size > cfg.max_cells:
        kept_cells = np.sort(rng.choice(uniq_keys.size, size=cfg.max_cells,
                                        replace=False))
        cell_mask = np.zeros(uniq_keys.size, dtype=bool)
        cell_mask[kept_cells] = True
        keep &= np.repeat(cell_mask, counts)
        capped_counts = capped_counts[cell_mask]

    pts = pts[keep]
    cells = cells[keep]
    offsets = np.cumsum(capped_counts) - capped_counts
    means = np.add.reduceat(pts[:, :3], offsets, axis=0) / capped_counts[:, None]
    features = _decorate(pts, cells, np.repeat(means, capped_counts, axis=0), cfg)
    if cfg.mode == "pillar":
        return PillarTensor(features, cells[offsets, :2], capped_counts, (w, h))
    return PillarTensor(features, cells[offsets], capped_counts, (w, h), z)

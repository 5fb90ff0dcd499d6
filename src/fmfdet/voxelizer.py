"""Point-cloud binning into capped, decorated pillars or voxels.

Cells are half-open along every axis: a point exactly on a max-range boundary
is discarded, and a cell index floor((p - min)/cell) that rounds up to the
cell count is clamped to the last cell, so every kept point lands in-grid.
A cell over max_points_per_cell keeps a uniform draw without replacement:
one seeded permutation ranks the frame's points, one sort on (cell key, rank)
groups them, and each cell keeps its lowest ranks. max_cells keeps one seeded
draw over the cells. A cell's key is iy*W + ix for a pillar and
(iy*W + ix)*Z + iz for a voxel, so the voxels of one BEV column sit together in
ascending z. Kept points come out in ascending cell key, then input index, so
the result is a pure function of (frame, config, seed).
Points are widened to float64 before any arithmetic, so a float32 frame and
its float64 cast give the same result bit for bit: a float32 compare would
round the range bounds to float32 and move the points at the bounds.
"""
from __future__ import annotations

import dataclasses
import math

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
    if not (math.isfinite(n) and abs(n - round(n)) <= 1e-6):
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
        lengths = tuple(map(len, (self.x_range, self.y_range, self.z_range, self.cell_size)))
        if lengths != (2, 2, 2, 3):
            raise ConfigError(f"x_range, y_range and z_range take 2 values and cell_size 3, "
                              f"got {lengths}")
        w, h, z = self.dims  # checks every axis
        if w * h * z > 2 ** 31:
            raise ConfigError(f"cell_size {self.cell_size} gives a {w}x{h}x{z} grid; "
                              f"voxelize needs W*H*Z <= 2^31 cells")

    @property
    def dims(self):
        """(W, H, Z) cell counts along x, y, z."""
        return tuple(_check_axis(name, rng, cell) for name, rng, cell in
                     zip("xyz", (self.x_range, self.y_range, self.z_range), self.cell_size))

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
    coords: [P, 2] (ix, iy) in pillar mode, [P, 3] (ix, iy, iz) in voxel mode,
    in ascending cell key: pillars row-major over the BEV grid, voxels grouped
    by BEV column (columns row-major, ascending iz inside a column);
    grid_dims: (W, H) BEV extent; points_in_range: points inside the grid's ranges; points_dropped_cap:
    points over max_points_per_cell in their cell, counted before the cell
    cut; cells_dropped: occupied cells cut by max_cells.
    """

    features: np.ndarray
    coords: np.ndarray
    point_counts: np.ndarray
    grid_dims: tuple
    points_in_range: int = 0
    points_dropped_cap: int = 0
    cells_dropped: int = 0

    @property
    def num_cells(self):
        return self.point_counts.shape[0]


def _decorate(pts, ix, iy, means_per_point, cfg):
    """Per-point feature rows: raw point, offsets to cell mean, cell center."""
    out = [pts, pts[:, :3] - means_per_point]
    if cfg.mode == "pillar":
        ccx = cfg.x_min + (ix + 0.5) * cfg.cell_size[0]
        ccy = cfg.y_min + (iy + 0.5) * cfg.cell_size[1]
        out.append(np.stack([pts[:, 0] - ccx, pts[:, 1] - ccy], axis=1))
    return np.concatenate(out, axis=1)


def voxelize(frame: PointCloudFrame, cfg: GridConfig, seed: int = 0) -> PillarTensor:
    w, h, z = dims = cfg.dims
    n_max = cfg.max_points_per_cell
    ranges = (cfg.x_range, cfg.y_range, cfg.z_range)
    pts = frame.points.astype(np.float64, copy=False)
    inside = np.ones(pts.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(ranges):
        inside &= (pts[:, axis] >= lo) & (pts[:, axis] < hi)
    pts = pts.compress(inside, axis=0)
    n = pts.shape[0]
    num_axes = 2 if cfg.mode == "pillar" else 3
    cell = [np.minimum(np.floor((pts[:, a] - ranges[a][0]) / cfg.cell_size[a])
                       .astype(np.int64), dims[a] - 1) for a in range(num_axes)]
    keys = cell[1] * w + cell[0]
    if num_axes == 3:
        keys = keys * z + cell[2]

    # Point perm[j] gets random rank j; sorting key * n + rank groups the
    # points by cell, in random order inside a cell. keys < W*H*Z <= 2^31
    # (GridConfig's bound) and a frame file holds n < 2^32 points (a uint32),
    # so key * n + rank stays below 2^63.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    ranked = np.sort(keys[perm] * n + np.arange(n))
    starts = np.flatnonzero(np.diff(ranked // n, prepend=-1))
    counts = np.diff(np.append(starts, n))
    keep = np.arange(n) - np.repeat(starts, counts) < n_max
    points_dropped_cap = n - int(np.count_nonzero(keep))
    capped_counts = np.minimum(counts, n_max)
    cells_dropped = max(starts.size - cfg.max_cells, 0)
    if cells_dropped:
        cell_mask = np.zeros(starts.size, dtype=bool)
        cell_mask[rng.choice(starts.size, size=cfg.max_cells, replace=False)] = True
        keep &= np.repeat(cell_mask, counts)
        capped_counts = capped_counts[cell_mask]

    # Back to cell order with ascending input index inside each cell.
    sel = perm[ranked[keep] % n]
    kept = np.sort(keys[sel] * n + sel)
    pts = pts.take(kept % n, axis=0)
    col_keys, iz = (kept // n, None) if num_axes == 2 else divmod(kept // n, z)
    cols = [col_keys % w, col_keys // w, iz][:num_axes]
    offsets = np.cumsum(capped_counts) - capped_counts
    means = np.add.reduceat(pts[:, :3], offsets, axis=0) / capped_counts[:, None]
    features = _decorate(pts, *cols[:2], np.repeat(means, capped_counts, axis=0), cfg)
    return PillarTensor(features, np.stack([c[offsets] for c in cols], axis=1),
                        capped_counts, (w, h), points_in_range=n,
                        points_dropped_cap=points_dropped_cap, cells_dropped=cells_dropped)

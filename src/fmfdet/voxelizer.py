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

Every pass runs on contiguous rows: the points are widened once into a
float64 [4, N] block of coordinate rows, and the range test, cell indices,
kept-point gather, per-cell means and decoration each work along those rows.
The features are written as a [D, M] block, and `PillarTensor.features` is
its transpose, so it reads [M, D] with M as the long axis in memory.
Widening to float64 comes before any arithmetic, so a float32 frame and its
float64 cast give the same result bit for bit: a float32 compare would round
the range bounds to float32 and move the points at the bounds.
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

    features: [M, D] float64 decorated rows of the kept points (x, y, z,
        intensity, the offsets to the cell's mean, then in pillar mode the
        x, y offsets to the cell's centre), cell by cell in cell order, so
        cell p owns rows starts[p]:starts[p] + point_counts[p] with starts the
        exclusive cumulative sum of point_counts. It is the transpose of a
        C-contiguous [D, M] block, so it is F-ordered: each feature column
        is contiguous (np.ascontiguousarray gives a row-major copy).
    coords: [P, 2] (ix, iy) in pillar mode, [P, 3] (ix, iy, iz) in voxel
        mode, in ascending cell key: pillars row-major over the BEV grid,
        voxels grouped by BEV column (columns row-major, ascending iz inside
        a column).
    point_counts: [P] kept points per cell, at most max_points_per_cell.
    grid_dims: (W, H) BEV extent.
    points_in_range: points inside the grid's ranges.
    points_dropped_cap: points over max_points_per_cell in their cell,
        counted before the cell cut.
    cells_dropped: occupied cells cut by max_cells.
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


def _first_in_cell(sorted_keys, k):
    """Whether each point of a run of sorted cell keys is among the first k of
    its cell: the key k places before it differs, or there is none."""
    first = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[k:], sorted_keys[:-k], out=first[k:])
    return first


def _split(packed, n):
    """(packed // n, packed % n) for non-negative packed keys: numpy divides
    by a scalar fast, and the remainder costs one multiply and subtract."""
    high = packed // n
    low = high * n
    np.subtract(packed, low, out=low)
    return high, low


def voxelize(frame: PointCloudFrame, cfg: GridConfig, seed: int = 0) -> PillarTensor:
    w, h, z = dims = cfg.dims
    n_max = cfg.max_points_per_cell
    num_axes = 2 if cfg.mode == "pillar" else 3
    ranges = (cfg.x_range, cfg.y_range, cfg.z_range)
    pts = np.array(frame.points.T, dtype=np.float64, order="C")
    inside = np.ones(pts.shape[1], dtype=bool)
    for axis, (lo, hi) in enumerate(ranges):
        inside &= (pts[axis] >= lo) & (pts[axis] < hi)
    index = np.flatnonzero(inside)
    n = index.size
    # cell indices of the points in range, on [axis, point] rows
    axes = slice(0, num_axes)
    cell = pts[axes].take(index, axis=1)
    cell -= np.array([lo for lo, _ in ranges])[axes, None]
    cell /= np.array(cfg.cell_size)[axes, None]
    np.minimum(np.floor(cell, out=cell), np.array(dims)[axes, None] - 1, out=cell)
    cell = cell.astype(np.int64)
    keys = cell[1] * w + cell[0]
    if num_axes == 3:
        keys = keys * z + cell[2]

    # Point perm[j] gets random rank j; sorting key * n + rank groups the
    # points by cell, in random order inside a cell. keys < W*H*Z <= 2^31
    # (GridConfig's bound) and a frame file holds n < 2^32 points (a uint32),
    # so key * n + rank stays below 2^63.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    sorted_keys, rank = _split(np.sort(keys[perm] * n + np.arange(n)), n)
    starts = np.flatnonzero(_first_in_cell(sorted_keys, 1))
    counts = np.diff(np.append(starts, n))
    keep = _first_in_cell(sorted_keys, n_max)
    points_dropped_cap = n - int(np.count_nonzero(keep))
    capped_counts = np.minimum(counts, n_max)
    cells_dropped = max(starts.size - cfg.max_cells, 0)
    if cells_dropped:
        cell_mask = np.zeros(starts.size, dtype=bool)
        cell_mask[rng.choice(starts.size, size=cfg.max_cells, replace=False)] = True
        keep &= np.repeat(cell_mask, counts)
        capped_counts = capped_counts[cell_mask]

    # Back to cell order with ascending input index inside each cell.
    sel = perm[rank[keep]]
    kept_keys, kept = _split(np.sort(keys[sel] * n + sel), n)
    offsets = np.cumsum(capped_counts) - capped_counts
    cell_keys = kept_keys[offsets]
    col_keys, iz = (cell_keys, None) if num_axes == 2 else divmod(cell_keys, z)
    cols = [col_keys % w, col_keys // w, iz][:num_axes]

    # Feature rows [D, M], filled in place: the point, then its offsets to
    # its cell's mean and, for a pillar, to its cell's centre in x and y.
    features = np.empty((cfg.feature_dim, kept.size))
    # every index is in range; the default mode="raise" would copy `out` first
    pts.take(index[kept], axis=1, out=features[:4], mode="clip")
    per_cell = np.add.reduceat(features[:3], offsets, axis=1) / capped_counts
    if num_axes == 2:
        per_cell = np.concatenate([per_cell, [cfg.x_min + (cols[0] + 0.5) * cfg.cell_size[0],
                                              cfg.y_min + (cols[1] + 0.5) * cfg.cell_size[1]]])
    per_cell.take(np.repeat(np.arange(offsets.size), capped_counts), axis=1,
                  out=features[4:], mode="clip")
    np.subtract(features[:3], features[4:7], out=features[4:7])
    if num_axes == 2:
        np.subtract(features[:2], features[7:], out=features[7:])
    return PillarTensor(features.T, np.stack(cols, axis=1), capped_counts, (w, h),
                        points_in_range=n, points_dropped_cap=points_dropped_cap,
                        cells_dropped=cells_dropped)

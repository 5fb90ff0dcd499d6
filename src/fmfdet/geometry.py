"""Planar (SE(2)) pose math and BEV map geometry.

Poses map ego coordinates to world coordinates: p_world = R(yaw) p_ego + t.
Feature maps index cells as [row, col] = [iy, ix]; `MapGeometry.to_world` puts
cell (ix, iy)'s centre at x = x_min + (ix + 0.5) * cell, y = y_min + (iy + 0.5) * cell.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError


def wrap_angle(theta):
    """Wrap an angle (radians) into [-pi, pi)."""
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def rot2d(yaw):
    """2x2 rotation matrix for a counterclockwise yaw."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s], [s, c]])


@dataclasses.dataclass(frozen=True)
class Pose2D:
    """Ego pose on the ground plane: translation (m) and heading (rad)."""

    x: float
    y: float
    yaw: float

    def apply(self, points):
        """Map ego-frame points [..., >=2], xy first, to the world frame."""
        pts = np.asarray(points, dtype=np.float64)
        out = pts.copy()
        out[..., :2] = pts[..., :2] @ rot2d(self.yaw).T + np.array([self.x, self.y])
        return out

    def inverse_apply(self, points):
        """World-frame points [..., >=2], xy first, into the ego frame: R(-yaw)(p - t)."""
        pts = np.asarray(points, dtype=np.float64)
        out = pts.copy()
        out[..., :2] = (pts[..., :2] - np.array([self.x, self.y])) @ rot2d(self.yaw)
        return out


def relative_pose(prev: Pose2D, cur: Pose2D) -> Pose2D:
    """Motion of the previous frame as seen from the current frame.

    Returns dp such that a world-fixed point with previous-frame coordinates
    p has current-frame coordinates R(dp.yaw) p + (dp.x, dp.y). Composition:
    cur^-1 o prev.
    """
    dx, dy = cur.inverse_apply((prev.x, prev.y))
    return Pose2D(float(dx), float(dy), float(wrap_angle(prev.yaw - cur.yaw)))


@dataclasses.dataclass(frozen=True)
class MapGeometry:
    """Metric layout of a BEV feature map, and the one world <-> cell map.

    `cell` is meters per map cell along both axes; the map covers
    [x_min, x_min + w*cell) x [y_min, y_min + h*cell).
    """

    x_min: float
    y_min: float
    cell: float
    h: int
    w: int

    def __post_init__(self):
        if self.cell <= 0:
            raise ConfigError(f"cell size must be positive, got {self.cell}")
        if self.h <= 0 or self.w <= 0:
            raise ConfigError(f"map dims must be positive, got {self.h}x{self.w}")

    def to_cell(self, x, y):
        """World xy (m) to continuous cells (px, py); cell ix spans px in [ix, ix + 1)."""
        return (x - self.x_min) / self.cell, (y - self.y_min) / self.cell

    def to_world(self, px, py):
        """Continuous cells (px, py) to world xy (m); the inverse of to_cell."""
        return px * self.cell + self.x_min, py * self.cell + self.y_min

    @classmethod
    def from_grid(cls, grid, stride=1):
        """Geometry of the map a backbone with output `stride` produces on `grid`."""
        cell_x, cell_y, _ = grid.cell_size
        if abs(cell_x - cell_y) > 1e-12:
            raise ConfigError("feature map geometry requires square xy cells")
        w, h, _ = grid.dims
        if w % stride or h % stride:
            raise ConfigError(f"grid dims {(w, h)} not divisible by stride {stride}")
        return cls(x_min=grid.x_min, y_min=grid.y_min, cell=cell_x * stride,
                   h=h // stride, w=w // stride)

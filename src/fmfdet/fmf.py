"""Temporal aggregation of BEV feature maps across consecutive frames.

Each step concatenates the current map with the previous step's map along
channels and passes them through one shared block, the model's 2C -> C
ConvBNReLU. The carried state (`FMFState`) always holds the raw
pre-aggregation map and the ego pose it was taken at, so the temporal
receptive field is exactly two frames.

Pose and geometry contract: `fmf_step` receives the current frame's ego pose
(None when it is unknown or odometry is off) and the map's `MapGeometry`. The
previous map is warped into the current ego frame only when both its stored
pose and the current pose are known; otherwise it is fused unwarped, and with
no previous map the current one self-aggregates.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, StateError
from .geometry import Pose2D, relative_pose

__all__ = ["FMFConfig", "FMFState", "warp_feature_map", "fmf_step"]


@dataclasses.dataclass(frozen=True)
class FMFConfig:
    enabled: bool = True
    use_odometry: bool = True
    kernel_size: int = 3

    def __post_init__(self):
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and positive, got {self.kernel_size}")


@dataclasses.dataclass
class FMFState:
    """Previous step's pre-aggregation map and its ego pose."""

    prev_map: object = None
    prev_pose: Pose2D = None


def warp_feature_map(feature_map, rel: Pose2D, cell_size_out, origin=None):
    """Resample the previous map into the current ego frame.

    `rel` maps previous-frame coordinates to current-frame coordinates
    (relative_pose(prev, cur)); for every output cell center p the source is
    read at R(-yaw) (p - t) with bilinear interpolation and zero padding.
    `origin` is the world xy of the map's (min, min) corner; by default the
    map is taken as ego-centered.
    """
    h, w = feature_map.data.shape[2:]
    if cell_size_out <= 0:
        raise ConfigError(f"cell_size_out must be positive, got {cell_size_out}")
    if origin is None:
        origin = (-w * cell_size_out / 2.0, -h * cell_size_out / 2.0)
    x_min, y_min = origin
    centres = np.empty((h, w, 2))
    centres[..., 0] = x_min + (np.arange(w) + 0.5) * cell_size_out
    centres[..., 1] = (y_min + (np.arange(h) + 0.5) * cell_size_out)[:, None]
    src = rel.inverse_apply(centres)     # a fresh array: shifted to pixels in place
    src -= origin
    src /= cell_size_out
    src -= 0.5
    return ad.bilinear_sample(feature_map, src)


def fmf_step(current, state: FMFState, block, pose=None, geom=None):
    """One recurrence step; returns (block(concat(current, previous)), new state).

    `pose` is this frame's ego pose, or None when it is unknown or odometry
    is off. With no state, or a state with no map, the map self-aggregates
    (previous := current). When both `pose` and `state.prev_pose` are set, the
    stored map is warped by their relative pose onto `geom`, the MapGeometry
    of the map, before fusion; a missing `geom` is then a ConfigError. The new
    state holds the raw current map and `pose`.
    """
    if state is None or state.prev_map is None:
        previous = current
    else:
        if state.prev_map.data.shape != current.data.shape:
            raise StateError(f"feature map shape changed mid-sequence: "
                             f"{state.prev_map.data.shape} -> {current.data.shape}")
        previous = state.prev_map
        if pose is not None and state.prev_pose is not None:
            if geom is None:
                raise ConfigError("warping by odometry needs the map geometry")
            previous = warp_feature_map(previous, relative_pose(state.prev_pose, pose),
                                        geom.cell, (geom.x_min, geom.y_min))
    out = block(ad.concat_channels(current, previous))
    return out, FMFState(prev_map=current, prev_pose=pose)

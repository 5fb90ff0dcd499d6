"""Frame augmentation: axis flips, global rotation, global scaling.

One sampled transform applies to the whole frame (points, boxes, ego pose),
and the same transform must be applied to every frame of a training pair so
relative poses stay valid. The ego pose is conjugated by the transform: its
translation goes through the full point pipeline, its yaw is negated once
per flip and is untouched by rotation and scale. Points are transformed
in float64 whatever their stored dtype, so the output frame is float64.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .geometry import Pose2D, rot2d, wrap_angle
from .scene import Box3D, PointCloudFrame

ROTATION_RANGE = math.pi / 8.0
SCALE_RANGE = (0.95, 1.05)


@dataclasses.dataclass(frozen=True)
class AugmentConfig:
    enabled: bool = True
    flip_x: bool = True
    flip_y: bool = True
    rotate: bool = True
    scale: bool = True


@dataclasses.dataclass(frozen=True)
class AugTransform:
    """A concrete draw: applied in order flip_x, flip_y, rotation, scale."""

    flip_x: bool = False
    flip_y: bool = False
    rotation: float = 0.0
    scale: float = 1.0


def sample_transform(rng, cfg: AugmentConfig) -> AugTransform:
    if not cfg.enabled:
        return AugTransform()
    return AugTransform(
        flip_x=bool(cfg.flip_x and rng.random() < 0.5),
        flip_y=bool(cfg.flip_y and rng.random() < 0.5),
        rotation=float(rng.uniform(-ROTATION_RANGE, ROTATION_RANGE)) if cfg.rotate else 0.0,
        scale=float(rng.uniform(*SCALE_RANGE)) if cfg.scale else 1.0,
    )


def _apply_xy(tf: AugTransform, xy):
    """Run [N,2] planar coordinates through the transform pipeline."""
    out = np.array(xy, dtype=np.float64, copy=True)
    if tf.flip_x:
        out[:, 1] = -out[:, 1]
    if tf.flip_y:
        out[:, 0] = -out[:, 0]
    if tf.rotation != 0.0:
        out = out @ rot2d(tf.rotation).T
    return out * tf.scale


def _apply_yaw(tf: AugTransform, yaw):
    if tf.flip_x:
        yaw = -yaw
    if tf.flip_y:
        yaw = math.pi - yaw
    return wrap_angle(yaw + tf.rotation)


def apply_transform(frame: PointCloudFrame, tf: AugTransform) -> PointCloudFrame:
    pts = frame.points.astype(np.float64)
    if pts.shape[0]:
        pts[:, :2] = _apply_xy(tf, pts[:, :2])
        pts[:, 2] *= tf.scale
    boxes = []
    for b in frame.gt_boxes:
        cx, cy = _apply_xy(tf, np.array([[b.cx, b.cy]]))[0]
        vx, vy = _apply_xy(tf, np.array([[b.vx, b.vy]]))[0]
        boxes.append(Box3D(float(cx), float(cy), b.cz * tf.scale,
                           b.w * tf.scale, b.l * tf.scale, b.h * tf.scale,
                           _apply_yaw(tf, b.yaw),
                           float(vx), float(vy), b.class_id))
    pose = frame.ego_pose
    if pose is not None:
        tx, ty = _apply_xy(tf, np.array([[pose.x, pose.y]]))[0]
        yaw = pose.yaw
        if tf.flip_x:
            yaw = -yaw
        if tf.flip_y:
            yaw = -yaw
        pose = Pose2D(float(tx), float(ty), float(wrap_angle(yaw)))
    return PointCloudFrame(pts, frame.timestamp, pose, boxes)


"""Domain types and the synthetic LiDAR scene generator.

A scene is a short sequence of timestamped point-cloud frames. Everything in
a frame lives in that frame's ego coordinates; `ego_pose` places the frame in
the world. Ground-truth boxes move with constant world-frame velocity, points
are sampled on box faces visible from the sensor plus ground clutter.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, DataError
from .geometry import Pose2D, rot2d, wrap_angle

__all__ = [
    "Pose2D", "Box3D", "PointCloudFrame", "SceneSequence", "SceneSpec",
    "generate_scene",
]


@dataclasses.dataclass(frozen=True)
class Box3D:
    """2.5D object box: BEV center + height, size, planar heading and velocity.

    `l` is the extent along the heading axis, `w` across it. Field order
    matches the serialized record: (cx, cy, cz, w, l, h, yaw, vx, vy) + class.
    """

    cx: float
    cy: float
    cz: float
    w: float
    l: float
    h: float
    yaw: float
    vx: float = 0.0
    vy: float = 0.0
    class_id: int = 0

    def __post_init__(self):
        if not (self.w > 0 and self.l > 0 and self.h > 0):
            raise ConfigError(f"box sizes must be positive, got {(self.w, self.l, self.h)}")

    def as_array(self):
        return np.array([self.cx, self.cy, self.cz, self.w, self.l, self.h,
                         self.yaw, self.vx, self.vy], dtype=np.float64)

    @classmethod
    def from_array(cls, values, class_id):
        v = [float(x) for x in values]
        return cls(*v[:9], class_id=int(class_id))


class PointCloudFrame:
    """One sweep: points [N,4] (x, y, z, intensity), optional ego pose, gt boxes.

    Points keep the dtype they arrive in when it is float32 or float64, with
    no copy, so a frame read from a file holds its float32 payload; any other
    dtype becomes float64, and an empty frame is (0, 4). `points` is a
    read-only view: the frame never writes the caller's array, and code that
    computes on points widens them to float64 first (voxelize, augment).
    """

    __slots__ = ("points", "timestamp", "ego_pose", "gt_boxes")

    def __init__(self, points, timestamp, ego_pose=None, gt_boxes=()):
        pts = np.asarray(points)
        if pts.dtype not in (np.float32, np.float64):
            pts = pts.astype(np.float64)
        if pts.size == 0:
            pts = np.zeros((0, 4), dtype=pts.dtype)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise DataError(f"points must be [N,4], got {pts.shape}")
        pts = pts.view()
        pts.flags.writeable = False
        self.points = pts
        self.timestamp = float(timestamp)
        self.ego_pose = ego_pose
        self.gt_boxes = list(gt_boxes)

    @property
    def num_points(self):
        return self.points.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PointCloudFrame):
            return NotImplemented
        return (self.timestamp == other.timestamp
                and self.ego_pose == other.ego_pose
                and self.points.shape == other.points.shape
                and np.array_equal(self.points, other.points)
                and self.gt_boxes == other.gt_boxes)

    def __repr__(self):
        return (f"PointCloudFrame(t={self.timestamp:.3f}, points={self.num_points}, "
                f"boxes={len(self.gt_boxes)})")


class SceneSequence:
    """Ordered frames plus the class vocabulary shared by all ground truth."""

    __slots__ = ("frames", "class_names")

    def __init__(self, frames, class_names):
        frames = list(frames)
        class_names = tuple(class_names)
        if len(class_names) < 1:
            raise ConfigError("a sequence needs at least one class name")
        if len(set(class_names)) < len(class_names):
            raise DataError(f"class names repeat: {class_names}")
        ts = [f.timestamp for f in frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DataError("frame timestamps must be strictly increasing")
        k = len(class_names)
        for f in frames:
            for b in f.gt_boxes:
                if not (0 <= b.class_id < k):
                    raise DataError(f"class_id {b.class_id} outside [0, {k})")
        self.frames = frames
        self.class_names = class_names

    def __len__(self):
        return len(self.frames)

    def __eq__(self, other):
        if not isinstance(other, SceneSequence):
            return NotImplemented
        return self.class_names == other.class_names and self.frames == other.frames


_U32 = 2 ** 32 - 1


@dataclasses.dataclass(frozen=True)
class SceneSpec:
    """Generator parameters. `range` is the half-extent of the square area."""

    num_frames: int = 10
    num_objects: int = 3
    range: float = 12.8
    ego_speed: float = 0.0
    seed: int = 0
    dt: float = 0.1
    ego_yaw_rate: float = 0.0
    class_names: tuple = ("car", "pedestrian")
    points_per_object: int = 140
    clutter_points: int = 60
    min_separation: float = 3.0
    max_object_speed: float = 1.5
    sensor_height: float = 1.7
    margin: float = 2.0

    def __post_init__(self):
        if self.num_frames < 1:
            raise ConfigError("num_frames must be >= 1")
        if self.range <= 0:
            raise ConfigError("scene range must enclose a nonzero area")
        negative = [name for name in ("num_objects", "points_per_object", "clutter_points",
                                      "seed", "max_object_speed") if getattr(self, name) < 0]
        if negative:
            raise ConfigError(f"{', '.join(negative)} must be >= 0")
        # frame files have six-digit names and uint32 point and box counts; an
        # object yields at most points_per_object + 5 points (one more per face)
        limits = {"num_frames": 10 ** 6, "num_objects": _U32,
                  "points_per_object": _U32, "clutter_points": _U32}
        over = [f"{name} <= {most}" for name, most in limits.items()
                if getattr(self, name) > most]
        points = self.num_objects * (self.points_per_object + 5) + self.clutter_points
        if not over and points > _U32:
            over = [f"num_objects * (points_per_object + 5) + clutter_points <= {_U32}"]
        if over:
            raise ConfigError(f"counts must fit the frame files: {', '.join(over)}")
        too_large = [f.name for f in dataclasses.fields(self)
                     if isinstance(f.default, float) and abs(getattr(self, f.name)) > 1e6]
        if too_large:  # a frame file stores float32 coordinates
            raise ConfigError(f"{', '.join(too_large)} must lie within +-1e6")
        if len(self.class_names) < 1:
            raise ConfigError("need at least one class")
        if len(set(self.class_names)) < len(self.class_names):
            raise ConfigError(f"class names repeat: {self.class_names}")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.margin >= self.range:
            raise ConfigError("margin must be smaller than range")


# nominal (w, l, h) per class name; unknown names fall back to _FALLBACK_SIZE
_SIZE_TEMPLATES = {
    "car": (1.9, 4.4, 1.6),
    "truck": (2.5, 7.0, 2.9),
    "cyclist": (0.8, 1.8, 1.5),
    "pedestrian": (0.7, 0.8, 1.75),
}
_FALLBACK_SIZE = (1.2, 1.2, 1.2)


def _ego_pose_at(spec, t):
    v, om = spec.ego_speed, spec.ego_yaw_rate
    if abs(om) < 1e-12:
        return Pose2D(v * t, 0.0, 0.0)
    return Pose2D((v / om) * math.sin(om * t), (v / om) * (1.0 - math.cos(om * t)),
                  wrap_angle(om * t))


def _sample_objects(spec, rng):
    """Draw object states until every frame keeps separation and bounds."""
    k = len(spec.class_names)
    times = np.arange(spec.num_frames) * spec.dt
    bound = spec.range - spec.margin
    for _ in range(1000):
        class_ids = rng.integers(0, k, size=spec.num_objects)
        sizes = np.empty((spec.num_objects, 3))
        for i, cid in enumerate(class_ids):
            base = _SIZE_TEMPLATES.get(spec.class_names[cid], _FALLBACK_SIZE)
            sizes[i] = np.asarray(base) * rng.uniform(0.9, 1.1, size=3)
        centers0 = rng.uniform(-bound, bound, size=(spec.num_objects, 2))
        speeds = rng.uniform(0.0, spec.max_object_speed, size=spec.num_objects)
        dirs = rng.uniform(-math.pi, math.pi, size=spec.num_objects)
        vels = np.stack([speeds * np.cos(dirs), speeds * np.sin(dirs)], axis=1)
        yaws = np.where(speeds > 1e-6, dirs, rng.uniform(-math.pi, math.pi,
                                                         size=spec.num_objects))
        if spec.num_objects == 0:
            return class_ids, sizes, centers0, vels, yaws
        traj = centers0[None] + vels[None] * times[:, None, None]
        if np.abs(traj).max() > bound:
            continue
        ok = True
        if spec.num_objects > 1:
            diff = traj[:, :, None, :] - traj[:, None, :, :]
            dist = np.sqrt((diff ** 2).sum(-1))
            iu = np.triu_indices(spec.num_objects, k=1)
            if dist[:, iu[0], iu[1]].min() < spec.min_separation:
                ok = False
        if ok:
            return class_ids, sizes, centers0, vels, yaws
    raise ConfigError("could not place objects: area too small for "
                      f"{spec.num_objects} objects with separation {spec.min_separation}")


def _box_faces(center_xy, cz, size_wlh, yaw):
    """Face rectangles of an upright box: (center3, normal3, edge_u3, edge_v3)."""
    w, l, h = size_wlh
    r = rot2d(yaw)
    ax = np.array([r[0, 0], r[1, 0], 0.0])
    ay = np.array([r[0, 1], r[1, 1], 0.0])
    az = np.array([0.0, 0.0, 1.0])
    c = np.array([center_xy[0], center_xy[1], cz])
    return [
        (c + ax * (l / 2), ax, ay * w, az * h),
        (c - ax * (l / 2), -ax, ay * w, az * h),
        (c + ay * (w / 2), ay, ax * l, az * h),
        (c - ay * (w / 2), -ay, ax * l, az * h),
        (c + az * (h / 2), az, ax * l, ay * w),
    ]


def _sample_box_points(rng, spec, center_xy, cz, size_wlh, yaw):
    sensor = np.array([0.0, 0.0, spec.sensor_height])
    faces = [f for f in _box_faces(center_xy, cz, size_wlh, yaw)
             if np.dot(f[1], f[0] - sensor) < 0.0]
    if not faces:
        return np.zeros((0, 4))
    areas = np.array([np.linalg.norm(f[2]) * np.linalg.norm(f[3]) for f in faces])
    counts = np.maximum(1, np.round(spec.points_per_object * areas / areas.sum())
                        .astype(int))
    dist = float(np.hypot(center_xy[0], center_xy[1]))
    keep_prob = float(np.clip(1.05 - 0.5 * dist / spec.range, 0.25, 1.0))
    chunks = []
    for (c, _n, eu, ev), cnt in zip(faces, counts):
        uv = rng.uniform(-0.5, 0.5, size=(cnt, 2))
        pts = c[None] + uv[:, :1] * eu[None] + uv[:, 1:2] * ev[None]
        keep = rng.random(cnt) < keep_prob
        pts = pts[keep]
        inten = rng.uniform(0.1, 1.0, size=(pts.shape[0], 1))
        chunks.append(np.concatenate([pts, inten], axis=1))
    return np.concatenate(chunks, axis=0)


def generate_scene(spec: SceneSpec) -> SceneSequence:
    """Build a deterministic synthetic sequence from `spec` (pure in the seed)."""
    rng = np.random.default_rng(spec.seed)
    class_ids, sizes, centers0, vels, yaws = _sample_objects(spec, rng)
    frames = []
    for k in range(spec.num_frames):
        t = k * spec.dt
        pose = _ego_pose_at(spec, t)
        boxes = []
        chunks = []
        for i in range(spec.num_objects):
            c_w = centers0[i] + vels[i] * t
            c_e = pose.inverse_apply(c_w)
            v_e = vels[i] @ rot2d(pose.yaw)
            yaw_e = wrap_angle(yaws[i] - pose.yaw)
            w, l, h = sizes[i]
            cz = h / 2.0
            boxes.append(Box3D(float(c_e[0]), float(c_e[1]), float(cz),
                               float(w), float(l), float(h), float(yaw_e),
                               float(v_e[0]), float(v_e[1]), int(class_ids[i])))
            chunks.append(_sample_box_points(rng, spec, c_e, cz, (w, l, h), yaw_e))
        n_cl = spec.clutter_points
        if n_cl:
            xy = rng.uniform(-spec.range, spec.range, size=(n_cl, 2))
            z = rng.uniform(0.0, 0.3, size=(n_cl, 1))
            inten = rng.uniform(0.0, 0.3, size=(n_cl, 1))
            chunks.append(np.concatenate([xy, z, inten], axis=1))
        points = (np.concatenate(chunks, axis=0) if chunks
                  else np.zeros((0, 4)))
        frames.append(PointCloudFrame(points, timestamp=t, ego_pose=pose,
                                      gt_boxes=boxes))
    return SceneSequence(frames, spec.class_names)

"""Binary frame files and sequence directories.

Frame layout (little-endian):
    magic   8 bytes  "FMFPC1\\0\\0"
    u32     version (= 1)
    f64     timestamp
    u8      has_pose; if 1: f64 tx, f64 ty, f64 yaw
    u32     num_points; then num_points * (4 x f32): x, y, z, intensity
    u32     num_boxes;  then num_boxes  * (9 x f32 + u32 class_id)
            box fields: cx, cy, cz, w, l, h, yaw, vx, vy

Point and box payloads are single precision, so only f32-representable values
round-trip bit-exactly; timestamps and poses are double precision and always
do. `read_frame` keeps the points as stored: the frame holds a read-only
float32 view of the file's bytes, 16 B per point, and no float64 copy.
Every stored value must be finite: a NaN or Inf in the timestamp, pose,
points or boxes makes the file a DataError naming the first bad field, and
`write_frame` refuses such a frame (or a value past float32 range) the same
way, before it writes anything.
A sequence is a directory of frame_%06d.bin files plus manifest.json holding
the header ("format": "fmf-scene", "version": 1), the class names and the
frame order; every frame entry must name a file inside that directory.
"""
from __future__ import annotations

import json
import math
import pathlib
import struct

import numpy as np

from .errors import ConfigError, DataError, atomic_file, writing
from .geometry import Pose2D
from .scene import Box3D, PointCloudFrame, SceneSequence

MAGIC = b"FMFPC1\x00\x00"
VERSION = 1
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "fmf-scene"

_POINT_DTYPE = np.dtype("<f4")
_BOX_DTYPE = np.dtype([("fields", "<f4", (9,)), ("class_id", "<u4")])


def _check_finite(path, what, rows, shown=None):
    """DataError naming `path` and the first row of `rows` [n, k] holding a
    NaN or Inf, listed as `shown` holds it (default: as `rows` does)."""
    finite = np.isfinite(rows)
    if not finite.all():  # the row-wise all() is several times slower: only on failure
        i = int(np.argmin(finite.all(axis=1)))
        row = (rows if shown is None else shown)[i]
        raise DataError(f"{path}: {what} {i}: non-finite values "
                        f"{np.asarray(row).tolist()}")


def write_frame(frame: PointCloudFrame, path) -> None:
    p, boxes = frame.ego_pose, frame.gt_boxes
    header = (frame.timestamp,) + ((p.x, p.y, p.yaw) if p is not None else ())
    if not all(map(math.isfinite, header)):
        raise DataError(f"{path}: non-finite timestamp or ego pose {header}")
    fields = [b.as_array() for b in boxes]
    with np.errstate(over="ignore"):  # a value past float32 range casts to inf
        pts = np.ascontiguousarray(frame.points, dtype=_POINT_DTYPE)
        fields32 = np.array(fields, dtype=_POINT_DTYPE).reshape(-1, 9)
    _check_finite(path, "point", pts, frame.points)
    _check_finite(path, "box", fields32, fields)
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += struct.pack("<d", frame.timestamp)
    if p is not None:
        buf += struct.pack("<B", 1)
        buf += struct.pack("<3d", p.x, p.y, p.yaw)
    else:
        buf += struct.pack("<B", 0)
    buf += struct.pack("<I", pts.shape[0])
    buf += pts.tobytes()
    buf += struct.pack("<I", len(boxes))
    if boxes:
        rec = np.empty(len(boxes), dtype=_BOX_DTYPE)
        rec["fields"], rec["class_id"] = fields32, [b.class_id for b in boxes]
        buf += rec.tobytes()
    with atomic_file(path, "wb") as f:
        f.write(buf)


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.path = path
        self.off = 0

    def take(self, n):
        if self.off + n > len(self.data):
            raise DataError(f"{self.path}: truncated (needed {n} bytes at "
                            f"offset {self.off}, have {len(self.data)})")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_frame(path) -> PointCloudFrame:
    data = pathlib.Path(path).read_bytes()
    r = _Reader(memoryview(data), path)  # slices of a memoryview do not copy
    if r.take(8) != MAGIC:
        raise DataError(f"{path}: bad magic, not a frame file")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    (timestamp,) = r.unpack("<d")
    if not math.isfinite(timestamp):
        raise DataError(f"{path}: non-finite timestamp {timestamp}")
    (has_pose,) = r.unpack("<B")
    pose = None
    if has_pose == 1:
        xy_yaw = r.unpack("<3d")
        if not all(map(math.isfinite, xy_yaw)):
            raise DataError(f"{path}: non-finite ego pose {xy_yaw}")
        pose = Pose2D(*xy_yaw)
    elif has_pose != 0:
        raise DataError(f"{path}: invalid pose flag {has_pose}")
    (num_points,) = r.unpack("<I")
    # finiteness is checked on the float32 payloads: a cast warns on a signalling NaN
    pts = np.frombuffer(r.take(num_points * 16), dtype=_POINT_DTYPE).reshape(num_points, 4)
    _check_finite(path, "point", pts)
    (num_boxes,) = r.unpack("<I")
    rec = np.frombuffer(r.take(num_boxes * _BOX_DTYPE.itemsize), dtype=_BOX_DTYPE)
    _check_finite(path, "box", rec["fields"])
    boxes = []
    for i in range(num_boxes):
        try:
            boxes.append(Box3D.from_array(rec["fields"][i], rec["class_id"][i]))
        except ConfigError as e:
            raise DataError(f"{path}: box {i}: {e}") from e
    if r.off != len(data):
        raise DataError(f"{path}: {len(data) - r.off} trailing bytes")
    return PointCloudFrame(pts, timestamp, pose, boxes)


def frame_file_name(index: int) -> str:
    return f"frame_{index:06d}.bin"


def write_sequence(seq: SceneSequence, out_dir) -> None:
    """Write the frames and manifest; an OSError is a DataError naming `out_dir`."""
    out = pathlib.Path(out_dir)
    names = [frame_file_name(i) for i in range(len(seq.frames))]
    manifest = {"format": MANIFEST_FORMAT, "version": VERSION,
                "class_names": list(seq.class_names), "frames": names}
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
        for frame, name in zip(seq.frames, names):
            write_frame(frame, out / name)
        with atomic_file(out / MANIFEST_NAME, encoding="utf-8") as f:
            f.write(json.dumps(manifest, indent=2) + "\n")


def read_sequence(data_dir) -> SceneSequence:
    root = pathlib.Path(data_dir)
    mpath = root / MANIFEST_NAME
    if not root.is_dir() or not mpath.is_file():
        raise DataError(f"{data_dir}: not a sequence directory (missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except ValueError as e:  # also bytes that are not UTF-8
        raise DataError(f"{mpath}: invalid JSON manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise DataError(f"{mpath}: manifest is not a JSON object")
    fmt, version = manifest.get("format"), manifest.get("version")
    if fmt != MANIFEST_FORMAT:
        raise DataError(f"{mpath}: manifest format {fmt!r} is not {MANIFEST_FORMAT!r}")
    if type(version) is not int or version != VERSION:  # a JSON true is not 1
        raise DataError(f"{mpath}: unsupported manifest version {version!r}")
    for key in ("class_names", "frames"):
        if key not in manifest:
            raise DataError(f"{mpath}: manifest missing '{key}'")
        value = manifest[key]
        if (not isinstance(value, list) or not value
                or not all(isinstance(v, str) for v in value)):
            raise DataError(f"{mpath}: manifest '{key}' must be a non-empty "
                            f"list of strings, got {value!r}")
    frames = []
    resolved_root = root.resolve()
    for name in manifest["frames"]:
        fpath = root / name
        rel = pathlib.PurePath(name)
        if ("\0" in name or rel.is_absolute() or ".." in rel.parts
                or not fpath.resolve().is_relative_to(resolved_root)):
            raise DataError(f"{mpath}: frame entry {name!r} lies outside "
                            f"the sequence directory")
        if not fpath.is_file():
            raise DataError(f"{data_dir}: manifest lists missing frame {name}")
        frames.append(read_frame(fpath))
    try:
        return SceneSequence(frames, manifest["class_names"])
    except DataError as e:
        raise DataError(f"{mpath}: {e}") from e

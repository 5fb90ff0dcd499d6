"""Scene generation and the binary frame / sequence-directory format."""
import dataclasses
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmfdet.errors import ConfigError, DataError
from fmfdet.frameio import (MAGIC, frame_file_name, read_frame, read_sequence,
                            write_frame, write_sequence)
from fmfdet.geometry import Pose2D, rot2d
from fmfdet.scene import (Box3D, PointCloudFrame, SceneSequence, SceneSpec,
                          generate_scene)

# values that survive the f32 payload exactly
f32_floats = st.floats(-1e4, 1e4, allow_nan=False, width=32).map(float)
f64_floats = st.floats(-1e6, 1e6, allow_nan=False)
positive_f32 = st.floats(0.0625, 50.0, allow_nan=False, width=32).map(float)


def patch_stored(path, fmt, replacements):
    """Overwrite the one stored copy of each key of `replacements`, packed
    with struct format `fmt`, by its value in the file at `path`: the way to
    get a NaN or Inf into a frame file, since write_frame refuses them."""
    raw = path.read_bytes()
    for old, new in replacements.items():
        old, new = struct.pack(fmt, old), struct.pack(fmt, new)
        assert raw.count(old) == 1
        raw = raw.replace(old, new)
    path.write_bytes(raw)


@st.composite
def frames(draw):
    n = draw(st.integers(0, 12))
    pts = [[draw(f32_floats), draw(f32_floats), draw(f32_floats),
            draw(f32_floats)] for _ in range(n)]
    nb = draw(st.integers(0, 4))
    boxes = [Box3D(draw(f32_floats), draw(f32_floats), draw(f32_floats),
                   draw(positive_f32), draw(positive_f32), draw(positive_f32),
                   draw(f32_floats), draw(f32_floats), draw(f32_floats),
                   class_id=draw(st.integers(0, 2)))
             for _ in range(nb)]
    pose = None
    if draw(st.booleans()):
        pose = Pose2D(draw(f64_floats), draw(f64_floats), draw(f64_floats))
    ts = draw(f64_floats)
    arr = np.array(pts, dtype=np.float64).reshape(n, 4)
    return PointCloudFrame(arr, ts, pose, boxes)


class TestFrameFormat:
    @given(frame=frames())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_exact_for_f32_values(self, frame, tmp_path_factory):
        path = tmp_path_factory.mktemp("fr") / "f.bin"
        write_frame(frame, path)
        back = read_frame(path)
        assert back == frame

    def test_file_size_formula(self, tmp_path):
        n, b = 7, 3
        rng = np.random.default_rng(0)
        frame = PointCloudFrame(
            rng.normal(size=(n, 4)), 1.25, Pose2D(1.0, 2.0, 0.5),
            [Box3D(0, 0, 0, 1, 1, 1, 0.0, class_id=0)] * b)
        path = tmp_path / "f.bin"
        write_frame(frame, path)
        expect = 8 + 4 + 8 + 1 + 24 + 4 + 16 * n + 4 + 40 * b
        assert path.stat().st_size == expect

    def test_points_view_the_file_buffer(self, tmp_path):
        """The points are a view of the bytes read from the file: their base
        chain ends in a memoryview of that buffer, with no copied payload."""
        path = tmp_path / "f.bin"
        write_frame(PointCloudFrame(np.ones((10, 4), np.float32), 0.0), path)
        base = read_frame(path).points
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview)
        assert isinstance(base.obj, bytes) and len(base.obj) == path.stat().st_size

    def test_no_pose_shrinks_header(self, tmp_path):
        frame = PointCloudFrame(np.zeros((0, 4)), 0.0, None, [])
        path = tmp_path / "f.bin"
        write_frame(frame, path)
        assert path.stat().st_size == 8 + 4 + 8 + 1 + 4 + 4
        assert read_frame(path).ego_pose is None

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(DataError, match="bad magic"):
            read_frame(path)

    def test_unsupported_version_rejected(self, tmp_path):
        frame = PointCloudFrame(np.zeros((0, 4)), 0.0)
        path = tmp_path / "f.bin"
        write_frame(frame, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="unsupported version 9"):
            read_frame(path)

    def test_truncated_file_rejected(self, tmp_path):
        frame = PointCloudFrame(np.ones((5, 4)), 0.0)
        path = tmp_path / "f.bin"
        write_frame(frame, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError):
            read_frame(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        frame = PointCloudFrame(np.ones((2, 4)), 0.0)
        path = tmp_path / "f.bin"
        write_frame(frame, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataError, match="2 trailing bytes"):
            read_frame(path)

    @pytest.mark.parametrize("field,value", [
        ("timestamp", math.nan), ("timestamp", math.inf), ("pose", math.nan),
        ("cx", math.nan), ("cx", math.inf), ("yaw", math.nan), ("w", math.inf),
        ("point_x", math.inf), ("point_z", -math.inf),
        ("point_intensity", math.nan)])
    def test_non_finite_field_is_format_error(self, tmp_path, field, value):
        """The field is written as a marker that no other field holds, and
        the marker's bytes are then replaced by `value`."""
        box = Box3D(0, 0, 0, 1, 1, 1, 0.0)
        boxes = [box, box]
        ts, pose = 0.5, Pose2D(1.0, 2.0, 0.5)
        points = np.zeros((5, 4))
        mark, patch = 1234.5, {1234.5: value}
        if field == "timestamp":
            ts = mark
        elif field == "pose":
            pose = Pose2D(1.0, mark, 0.5)
        elif field.startswith("point_"):
            points[3, ("x", "y", "z", "intensity").index(field[6:])] = mark
            points[4, 3] = 4321.5
            patch[4321.5] = math.nan
        else:
            boxes[1] = dataclasses.replace(box, **{field: mark})
        path = tmp_path / "f.bin"
        write_frame(PointCloudFrame(points, ts, pose, boxes), path)
        patch_stored(path, "<d" if field in ("timestamp", "pose") else "<f", patch)
        with pytest.raises(DataError, match="non-finite") as err:
            read_frame(path)
        assert str(path) in str(err.value)
        if field.startswith("point_"):
            assert "point 3" in str(err.value)
        elif field not in ("timestamp", "pose"):
            assert "box 1" in str(err.value)

    @pytest.mark.parametrize("field,value", [
        ("point", math.nan), ("point", 1e39), ("point", -math.inf), ("box", math.nan),
        ("box", -1e39), ("timestamp", math.inf), ("pose", math.nan)])
    def test_write_refuses_what_read_would_reject(self, tmp_path, field, value):
        """A NaN, an Inf, or a point or box value past float32 range (stored
        as Inf) is a DataError naming the path, and no file is written."""
        points, boxes = np.zeros((3, 4)), [Box3D(0, 0, 0, 1, 1, 1, 0.0)] * 2
        ts, pose = 0.5, Pose2D(1.0, 2.0, 0.5)
        if field == "point":
            points[1, 2] = value
        elif field == "box":
            boxes[1] = dataclasses.replace(boxes[1], vy=value)
        elif field == "timestamp":
            ts = value
        else:
            pose = Pose2D(1.0, 2.0, value)
        path = tmp_path / "f.bin"
        with pytest.raises(DataError, match=re.escape(str(path))) as err:
            write_frame(PointCloudFrame(points, ts, pose, boxes), path)
        assert not path.exists()
        if field in ("point", "box"):
            assert f"{field} 1: non-finite values" in str(err.value)

    def test_float32_max_round_trips(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        frame = PointCloudFrame(np.full((2, 4), -top), 0.5, None,
                                [Box3D(top, 0, 0, top, 1, 1, 0.0)])
        write_frame(frame, tmp_path / "f.bin")
        assert read_frame(tmp_path / "f.bin") == frame

    @pytest.mark.parametrize("field", ["point", "box"])
    def test_signalling_nan_is_format_error(self, tmp_path, field):
        """A float32 signalling NaN (bits 0x7f800001) is caught before the
        float64 cast, which would warn under the RuntimeWarning filter."""
        snan = struct.pack("<I", 0x7F800001)
        points = [struct.pack("<4f", 0.5, -0.5, 1.0, 0.25)] * 3
        boxes = [struct.pack("<9fI", 0, 0, 0, 1, 1, 1, 0, 0, 0, 0)] * 2
        if field == "point":
            points[1] = snan + points[1][4:]
        else:
            boxes[1] = boxes[1][:24] + snan + boxes[1][28:]  # the yaw field
        raw = (MAGIC + struct.pack("<IdB", 1, 0.5, 0)
               + struct.pack("<I", len(points)) + b"".join(points)
               + struct.pack("<I", len(boxes)) + b"".join(boxes))
        path = tmp_path / "f.bin"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=f"{field} 1: non-finite"):
            read_frame(path)

    def test_magic_is_the_documented_constant(self):
        assert MAGIC == b"FMFPC1\x00\x00"
        assert frame_file_name(7) == "frame_000007.bin"


class TestSequenceDirectory:
    def test_sequence_round_trip(self, tmp_path):
        seq = generate_scene(SceneSpec(seed=11, num_frames=3,
                                       points_per_object=20, clutter_points=5))
        write_sequence(seq, tmp_path / "s")
        back = read_sequence(tmp_path / "s")
        assert back.class_names == seq.class_names
        assert len(back.frames) == 3
        for a, b in zip(back.frames, seq.frames):
            assert a.timestamp == b.timestamp
            assert a.ego_pose == b.ego_pose
            assert np.array_equal(
                a.points, b.points.astype(np.float32).astype(np.float64))

    def test_read_sequence_keeps_float32_points_only(self, tmp_path):
        """A loaded sequence holds the file's 16 B per point: no float64 copy."""
        rng = np.random.default_rng(3)
        frames_ = [PointCloudFrame(rng.normal(size=(26_000, 4)).astype(np.float32),
                                   0.1 * i) for i in range(4)]
        write_sequence(SceneSequence(frames_, ("car",)), tmp_path / "s")
        num_points = 4 * 26_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            seq = read_sequence(tmp_path / "s")
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        for f in seq.frames:
            assert f.points.dtype == np.float32
            assert not f.points.flags.writeable
        assert sum(f.points.nbytes for f in seq.frames) == 16 * num_points
        assert kept <= 1.1 * 16 * num_points
        assert seq == SceneSequence(frames_, ("car",))

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_sequence(tmp_path)

    def test_missing_frame_rejected(self, tmp_path):
        seq = generate_scene(SceneSpec(seed=1, num_frames=2,
                                       points_per_object=10, clutter_points=0))
        write_sequence(seq, tmp_path / "s")
        (tmp_path / "s" / frame_file_name(1)).unlink()
        with pytest.raises(DataError):
            read_sequence(tmp_path / "s")

    @pytest.mark.parametrize("key,value", [
        ("frames", 3), ("frames", [1, 2]), ("frames", []),
        ("class_names", "car"), ("class_names", []), ("class_names", ["car", 1])])
    def test_malformed_manifest_field_is_format_error(self, tmp_path, key, value):
        seq = generate_scene(SceneSpec(seed=1, num_frames=2,
                                       points_per_object=10, clutter_points=0))
        write_sequence(seq, tmp_path / "s")
        mpath = tmp_path / "s" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest[key] = value
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="must be a non-empty list of strings") as err:
            read_sequence(tmp_path / "s")
        assert str(mpath) in str(err.value) and key in str(err.value)

    @pytest.mark.parametrize("case", ["not_utf8", "nul_in_frame_entry"])
    def test_unreadable_manifest_is_format_error(self, tmp_path, case):
        seq = generate_scene(SceneSpec(seed=1, num_frames=2,
                                       points_per_object=10, clutter_points=0))
        write_sequence(seq, tmp_path / "s")
        mpath = tmp_path / "s" / "manifest.json"
        if case == "not_utf8":
            mpath.write_bytes(mpath.read_bytes().replace(b"car", b"c\xe1r"))
        else:
            manifest = json.loads(mpath.read_text())
            manifest["frames"][1] = frame_file_name(1) + "\0"
            mpath.write_text(json.dumps(manifest))
        match = {"not_utf8": "invalid JSON manifest", "nul_in_frame_entry": "lies outside"}
        with pytest.raises(DataError, match=match[case]):
            read_sequence(tmp_path / "s")

    def test_repeated_class_names_are_data_error(self, tmp_path):
        """Detections name their class, so a repeated name would read back
        as the last class that has it."""
        seq = generate_scene(SceneSpec(seed=1, num_frames=2,
                                       points_per_object=10, clutter_points=0))
        with pytest.raises(DataError, match="class names repeat"):
            SceneSequence(seq.frames, ("car", "pedestrian", "car"))
        write_sequence(seq, tmp_path / "s")
        mpath = tmp_path / "s" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["class_names"] = ["car", "car"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="class names repeat"):
            read_sequence(tmp_path / "s")

    @pytest.mark.parametrize("key,value,match", [
        ("version", 2, "unsupported manifest version 2"),
        ("version", True, "unsupported manifest version True"),
        ("version", "1", "unsupported manifest version '1'"),
        ("format", None, "manifest format None is not 'fmf-scene'"),
        ("format", "fmf-scene2", "manifest format 'fmf-scene2'"),
        ("class_names", ["car", "car"], "class names repeat")])
    def test_rejected_manifest_is_named(self, tmp_path, key, value, match):
        """The header write_sequence writes is read back: a format other than
        "fmf-scene" (None: the key is missing) or a version other than the
        integer 1 is rejected. These errors, and SceneSequence's, name the
        manifest, so a run over many sequences says which one is bad."""
        seq = generate_scene(SceneSpec(seed=1, num_frames=2,
                                       points_per_object=10, clutter_points=0))
        write_sequence(seq, tmp_path / "s")
        mpath = tmp_path / "s" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        assert (manifest["format"], manifest["version"]) == ("fmf-scene", 1)
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=re.escape(match)) as err:
            read_sequence(tmp_path / "s")
        assert str(err.value).startswith(f"{mpath}: ")

    @pytest.mark.parametrize("entry", ["absolute", "dotdot", "symlink"])
    def test_frame_entry_outside_directory_is_format_error(self, tmp_path, entry):
        seq = generate_scene(SceneSpec(seed=1, num_frames=2,
                                       points_per_object=10, clutter_points=0))
        write_sequence(seq, tmp_path / "s")
        write_sequence(seq, tmp_path / "sibling")
        outside = tmp_path / "sibling" / frame_file_name(1)
        name = {"absolute": str(outside),
                "dotdot": f"../sibling/{frame_file_name(1)}",
                "symlink": "link.bin"}[entry]
        if entry == "symlink":
            (tmp_path / "s" / name).symlink_to(outside)
        mpath = tmp_path / "s" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["frames"][1] = name
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="lies outside") as err:
            read_sequence(tmp_path / "s")
        assert str(mpath) in str(err.value) and name in str(err.value)

    def test_non_object_manifest_rejected(self, tmp_path):
        d = tmp_path / "s"
        d.mkdir()
        (d / "manifest.json").write_text("3")
        with pytest.raises(DataError, match="not a JSON object"):
            read_sequence(d)

    def test_corrupt_manifest_rejected(self, tmp_path):
        d = tmp_path / "s"
        d.mkdir()
        (d / "manifest.json").write_text("{not json")
        with pytest.raises(DataError, match="invalid JSON manifest"):
            read_sequence(d)


class TestPointDtype:
    """Frames keep float32 and float64 points as given, read-only."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_points_kept_without_copy(self, dtype):
        arr = np.arange(12, dtype=dtype).reshape(3, 4)
        frame = PointCloudFrame(arr, 0.0)
        assert frame.points.dtype == dtype
        assert np.shares_memory(frame.points, arr)

    @pytest.mark.parametrize("points", [np.arange(8).reshape(2, 4),
                                        [[1, 2, 3, 4]],
                                        np.ones((2, 4), dtype=np.float16)])
    def test_other_points_become_float64(self, points):
        frame = PointCloudFrame(points, 0.0)
        assert frame.points.dtype == np.float64
        assert np.array_equal(frame.points, np.asarray(points))

    @pytest.mark.parametrize("points", [[], np.zeros((0, 4), dtype=np.float32),
                                        np.zeros((0, 3))])
    def test_empty_frame_is_0_by_4(self, points):
        assert PointCloudFrame(points, 0.0).points.shape == (0, 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_points_are_read_only_and_caller_array_is_not(self, dtype):
        arr = np.ones((2, 4), dtype=dtype)
        frame = PointCloudFrame(arr, 0.0)
        assert not frame.points.flags.writeable
        with pytest.raises(ValueError):
            frame.points[0, 0] = 2.0
        assert arr.flags.writeable
        arr[0, 0] = 5
        assert arr[0, 0] == 5

    def test_equality_compares_values_across_dtypes(self):
        arr = np.array([[0.5, -1.25, 2.0, 0.75]], dtype=np.float32)
        assert PointCloudFrame(arr, 1.0) == PointCloudFrame(arr.astype(np.float64), 1.0)
        assert PointCloudFrame(arr, 1.0) != PointCloudFrame(arr + np.float32(1), 1.0)


class TestSceneGenerator:
    def test_deterministic_in_seed(self):
        a = generate_scene(SceneSpec(seed=5))
        b = generate_scene(SceneSpec(seed=5))
        assert a == b
        c = generate_scene(SceneSpec(seed=6))
        assert any(not np.array_equal(x.points, y.points)
                   for x, y in zip(a.frames, c.frames))

    def test_box_kinematics_constant_velocity_in_world(self):
        spec = SceneSpec(seed=2, ego_speed=0.7, ego_yaw_rate=0.3)
        seq = generate_scene(spec)
        # frame 0 has the identity pose, so its boxes are already world-frame
        first = seq.frames[0]
        for k, frame in enumerate(seq.frames):
            t = k * spec.dt
            rot = rot2d(frame.ego_pose.yaw)
            for b0, bt in zip(first.gt_boxes, frame.gt_boxes):
                expect_world = (np.array([b0.cx, b0.cy])
                                + np.array([b0.vx, b0.vy]) * t)
                got_world = frame.ego_pose.apply(
                    np.array([[bt.cx, bt.cy]]))[0]
                assert np.allclose(got_world, expect_world, atol=1e-9)
                # velocity vector re-expressed in world frame stays constant
                v_world = rot @ np.array([bt.vx, bt.vy])
                assert np.allclose(v_world, [b0.vx, b0.vy], atol=1e-9)

    def test_object_points_near_their_boxes(self):
        spec = SceneSpec(seed=4, clutter_points=0, points_per_object=60)
        seq = generate_scene(spec)
        frame = seq.frames[0]
        centers = np.array([[b.cx, b.cy] for b in frame.gt_boxes])
        radii = np.array([math.hypot(b.w, b.l) / 2 + 1e-9
                          for b in frame.gt_boxes])
        d = np.linalg.norm(frame.points[:, None, :2] - centers[None], axis=-1)
        assert np.all((d <= radii[None]).any(axis=1))

    def test_separation_respected_every_frame(self):
        spec = SceneSpec(seed=8, num_objects=3, min_separation=3.0)
        seq = generate_scene(spec)
        for frame in seq.frames:
            cs = np.array([[b.cx, b.cy] for b in frame.gt_boxes])
            for i in range(len(cs)):
                for j in range(i + 1, len(cs)):
                    assert np.linalg.norm(cs[i] - cs[j]) >= spec.min_separation - 1e-9

    def test_zero_area_scene_rejected(self):
        with pytest.raises(ConfigError):
            SceneSpec(range=0.0)

    def test_repeated_class_names_rejected(self):
        with pytest.raises(ConfigError, match="class names repeat"):
            SceneSpec(class_names=("car", "car"))

    def test_overcrowded_scene_rejected(self):
        with pytest.raises(ConfigError):
            generate_scene(SceneSpec(range=3.0, margin=2.0, num_objects=8,
                                     min_separation=3.0))

    def test_timestamps_strictly_increasing(self):
        seq = generate_scene(SceneSpec(seed=0))
        ts = [f.timestamp for f in seq.frames]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        with pytest.raises(DataError):
            SceneSequence([PointCloudFrame(np.zeros((0, 4)), 1.0),
                           PointCloudFrame(np.zeros((0, 4)), 1.0)], ("car",))

    def test_ego_arc_matches_unicycle_model(self):
        spec = SceneSpec(seed=0, ego_speed=1.0, ego_yaw_rate=0.5)
        seq = generate_scene(spec)
        p = seq.frames[5].ego_pose
        t = 5 * spec.dt
        assert p.x == pytest.approx((1.0 / 0.5) * math.sin(0.5 * t))
        assert p.y == pytest.approx((1.0 / 0.5) * (1 - math.cos(0.5 * t)))
        assert p.yaw == pytest.approx(0.5 * t)

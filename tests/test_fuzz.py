"""Fuzzers for the four readers: the binary `read_frame` and
`load_checkpoint`, and the text `read_sequence` (manifest.json) and
`read_detections` (detections.jsonl). Truncated files, flipped bits, wrong
types, missing keys and non-finite payloads either load or raise DataError
(exit 3 through the CLI), never anything else, and never a RuntimeWarning
(pytest turns one into an error). The config boundary gets the same
treatment: a TrainConfig or SceneSpec dict with hostile leaves either loads
or raises ConfigError (exit 2), and what loads builds a model or writes a
sequence that reads back equal."""
import dataclasses
import json
import math
import shutil
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fmfdet.config import from_dict, to_dict
from fmfdet.decode import Detection
from fmfdet.errors import ConfigError, DataError
from fmfdet.frameio import (frame_file_name, read_frame, read_sequence, write_frame,
                            write_sequence)
from fmfdet.geometry import Pose2D
from fmfdet.gradcheck import tiny_train_config
from fmfdet.metrics import read_detections, write_detections
from fmfdet.optim import AdamW
from fmfdet.scene import Box3D, PointCloudFrame, SceneSequence, SceneSpec, generate_scene
from fmfdet.train import TrainConfig, build_model, load_checkpoint, save_checkpoint

# example counts keep each fuzzer to about a second
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# one- and two-word patterns: quiet and signalling NaN, +-Inf
NON_FINITE = {4: (0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000),
              8: (0x7FF8000000000000, 0x7FF0000000000001, 0x7FF0000000000000,
                  0xFFF0000000000000)}

mutations = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                                   st.integers(0, 7)),
                                         min_size=1, max_size=4)))


def mutate(raw, mutation):
    """`raw` cut at a fraction of its length, or with bits flipped at
    (fraction of the length, bit) positions."""
    kind, arg = mutation
    if kind == "truncate":
        return raw[:int(arg * len(raw))]
    out = bytearray(raw)
    for where, bit in arg:
        out[int(where * len(out))] ^= 1 << bit
    return bytes(out)


def rejects(load, path):
    """The DataError `load(path)` raises, or None when it loads; any other
    exception fails the test."""
    try:
        load(path)
    except DataError as e:
        return e
    return None


@pytest.fixture(scope="module")
def frame_file(tmp_path_factory):
    """A frame with a pose, 5 points and 2 boxes, and the (offset, width) of
    every float field in its file, after the layout in frameio."""
    rng = np.random.default_rng(0)
    boxes = [Box3D(1.0, 2.0, 0.5, 1.9, 4.4, 1.6, 0.3, 1.0, -0.5, 0),
             Box3D(-3.0, 0.5, 0.4, 0.6, 0.8, 1.7, -1.2, 0.0, 0.2, 1)]
    frame = PointCloudFrame(rng.normal(size=(5, 4)), 0.5, Pose2D(1.0, -2.0, 0.1), boxes)
    path = tmp_path_factory.mktemp("frames") / "frame.bin"
    write_frame(frame, path)
    points = 8 + 4 + 8 + 1 + 24 + 4
    fields = [(12, 8)] + [(21 + 8 * i, 8) for i in range(3)]
    fields += [(points + 4 * i, 4) for i in range(5 * 4)]
    boxes_at = points + 5 * 16 + 4
    fields += [(boxes_at + 40 * b + 4 * i, 4) for b in range(2) for i in range(9)]
    return path, path.read_bytes(), fields


@FUZZ
@given(mutations)
def test_mutated_frame_loads_or_is_rejected(frame_file, mutation):
    path, raw, _ = frame_file
    bad = path.with_name("bad.bin")
    bad.write_bytes(mutate(raw, mutation))
    # every byte of a frame file is read, so a cut one never loads
    assert rejects(read_frame, bad) or mutation[0] != "truncate"


@settings(FUZZ, max_examples=150)
@given(st.data())
def test_non_finite_frame_field_is_format_error(frame_file, data):
    path, raw, fields = frame_file
    offset, width = data.draw(st.sampled_from(fields))
    bits = data.draw(st.sampled_from(NON_FINITE[width]))
    out = bytearray(raw)
    out[offset:offset + width] = bits.to_bytes(width, "little")
    bad = path.with_name("bad.bin")
    bad.write_bytes(bytes(out))
    with pytest.raises(DataError, match="non-finite"):
        read_frame(bad)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    cfg = tiny_train_config()
    path = tmp_path_factory.mktemp("ckpt") / "good.npz"
    model = build_model(cfg, 2)
    save_checkpoint(path, model, cfg, ("car", "pedestrian"),
                    opt=AdamW(model.named_parameters()))
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    return path, path.read_bytes(), arrays


@settings(FUZZ, max_examples=200)
@given(mutations)
def test_mutated_checkpoint_loads_or_is_rejected(checkpoint_file, mutation):
    path, raw, _ = checkpoint_file
    bad = path.with_name("bad.npz")
    bad.write_bytes(mutate(raw, mutation))
    # the zip directory sits at the end, so a cut checkpoint never loads
    assert rejects(load_checkpoint, bad) or mutation[0] != "truncate"


@settings(FUZZ, max_examples=40)
@given(st.data())
def test_non_finite_checkpoint_array_is_format_error(checkpoint_file, data):
    path, _, arrays = checkpoint_file
    key = data.draw(st.sampled_from(sorted(k for k in arrays if k != "opt.t" and
                                           k.startswith(("param.", "buffer.", "opt.")))))
    value = arrays[key].copy()
    value.reshape(-1)[data.draw(st.integers(0, value.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    bad = path.with_name("bad.npz")
    np.savez(bad, **dict(arrays, **{key: value}))
    with pytest.raises(DataError, match="non-finite"):
        load_checkpoint(bad)


@pytest.mark.parametrize("case", ["encrypted_flag", "unclosed_header", "bad_descr"])
def test_garbled_zip_member_is_format_error(checkpoint_file, case):
    """Single-byte corruptions that no random flip is likely to hit: the
    encryption flag of a member (zipfile raises RuntimeError), and a broken
    .npy header in a member longer than zipfile's first 4 KiB read, which
    numpy parses before the CRC check (tokenize's TokenError, SyntaxError)."""
    path, raw, _ = checkpoint_file
    out = bytearray(raw)
    if case == "encrypted_flag":
        out[raw.find(b"PK\x01\x02") + 8] |= 1
    else:
        header = raw.find(b"{'descr'", next(
            zi.header_offset for zi in zipfile.ZipFile(path).infolist() if zi.file_size > 4096))
        if case == "unclosed_header":
            out[raw.find(b"}", header)] = ord(" ")
        else:
            out[raw.find(b"'<f8'", header) + 1] = ord(",")
    bad = path.with_name("bad.npz")
    bad.write_bytes(bytes(out))
    with pytest.raises(DataError, match="not an npz archive"):
        load_checkpoint(bad)


# JSON values of every type, for fields that expect another one
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def sequence_dir(tmp_path_factory):
    """A 2-frame sequence, and a sibling directory holding valid frames that
    a manifest must not reach."""
    rng = np.random.default_rng(1)
    frames = [PointCloudFrame(rng.normal(size=(4, 4)), t, Pose2D(t, 0.0, 0.0),
                              [Box3D(1.0, 2.0, 0.5, 1.9, 4.4, 1.6, 0.3, class_id=1)])
              for t in (0.0, 0.1)]
    root = tmp_path_factory.mktemp("seq")
    write_sequence(SceneSequence(frames, ("car", "pedestrian")), root / "seq")
    write_sequence(SceneSequence(frames, ("car", "pedestrian")), root / "sibling")
    mpath = root / "seq" / "manifest.json"
    return mpath, mpath.read_bytes()


outside_names = st.sampled_from([
    "../sibling/frame_000001.bin", "./../sibling/frame_000000.bin",
    "frame_000000.bin/../../sibling/frame_000001.bin", "/frame_000000.bin", "..", "\0",
    "frame_000000.bin\0"])


@st.composite
def manifest_edits(draw):
    """(manifest dict -> None, a fragment of the DataError message the edited
    manifest must raise, or None when it may load)."""
    kind = draw(st.sampled_from(["drop_key", "retype", "frame", "outside", "classes"]))
    key = draw(st.sampled_from(["class_names", "frames", "format", "version"]))
    value = draw(json_values)
    if kind == "drop_key":
        return (lambda m: m.pop(key)), None
    if kind == "retype":
        return (lambda m: m.__setitem__(key, value)), None
    i = draw(st.integers(0, 1))
    if kind == "frame":
        return (lambda m: m["frames"].__setitem__(i, value)), None
    if kind == "outside":
        name = draw(outside_names)
        return (lambda m: m["frames"].__setitem__(i, name)), "lies outside"
    names = draw(st.lists(st.sampled_from(["car", "pedestrian", "", "truck"]), max_size=4))
    repeated = len(set(names)) < len(names)
    return (lambda m: m.__setitem__("class_names", names)), "class names repeat" if repeated else None


@settings(FUZZ, max_examples=150)
@given(mutations)
def test_mutated_manifest_bytes_load_or_are_rejected(sequence_dir, mutation):
    mpath, raw = sequence_dir
    try:
        mpath.write_bytes(mutate(raw, mutation))
        rejects(read_sequence, mpath.parent)
    finally:
        mpath.write_bytes(raw)


@settings(FUZZ, max_examples=100)
@given(manifest_edits())
def test_edited_manifest_loads_or_is_rejected(sequence_dir, edit):
    """A frame entry outside the directory is always rejected as outside,
    and repeated class names always as repeated."""
    mpath, raw = sequence_dir
    apply, must_raise = edit
    manifest = json.loads(raw)
    apply(manifest)
    try:
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        error = rejects(read_sequence, mpath.parent)
    finally:
        mpath.write_bytes(raw)
    if must_raise is not None:
        assert must_raise in str(error)


@pytest.fixture(scope="module")
def detections_file(tmp_path_factory):
    """Three frames of detections over two classes."""
    frames = [[Detection(Box3D(1.0, -2.0, 0.5, 1.9, 4.4, 1.6, 0.3, 0.5, -0.1, c), 0.9, c)
               for c in (0, 1)], [],
              [Detection(Box3D(0.0, 3.0, 0.4, 0.6, 0.8, 1.7, -1.2), 0.25, 0)]]
    path = tmp_path_factory.mktemp("dets") / "dets.jsonl"
    write_detections(frames, ("car", "pedestrian"), path)
    return path, path.read_bytes()


NUMERIC_FIELDS = ("score", "yaw", "center", "size", "velocity")


def read_three_frames(path):
    frames = read_detections(path, ("car", "pedestrian"), 3)
    for det in (d for frame in frames for d in frame):
        assert 0 <= det.class_id < 2
        assert all(map(math.isfinite, det.box.as_array())) and math.isfinite(det.score)
    return frames


@settings(FUZZ, max_examples=200)
@given(mutations)
def test_mutated_detection_bytes_load_or_are_rejected(detections_file, mutation):
    path, raw = detections_file
    bad = path.with_name("bad.jsonl")
    bad.write_bytes(mutate(raw, mutation))
    rejects(read_three_frames, bad)


@settings(FUZZ, max_examples=200)
@given(st.data())
def test_edited_detection_record_loads_or_is_rejected(detections_file, data):
    """Any value in any field, a dropped key, or a record that is not an
    object; a non-finite number, a string, object or bool in a numeric field,
    an unknown class or a frame outside the sequence is always rejected."""
    path, raw = detections_file
    lines = raw.decode().splitlines()
    ln = data.draw(st.integers(0, len(lines) - 1))
    rec = json.loads(lines[ln])
    key = data.draw(st.sampled_from(sorted(rec)))
    kind = data.draw(st.sampled_from(["any", "drop", "non_finite", "frame", "class",
                                      "not_object"]))
    if kind == "any":
        rec[key] = data.draw(json_values)
    elif kind == "drop":
        del rec[key]
    elif kind == "non_finite":
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        key = data.draw(st.sampled_from(NUMERIC_FIELDS))
        rec[key] = bad if not isinstance(rec[key], list) else [bad] + rec[key][1:]
    elif kind == "frame":
        rec["frame"] = data.draw(st.sampled_from([-1, 3, 2 ** 63, -2 ** 70]))
    elif kind == "class":
        rec["class"] = data.draw(st.sampled_from(["truck", "Car", "", "car "]))
    else:
        rec = data.draw(json_values.filter(lambda v: not isinstance(v, dict)))
    lines[ln] = json.dumps(rec)
    bad = path.with_name("bad.jsonl")
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    error = rejects(read_three_frames, bad)
    if kind in ("non_finite", "frame", "class", "not_object") or (
            kind == "any" and key in NUMERIC_FIELDS and isinstance(rec[key], (str, dict, bool))):
        assert isinstance(error, DataError)


def config_trees():
    """The TrainConfig and SceneSpec defaults, every section in them, and
    every section class's own defaults: each config a dict can reach."""
    todo, out = [TrainConfig(), SceneSpec()], []
    while todo:
        cfg = todo.pop()
        out.append(cfg)
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if dataclasses.is_dataclass(value):
                todo += [value, type(value)()]
    return out


def test_tuple_defaults_are_nonempty_and_homogeneous():
    """`coerce` checks every element of a tuple against its first one."""
    for cfg in config_trees():
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, tuple):
                assert value and len({type(v) for v in value}) == 1, (
                    f"{type(cfg).__name__}.{f.name} = {value!r}")


# wrong types, NaN, +-Inf, huge numbers, negatives, wrong lengths and nested
# lists, mixed with values some field takes, so that some dicts load
LEAF_VALUES = [math.nan, math.inf, -math.inf, 10 ** 400, 2 ** 63, 1e39, -1e300, -1, -0.5,
               True, "x", "", None, {}, [], [[1.0, 2.0]], [math.nan], ["car", "car"],
               0, 0.5, 1, 2.0, 3, 7, 16, 64, [1.0], [0.5, 1.0, 2.0], [-6.4, 6.4],
               [0.32, 0.32, 6.0], [8, 16], ["car"]]


def leaf_paths(tree, prefix=()):
    """Key paths to every leaf of a to_dict tree: each scalar, each list, and
    each list element."""
    for key, value in tree.items():
        path = prefix + (key,)
        if isinstance(value, dict):
            yield from leaf_paths(value, path)
        else:
            yield path
            if isinstance(value, list):
                yield from (path + (i,) for i in range(len(value)))


@st.composite
def hostile_dicts(draw, default):
    """to_dict(default) with one to three leaves replaced by LEAF_VALUES;
    a path whose list an earlier replacement removed is skipped."""
    tree = to_dict(default)
    for path in draw(st.lists(st.sampled_from(list(leaf_paths(tree))), min_size=1,
                              max_size=3)):
        parent = tree
        for key in path[:-1]:
            parent = parent[key] if isinstance(parent, dict) else None
        if isinstance(parent, dict) or (isinstance(parent, list) and path[-1] < len(parent)):
            parent[path[-1]] = draw(st.sampled_from(LEAF_VALUES))
    return tree


def loads_or_none(cls, tree):
    """from_dict(cls, tree), or None on a ConfigError; any other exception
    fails the test."""
    try:
        return from_dict(cls, tree)
    except ConfigError:
        return None


@settings(FUZZ, max_examples=250)
@given(hostile_dicts(TrainConfig()))
def test_hostile_train_config_loads_or_is_rejected(tree):
    """An accepted config builds its model, or fails with a ConfigError (e.g.
    a grid the neck's stride does not divide). build_model allocates the
    parameters and no map, so a model is built only when widths <= 64, the
    fusion kernel <= 5 and neck stages <= 4 bound it to a few MB."""
    cfg = loads_or_none(TrainConfig, tree)
    if cfg is None:
        return
    b = cfg.backbone
    widths = (b.pfn_channels, b.out_channels, cfg.head_channels, *b.neck_channels)
    if max(widths) > 64 or cfg.fmf.kernel_size > 5 or len(b.neck_channels) > 4:
        return
    try:
        build_model(cfg, 2)
    except ConfigError:
        pass


def stored(seq):
    """`seq` as a frame file keeps it: points and box fields in float32."""
    return SceneSequence(
        [PointCloudFrame(f.points.astype(np.float32), f.timestamp, f.ego_pose,
                         [Box3D.from_array(b.as_array().astype(np.float32), b.class_id)
                          for b in f.gt_boxes]) for f in seq.frames], seq.class_names)


COUNT_FIELDS = ("num_frames", "num_objects", "points_per_object", "clutter_points")


@st.composite
def hostile_specs(draw):
    """hostile_dicts(SceneSpec()), with one count sometimes set to a large
    integer: anywhere up to 2**70, or at a frame file's limits."""
    tree = draw(hostile_dicts(SceneSpec()))
    if draw(st.booleans()):
        tree[draw(st.sampled_from(COUNT_FIELDS))] = draw(
            st.integers(0, 2 ** 70) | st.sampled_from([10 ** 6, 10 ** 6 + 1, 2 ** 32 - 1,
                                                        2 ** 32]))
    return tree


@settings(FUZZ, max_examples=150)
@given(hostile_specs())
def test_accepted_scene_spec_round_trips(tmp_path_factory, tree):
    """Every spec from_dict accepts fits a frame file: its frames have
    six-digit names and the most points (points_per_object + 5 per object,
    plus clutter) and boxes a frame can get fit uint32 counts. It generates
    a scene that write_sequence -> read_sequence returns equal (to float32
    storage), unless the generator cannot place the objects, its one
    documented ConfigError. Specs past the default's frame, object and point
    counts are not generated."""
    spec = loads_or_none(SceneSpec, tree)
    if spec is None:
        return
    assert len(frame_file_name(spec.num_frames - 1)) == len(frame_file_name(0))
    struct.pack("<II", spec.num_objects * (spec.points_per_object + 5) + spec.clutter_points,
                spec.num_objects)
    if max(getattr(spec, name) for name in COUNT_FIELDS) > 140:
        return
    try:
        seq = generate_scene(spec)
    except ConfigError as e:
        assert "could not place objects" in str(e)
        return
    out = tmp_path_factory.getbasetemp() / "spec_round_trip"
    shutil.rmtree(out, ignore_errors=True)
    write_sequence(seq, out)
    assert read_sequence(out) == stored(seq)

"""Fuzzers for the two binary readers, `read_frame` and `load_checkpoint`:
truncated files, flipped bits and non-finite payloads either load or raise
DataError / FormatError (exit 3 through the CLI), never anything else, and
never a RuntimeWarning (pytest turns one into an error)."""
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fmfdet.errors import DataError, FormatError
from fmfdet.frameio import read_frame, write_frame
from fmfdet.geometry import Pose2D
from fmfdet.gradcheck import tiny_train_config
from fmfdet.scene import Box3D, PointCloudFrame
from fmfdet.train import build_model, load_checkpoint, save_checkpoint

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


def loads(load, path):
    """Whether `load(path)` succeeds; DataError and FormatError read False."""
    try:
        load(path)
    except (DataError, FormatError):
        return False
    return True


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
    assert not (loads(read_frame, bad) and mutation[0] == "truncate")


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
    with pytest.raises(FormatError, match="non-finite"):
        read_frame(bad)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    cfg = tiny_train_config()
    path = tmp_path_factory.mktemp("ckpt") / "good.npz"
    save_checkpoint(path, build_model(cfg, 2), cfg, ("car", "pedestrian"))
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
    assert not (loads(load_checkpoint, bad) and mutation[0] == "truncate")


@settings(FUZZ, max_examples=40)
@given(st.data())
def test_non_finite_checkpoint_array_is_format_error(checkpoint_file, data):
    path, _, arrays = checkpoint_file
    key = data.draw(st.sampled_from(sorted(k for k in arrays
                                           if k.startswith(("param.", "buffer.")))))
    value = arrays[key].copy()
    value.reshape(-1)[data.draw(st.integers(0, value.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    bad = path.with_name("bad.npz")
    np.savez(bad, **dict(arrays, **{key: value}))
    with pytest.raises(FormatError, match="non-finite"):
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
    with pytest.raises(FormatError, match="not an npz archive"):
        load_checkpoint(bad)

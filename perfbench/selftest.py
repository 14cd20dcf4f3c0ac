"""Tests of the benchmark's own code: encoders, checks and summaries.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the program's own test run.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def reference_unfilter(data: bytes) -> np.ndarray:
    """Decode an 8-bit gray or RGB PNG byte by byte, as PNG spec 9.2 states."""
    pos, idat = 8, b""
    while pos < len(data):
        length, ctype = struct.unpack(">I4s", data[pos : pos + 8])
        body = data[pos + 8 : pos + 8 + length]
        assert struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])[0] == zlib.crc32(ctype + body)
        if ctype == b"IHDR":
            width, height, _, color = struct.unpack(">IIBB", body[:10])
        elif ctype == b"IDAT":
            idat += body
        pos += 12 + length
    bpp = 1 if color == 0 else 3
    stride = width * bpp
    raw = zlib.decompress(idat)
    rows, prior = [], [0] * stride
    for y in range(height):
        ftype = raw[y * (stride + 1)]
        line = list(raw[y * (stride + 1) + 1 : (y + 1) * (stride + 1)])
        for i in range(stride):
            a = line[i - bpp] if i >= bpp else 0
            b = prior[i]
            c = prior[i - bpp] if i >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            line[i] = (line[i] + pred) & 0xFF
        rows.append(line)
        prior = line
    out = np.array(rows, dtype=np.uint8)
    return out if bpp == 1 else out.reshape(height, width, 3)


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(7, 9), (6, 5, 3)])
def test_png_round_trip_per_filter(ftype, shape):
    rng = np.random.default_rng(ftype)
    pixels = rng.integers(0, 256, shape, dtype=np.uint8)
    data = gen.encode_png(pixels, [ftype] * shape[0])
    assert np.array_equal(reference_unfilter(data), pixels)


def test_png_round_trip_filter_cycle():
    frame = gen.make_frame(gen.FrameSpec(64, 48, True, "png"), np.random.default_rng(3))
    assert np.array_equal(reference_unfilter(gen.encode_png(frame.pixels)), frame.pixels)


def test_frame_round_is_seeded():
    a, b = gen.frame_round(5)[0], gen.frame_round(5)[0]
    assert np.array_equal(a.pixels, b.pixels) and np.array_equal(a.bumps, b.bumps)
    assert not np.array_equal(a.pixels, gen.frame_round(6)[0].pixels)


def test_pixel_check_rejects_one_flipped_pixel():
    encoded = np.random.default_rng(0).integers(0, 256, (12, 10), dtype=np.uint8)
    decoded = np.repeat(encoded[:, :, None], 3, axis=2)
    assert checks.check_pixels(decoded, encoded) == []
    decoded[4, 7, 1] ^= 0xFF
    assert checks.check_pixels(decoded, encoded)


def test_blob_check_rejects_a_dropped_blob():
    mask = np.random.default_rng(1).random((40, 30)) < 0.45
    table = checks.blob_table(mask)
    assert len(table) > 2
    assert checks.check_blobs(table[::-1], mask) == []
    assert checks.check_blobs(table[1:], mask)
    moved = table.copy()
    moved[0, 5] += 1e-6
    assert checks.check_blobs(moved, mask)


def test_blob_table_on_a_known_mask():
    mask = np.zeros((5, 6), dtype=bool)
    mask[1:3, 1:4] = True  # 6 pixels
    mask[4, 5] = True
    mask[3, 4] = True  # diagonal to (4, 5): a separate component
    table = checks.blob_table(mask)
    rows = sorted(map(tuple, table.tolist()))
    assert rows == [(1, 4, 3, 4, 3, 4.0, 3.0), (1, 5, 4, 5, 4, 5.0, 4.0), (6, 1, 1, 3, 2, 2.0, 1.5)]


def _similarity_h(angle: float, scale: float, size: int = gen.OBJECT_SIZE) -> np.ndarray:
    corners = np.array([[0.0, 0.0], [size - 1.0, 0.0], [0.0, size - 1.0], [size - 1.0, size - 1.0]])
    dst = gen.similarity(corners, size, angle, scale)
    # Exact 3x3 matrix of the similarity about the image centre.
    t = math.radians(angle)
    c0 = (size - 1) / 2.0
    rs = scale * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    h = np.eye(3)
    h[:2, :2] = rs
    h[:2, 2] = c0 - rs @ np.array([c0, c0])
    assert np.allclose((np.c_[corners, np.ones(4)] @ h.T)[:, :2], dst)
    return h


def test_view_check_rejects_swapped_id_and_shifted_homography():
    grid = np.stack(np.meshgrid(np.linspace(46, 209, 4), np.linspace(46, 209, 4)), axis=-1).reshape(-1, 2)
    h = _similarity_h(12.0, 0.9)
    truth = gen.similarity(grid, gen.OBJECT_SIZE, 12.0, 0.9)
    info = {"name": "Object 3", "info": "plate"}
    assert checks.check_view("obj003", info, h, "obj003", info, grid, truth) == []
    assert checks.check_view("obj004", info, h, "obj003", info, grid, truth)
    assert checks.check_view("obj003", {"name": "Object 4", "info": "plate"}, h, "obj003", info, grid, truth)
    shifted = h.copy()
    shifted[0, 2] += 10.0
    assert checks.check_view("obj003", info, shifted, "obj003", info, grid, truth)


def test_negative_check():
    assert checks.check_negative("unrecognized", None, "unrecognized") == []
    assert checks.check_negative("obj001", {"name": "n", "info": "i"}, "unrecognized")


def test_catalog_check_rejects_a_missing_record():
    want = [(gen.record_id(k), gen.record_name(k), gen.record_info(k)) for k in range(3)]
    objects = [
        {"id": i, "name": n, "info": t, "keypoints": [{}], "descriptors": [[0.125] * 64]} for i, n, t in want
    ]
    doc = {"version": 1, "objects": objects}
    assert checks.check_catalog(json.dumps(doc).encode(), want) == []
    doc["objects"] = objects[:1] + objects[2:]
    assert checks.check_catalog(json.dumps(doc).encode(), want)


def test_keypoint_check():
    xy = np.array([[3.0, 4.0], [10.0, 2.5]])
    signs = np.array([1, -1])
    desc = np.zeros((2, 64))
    desc[0, 0] = 1.0
    args = (xy, signs, np.array([0.5, 6.0]), np.array([2.0, 1.0]), desc, signs, 20, 10)
    assert checks.check_keypoints(*args) == []
    assert checks.check_keypoints(xy, signs, np.array([0.5, 2 * math.pi]), *args[3:])
    assert checks.check_keypoints(xy, signs, args[2], np.array([1.0, 2.0]), *args[4:])
    assert checks.check_keypoints(*args[:6], 10, 10)
    half = desc.copy()
    half[0, 0] = 0.5
    assert checks.check_keypoints(*args[:4], half, *args[5:])


def test_bump_recall():
    bumps = np.array([[10.0, 10.0, 3.0, 60.0], [50.0, 50.0, 3.0, -60.0]])
    assert checks.bump_recall(np.array([[11.0, 12.0]]), bumps) == 0.5
    assert checks.bump_recall(np.array([[11.0, 12.0], [52.0, 51.0]]), bumps) == 1.0


def test_summaries_on_fixed_numbers():
    assert run.summarize([4.0, 1.0, 3.0, 2.0]) == (2.5, 0.4)
    p50, rate = run.summarize([0.5, 0.25, 1.0])
    assert p50 == 0.5 and rate == pytest.approx(3 / 1.75, rel=1e-15)


def test_self_times():
    # span 0 holds spans 1 and 2; span 1 holds span 3; span 4 stands alone
    duration = np.array([10.0, 4.0, 3.0, 1.5, 2.0])
    parent = np.array([-1, 0, 0, 1, -1])
    assert tracing.self_times(duration, parent).tolist() == [3.0, 2.5, 3.0, 1.5, 2.0]

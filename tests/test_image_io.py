"""PPM codec round trips and native PNG decoding (including scanline filters)."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from arfex.errors import ParseError
from arfex.image import RasterImage
from arfex import image_io
from arfex.image_io import MAX_PNG_PIXELS, read_image, write_ppm
from conftest import random_raster


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + ctype
        + payload
        + struct.pack(">I", zlib.crc32(ctype + payload))
    )


def encode_png(pixels: np.ndarray, filters=None, color=None) -> bytes:
    """Minimal PNG encoder for test fixtures; per-row filter types selectable."""
    if pixels.ndim == 2:
        h, w = pixels.shape
        channels, ctype = 1, 0
    else:
        h, w, channels = pixels.shape
        ctype = 2
    if color is not None:
        ctype = color
    filters = filters or [0] * h
    bpp = channels
    raw = bytearray()
    prev = np.zeros(w * channels, dtype=np.int32)
    for y in range(h):
        line = pixels[y].reshape(-1).astype(np.int32)
        f = filters[y]
        raw.append(f)
        enc = line.copy()
        for i in range(len(line)):
            a = line[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            enc[i] = (line[i] - pred) & 0xFF
        raw.extend(enc.astype(np.uint8).tobytes())
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(bytes(raw)))
        + _png_chunk(b"IEND", b"")
    )


def test_ppm_p6_round_trip(tmp_path, rng):
    img = random_raster(rng, 13, 7)
    path = tmp_path / "x.ppm"
    write_ppm(img, path)
    back = read_image(path)
    assert np.array_equal(back.pixels, img.pixels)


def test_ppm_p5_grayscale(tmp_path, rng):
    levels = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
    data = b"P5\n9 5\n255\n" + levels.tobytes()
    path = tmp_path / "g.pgm"
    path.write_bytes(data)
    img = read_image(path)
    assert (img.width, img.height) == (9, 5)
    assert np.array_equal(img.pixels[:, :, 0], levels)
    assert np.array_equal(img.pixels[:, :, 1], levels)


def test_ppm_header_comments_and_whitespace(tmp_path):
    data = b"P6 # a comment\n# another\n  2\t1 # dims\n255\n" + bytes(6)
    path = tmp_path / "c.ppm"
    path.write_bytes(data)
    img = read_image(path)
    assert (img.width, img.height) == (2, 1)


@pytest.mark.parametrize(
    "data",
    [
        b"P6\n2 2\n65535\n" + bytes(24),  # wrong maxval
        b"P6\n2 2\n255\n" + bytes(5),  # truncated pixels
        b"P6\n2\n",  # truncated header
        b"P6\n-1 2\n255\n",  # bad token
        b"GIF89a whatever",  # unknown magic
    ],
)
def test_bad_image_files_raise_parse_error(tmp_path, data):
    path = tmp_path / "bad.img"
    path.write_bytes(data)
    with pytest.raises(ParseError):
        read_image(path)


@pytest.mark.parametrize("filters", [[0, 0, 0, 0], [1, 2, 3, 4], [4, 4, 4, 4], [3, 1, 4, 2]])
def test_png_rgb_all_filter_types(tmp_path, rng, filters):
    pixels = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    path = tmp_path / "f.png"
    path.write_bytes(encode_png(pixels, filters=filters))
    img = read_image(path)
    assert np.array_equal(img.pixels, pixels)


def test_png_grayscale(tmp_path, rng):
    levels = rng.integers(0, 256, size=(8, 5), dtype=np.uint8)
    path = tmp_path / "g.png"
    path.write_bytes(encode_png(levels, filters=[0, 1, 2, 3, 4, 1, 2, 4]))
    img = read_image(path)
    assert np.array_equal(img.pixels[:, :, 0], levels)
    assert np.array_equal(img.pixels[:, :, 2], levels)


def reference_unfilter(raw: bytes, width: int, height: int, bpp: int) -> list[list[int]]:
    """Reconstruct filtered scanlines byte by byte, as PNG spec 9.2 states."""
    stride = width * bpp
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
            line[i] = (line[i] + pred) % 256
        rows.append(line)
        prior = line
    return rows


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("width", [1, 7, 33])
def test_png_gray_each_filter_type_matches_reference(tmp_path, rng, ftype, width):
    # The first row has a zero prior row; a bright/dark pair of rows makes
    # Average and Paeth wrap past 255.
    levels = rng.integers(0, 256, size=(6, width), dtype=np.uint8)
    levels[2] = 255
    levels[3] = 0
    data = encode_png(levels, filters=[ftype] * 6)
    path = tmp_path / "g.png"
    path.write_bytes(data)
    # IDAT payload: after the signature (8 bytes), the IHDR chunk (25) and
    # the IDAT length and type (8); before the IDAT CRC (4) and IEND (12).
    raw = zlib.decompress(data[8 + 25 + 8 : -4 - 12])
    want = reference_unfilter(raw, width, 6, 1)
    img = read_image(path)
    assert img.pixels[:, :, 0].tolist() == want
    assert np.array_equal(img.pixels[:, :, 0], levels)


def _filtered_rows(filters, width: int, bpp: int, bright, seed: int) -> bytes:
    """Filter-type byte plus `width * bpp` data bytes per row: `bright` rows of
    255 then rows of 0 when `bright` is set, else bytes drawn from `seed`."""
    height = len(filters)
    if bright is None:
        rows = np.random.default_rng(seed).integers(0, 256, (height, width * bpp + 1), dtype=np.uint8)
    else:
        rows = np.zeros((height, width * bpp + 1), dtype=np.uint8)
        rows[:bright] = 255
    rows[:, 0] = filters
    return rows.tobytes()


def _decoded_rows(path, raw: bytes, width: int, height: int, bpp: int) -> list[list[int]]:
    path.write_bytes(_png_with_header(width, height, zlib.compress(raw), color=0 if bpp == 1 else 2))
    pixels = read_image(path).pixels
    return (pixels[:, :, 0] if bpp == 1 else pixels.reshape(height, -1)).tolist()


@st.composite
def filter_layouts(draw):
    """Per-row filter types: one type for every row, the None-Sub-Up-Average-
    Paeth cycle, runs of random length, or each row drawn on its own."""
    height = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(("one", "cycle", "runs", "each")))
    if kind == "one":
        return [draw(st.integers(0, 4))] * height
    if kind == "cycle":
        return [y % 5 for y in range(height)]
    if kind == "runs":
        filters = []
        while len(filters) < height:
            filters += [draw(st.integers(0, 4))] * draw(st.integers(1, 20))
        return filters[:height]
    return draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    filters=filter_layouts(),
    width=st.integers(1, 64),
    bpp=st.sampled_from((1, 3)),
    bright=st.none() | st.integers(0, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_png_rows_match_reference_unfilter(file_path, filters, width, bpp, bright, seed):
    height = len(filters)
    raw = _filtered_rows(filters, width, bpp, bright, seed)
    assert _decoded_rows(file_path, raw, width, height, bpp) == reference_unfilter(raw, width, height, bpp)


# Layouts that give the wavefront sweep one long chain, many one-row chains,
# Up rows inside chains, and chains of unequal length after an Up run.
SWEEP_CASES = [
    # (filters, width, bpp)
    ([4] * 80, 64, 1),
    ([3] * 80, 64, 3),
    ([y % 5 for y in range(80)], 64, 3),
    ([1, 4] * 40, 64, 1),
    ([0, 3, 2, 4, 3] * 16, 17, 3),
    ([1, 4, 4, 4, 2, 3, 0, 2, 2, 4] * 8, 23, 1),
]


@pytest.mark.parametrize("filters, width, bpp", SWEEP_CASES)
@pytest.mark.parametrize("bright", [None, 40])
@pytest.mark.parametrize("values", [1, 4000, image_io.SWEEP_VALUES])
def test_png_sweep_in_bands_and_batches_matches_reference(tmp_path, monkeypatch, filters, width, bpp, bright, values):
    # A small SWEEP_VALUES cuts chains into bands of a few levels (one level
    # at 1) and sweeps a band's chains in several batches.
    monkeypatch.setattr(image_io, "SWEEP_VALUES", values)
    height = len(filters)
    raw = _filtered_rows(filters, width, bpp, bright, seed=height * width)
    assert _decoded_rows(tmp_path / "rows.png", raw, width, height, bpp) == reference_unfilter(raw, width, height, bpp)


@pytest.mark.parametrize("filters, sweeps", [([4] * 80, 14), ([1, 4] * 40, 7)])
def test_png_small_sweep_budget_splits_the_sweep(tmp_path, monkeypatch, filters, sweeps):
    # 64 gray pixels and 4000 values: 12 columns a sweep, bands of 6 levels.
    # An 80-row chain takes 14 bands; 40 one-row chains need 2 columns each.
    calls = []
    sweep = image_io._sweep
    monkeypatch.setattr(image_io, "SWEEP_VALUES", 4000)
    monkeypatch.setattr(image_io, "_sweep", lambda out, starts, lengths, *args: calls.append(lengths) or sweep(out, starts, lengths, *args))
    raw = _filtered_rows(filters, 64, 1, None, seed=3)
    assert _decoded_rows(tmp_path / "rows.png", raw, 64, 80, 1) == reference_unfilter(raw, 64, 80, 1)
    assert len(calls) == sweeps
    assert max(len(n) + n.sum() for n in calls) <= 12 + 6 + 1
    assert max(n.max() for n in calls) <= 6


def test_png_sweep_memory_is_bounded(tmp_path, monkeypatch):
    # 256 one-row Paeth chains of 512 RGB pixels.  Besides the file, the
    # inflated rows and the output, the sweep holds at most about
    # 1.5 * SWEEP_VALUES int32 values; one sweep of all rows would hold
    # 3.2 MB.
    monkeypatch.setattr(image_io, "SWEEP_VALUES", 1 << 16)
    width = height = 512
    raw = _filtered_rows([1, 4] * (height // 2), width, 3, None, seed=5)
    data = _png_with_header(width, height, zlib.compress(raw, 1), color=2)
    path = tmp_path / "big.png"
    path.write_bytes(data)
    read_image(path)  # builds the cached predictor table
    tracemalloc.start()
    try:
        read_image(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(data) + 2 * len(raw) + 8 * image_io.SWEEP_VALUES


def test_valid_fuzz_file_with_chains_decodes(tmp_path):
    path = tmp_path / "chains.png"
    path.write_bytes(VALID_FILES[3])
    assert np.array_equal(read_image(path).pixels, CHAIN_PIXELS)


@pytest.mark.parametrize("bad", [{6: 5}, {3: 255, 5: 7}])
def test_png_unknown_filter_type_rejected_before_any_row(tmp_path, bad):
    # Type 5 on the last row; 255 on a middle row and 7 on a later one.  The
    # error names the first bad row's type.
    filters = [4, 3, 2, 1, 4, 3, 0]
    for row, ftype in bad.items():
        filters[row] = ftype
    path = tmp_path / "t.png"
    path.write_bytes(_png_with_header(5, 7, zlib.compress(_filtered_rows(filters, 5, 3, None, seed=1)), color=2))
    with pytest.raises(ParseError, match=f"unknown PNG filter type {bad[min(bad)]}$"):
        read_image(path)


def flip_chunk_byte(data: bytes, ctype: bytes, offset: int) -> bytes:
    """Invert one payload byte of the first `ctype` chunk, keeping its old CRC."""
    at = data.index(ctype) + 4 + offset
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]


@pytest.mark.parametrize("ctype, offset", [(b"IHDR", 12), (b"IHDR", 0), (b"IDAT", 5)])
def test_png_critical_chunk_with_stale_crc_rejected(tmp_path, rng, ctype, offset):
    data = encode_png(rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8), filters=[0, 1, 2, 3, 4, 0])
    path = tmp_path / "crc.png"
    path.write_bytes(data)
    read_image(path)
    path.write_bytes(flip_chunk_byte(data, ctype, offset))
    with pytest.raises(ParseError, match=f"PNG {ctype.decode()} chunk fails its CRC"):
        read_image(path)


def test_png_ancillary_chunk_crc_not_checked(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
    data = encode_png(pixels)
    text = struct.pack(">I", 4) + b"tEXt" + b"a\x00bc" + b"\x00\x00\x00\x00"  # wrong CRC
    at = 8 + 25  # after the IHDR chunk
    path = tmp_path / "anc.png"
    path.write_bytes(data[:at] + text + data[at:])
    assert np.array_equal(read_image(path).pixels[:, :, 0], pixels)


def _png_with_header(width: int, height: int, idat: bytes, color: int = 0) -> bytes:
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b"")
    )


def test_png_decompression_bomb_rejected_without_inflating(tmp_path):
    # 50 MB of zero bytes compress to about 49 kB; the 16x16 header needs 272.
    bomb = zlib.compress(bytes(50_000_000), 9)
    path = tmp_path / "bomb.png"
    path.write_bytes(_png_with_header(16, 16, bomb))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="wrong length"):
            read_image(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_png_pixel_cap(tmp_path):
    path = tmp_path / "huge.png"
    path.write_bytes(_png_with_header(100_000, 100_000, zlib.compress(b"\x00")))
    with pytest.raises(ParseError, match="exceeds"):
        read_image(path)
    # A header at the cap passes the cap and fails on its short stream.
    path.write_bytes(_png_with_header(MAX_PNG_PIXELS // 4096, 4096, zlib.compress(b"\x00")))
    with pytest.raises(ParseError, match="wrong length"):
        read_image(path)


@pytest.mark.parametrize("magic", [b"P5", b"P6"])
@pytest.mark.parametrize("width, height", [(4096, MAX_PNG_PIXELS // 4096 + 1), (100_000, 100_000)])
def test_ppm_pixel_cap(tmp_path, magic, width, height):
    # The file holds a few pixel bytes, far fewer than the header declares.
    path = tmp_path / "huge.ppm"
    path.write_bytes(b"%s\n%d %d\n255\n" % (magic, width, height) + bytes(6))
    with pytest.raises(ParseError, match=f"PPM {width}x{height} exceeds {MAX_PNG_PIXELS} pixels"):
        read_image(path)


def test_ppm_header_at_the_pixel_cap_fails_on_its_short_data(tmp_path):
    path = tmp_path / "cap.ppm"
    path.write_bytes(b"P5\n4096 %d\n255\n" % (MAX_PNG_PIXELS // 4096) + bytes(6))
    with pytest.raises(ParseError, match="truncated PPM pixel data"):
        read_image(path)


def test_png_stream_without_end_rejected(tmp_path):
    # All pixel bytes present, but the zlib stream stops before its checksum.
    raw = bytes([0, 1, 2, 3, 0, 4, 5, 6])
    path = tmp_path / "cut.png"
    path.write_bytes(_png_with_header(3, 2, zlib.compress(raw)[:-4]))
    with pytest.raises(ParseError):
        read_image(path)


def test_png_unsupported_color_type_rejected(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8)
    path = tmp_path / "p.png"
    path.write_bytes(encode_png(pixels, color=3))  # palette
    with pytest.raises(ParseError):
        read_image(path)


def test_png_truncated_stream_rejected(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    data = encode_png(pixels)
    path = tmp_path / "t.png"
    path.write_bytes(data[:40])
    with pytest.raises(ParseError):
        read_image(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_image(tmp_path / "nope.ppm")


@pytest.mark.parametrize("size", [0, 4, 12, 14])
def test_png_header_of_wrong_length_rejected(tmp_path, size):
    ihdr = (struct.pack(">IIBBBBB", 4, 3, 8, 0, 0, 0, 0) + b"\x00")[:size]
    path = tmp_path / "h.png"
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IEND", b""))
    with pytest.raises(ParseError, match="IHDR"):
        read_image(path)


def test_ppm_header_values_of_thousands_of_digits_rejected(tmp_path):
    path = tmp_path / "d.ppm"
    for data in (b"P6\n" + b"9" * 5000 + b" 1\n255\n", b"P5\n2 1\n" + b"1" * 21 + b"\n\x00\x00"):
        path.write_bytes(data)
        with pytest.raises(ParseError, match="bad PPM header token"):
            read_image(path)
    # Leading zeros do not count, however many there are.
    path.write_bytes(b"P5\n" + b"0" * 5000 + b"2 01\n00255\n\x07\x09")
    assert read_image(path).pixels[:, :, 0].tolist() == [[7, 9]]


# --- any file bytes: a RasterImage or a ParseError ---------------------------

# 12 rows of 4 RGB pixels: Paeth and Average chains of one, two and three
# rows, from the top, after a Sub row and after an Up run, one with an Up row.
CHAIN_PIXELS = (np.arange(12 * 4 * 3) * 37 % 256).astype(np.uint8).reshape(12, 4, 3)
VALID_FILES = (
    encode_png(np.arange(12, dtype=np.uint8).reshape(3, 4) * 20),
    encode_png(np.arange(18, dtype=np.uint8).reshape(2, 3, 3) * 13, filters=[3, 4]),
    encode_png(np.arange(12, dtype=np.uint8).reshape(3, 4), filters=[1, 2, 4]),
    encode_png(CHAIN_PIXELS, filters=[4, 3, 1, 3, 4, 2, 0, 4, 1, 2, 3, 4]),
    b"P6\n2 2\n255\n" + bytes(range(12)),
    b"P5 # comment\n3 2\n255\n" + bytes(range(6)),
)


def _with_fresh_crcs(data: bytearray) -> bytearray:
    """Rewrite the CRC of every whole PNG chunk, so that a mutated chunk gets
    past the CRC check to the parser behind it."""
    pos = 8
    while pos + 12 <= len(data):
        end = pos + 8 + int.from_bytes(data[pos : pos + 4], "big")
        if end + 4 > len(data):
            break
        data[end : end + 4] = zlib.crc32(data[pos + 4 : end]).to_bytes(4, "big")
        pos = end + 4
    return data


@st.composite
def image_files(draw):
    """Mostly a small valid PNG or PPM with one to four bytes after its magic
    set, inserted or deleted, or cut short, half of them in its header, and
    for half of the PNGs every chunk CRC made valid again; sometimes any
    bytes after a known magic."""
    if draw(st.integers(0, 4)) == 0:
        magic = draw(st.sampled_from((b"", b"P5", b"P6", b"\x89PNG\r\n\x1a\n")))
        return magic + draw(st.binary(max_size=64))
    data = bytearray(draw(st.sampled_from(VALID_FILES)))
    magic = 8 if data[0] == 0x89 else 2
    header = magic + 25  # the PNG IHDR chunk, or the PPM header and first pixels
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(magic, min(header, len(data))) | st.integers(magic, len(data)))
        action = draw(st.sampled_from(("set", "set", "insert", "delete", "cut")))
        if action == "set" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif action == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        elif action == "delete" and at < len(data):
            del data[at]
        elif action == "cut":
            del data[at:]
    if magic == 8 and draw(st.booleans()):
        data = _with_fresh_crcs(data)
    return bytes(data)


@pytest.fixture(scope="module")
def file_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "image"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=image_files())
def test_any_file_bytes_give_a_raster_or_a_parse_error(file_path, data):
    file_path.write_bytes(data)
    try:
        img = read_image(file_path)
    except ParseError as exc:
        event(f"refused: {str(exc).split(' ')[0]}")
        return
    event("decoded")
    assert isinstance(img, RasterImage)
    assert img.pixels.dtype == np.uint8 and img.pixels.shape == (img.height, img.width, 3)

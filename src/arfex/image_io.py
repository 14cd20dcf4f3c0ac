"""Image file ingestion and output.

PPM (binary P5 grayscale / P6 color, maxval 255) is the deterministic native
format; PNG (8-bit grayscale or RGB, non-interlaced) is accepted as a
convenience input.  All output images are written as PPM P6.

A PNG or PPM may declare at most `MAX_PNG_PIXELS` (2**26) pixels; larger
headers of either format are refused before any pixel data is read.  A PNG's
compressed stream is inflated no further than the declared size plus one
byte, and PPM pixel data must be present in the file.  The CRCs of the
critical PNG chunks (IHDR, IDAT, IEND) are checked; ancillary chunks are
skipped unread, as libpng does.  Every row's filter type is checked before
any row is reconstructed.

PNG rows are reconstructed in dependency order (PNG spec, 2nd ed., 9.2-9.4).
None and Sub rows read no other row and are done first: all Sub rows as one
running sum along the row.  An Up row with only Up rows between it and a done
row (or the top) then adds the row above it, one array add per row, where a
sweep of an all-Up file would take W + H steps.  Every other row, that is
every Average and Paeth row and each Up row below one, is reconstructed by a
wavefront sweep: a row o rows below a done row reconstructs pixel x at
step x + o, when its left neighbour and the pixels above it at x - 1 and x
are known.  All such rows advance together, so a chain of H rows of W pixels
takes about W + H array steps instead of H * W byte steps, whether the rows
come in a fixed cycle or chain Paeth rows one after another as adaptive
filtering often does.  Each step reads every row's predictor from one table
over (a - c, b - c) per filter type.  A sweep's arrays hold at most about 1.5
times `SWEEP_VALUES` int32 values; longer chains are cut into bands of levels
and more rows into batches.  Output is bit for bit that of the byte-by-byte
definition.
"""

from __future__ import annotations

import functools
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ParseError
from .image import RasterImage

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
MAX_PNG_PIXELS = 1 << 26


def read_image(path) -> RasterImage:
    """Decode a PPM (P5/P6) or PNG (8-bit gray/RGB) file."""
    data = Path(path).read_bytes()
    if data[:2] in (b"P5", b"P6"):
        return _decode_ppm(data)
    if data[:8] == _PNG_SIGNATURE:
        return _decode_png(data)
    raise ParseError(f"{path}: not a PPM (P5/P6) or PNG file")


def write_ppm(img: RasterImage, path) -> None:
    """Write a binary P6 PPM, maxval 255."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


# --- PPM ---------------------------------------------------------------

def _decode_ppm(data: bytes) -> RasterImage:
    magic = data[:2]
    pos = 2
    fields = []
    while len(fields) < 3:
        # Skip whitespace and '#' comments between header tokens.
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("truncated PPM header")
        # Over 20 significant digits fits no raster, and int() refuses 4300.
        token = data[start:pos].lstrip(b"0") or b"0"
        if not token.isdigit() or len(token) > 20:
            raise ParseError(f"bad PPM header token {data[start:pos][:32]!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError(f"bad PPM dimensions {width}x{height}")
    if width * height > MAX_PNG_PIXELS:
        raise ParseError(f"PPM {width}x{height} exceeds {MAX_PNG_PIXELS} pixels")
    if maxval != 255:
        raise ParseError(f"unsupported PPM maxval {maxval} (need 255)")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise ParseError("truncated PPM pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8)
    if channels == 1:
        return RasterImage.from_gray(arr.reshape(height, width))
    return RasterImage(arr.reshape(height, width, 3))


# --- PNG ---------------------------------------------------------------

# The work array of one wavefront sweep holds at most about 1.5 times this
# many int32 values (24 MiB), whatever the image size.
SWEEP_VALUES = 1 << 22


def _decode_png(data: bytes) -> RasterImage:
    view = memoryview(data)
    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(data):
        length, ctype = struct.unpack_from(">I4s", data, pos)
        end = pos + 8 + length
        if end > len(data):
            raise ParseError("truncated PNG chunk")
        if ctype in (b"IHDR", b"IDAT", b"IEND"):
            crc = zlib.crc32(view[pos + 4 : end]).to_bytes(4, "big")
            if data[end : end + 4] != crc:
                raise ParseError(f"PNG {ctype.decode()} chunk fails its CRC")
        if ctype == b"IHDR":
            if length != 13:
                raise ParseError(f"PNG IHDR has {length} bytes, need 13")
            ihdr = struct.unpack_from(">IIBBBBB", data, pos + 8)
        elif ctype == b"IDAT":
            idat.append(view[pos + 8 : end])
        elif ctype == b"IEND":
            break
        pos = end + 4  # skip the CRC
    if ihdr is None:
        raise ParseError("PNG missing IHDR")
    width, height, depth, color, compression, filt, interlace = ihdr
    if depth != 8:
        raise ParseError(f"unsupported PNG bit depth {depth} (need 8)")
    if color not in (0, 2):
        raise ParseError(f"unsupported PNG color type {color} (need gray or RGB)")
    if compression != 0 or filt != 0:
        raise ParseError("unsupported PNG compression/filter method")
    if interlace != 0:
        raise ParseError("interlaced PNG not supported")
    if width < 1 or height < 1:
        raise ParseError(f"bad PNG dimensions {width}x{height}")
    if width * height > MAX_PNG_PIXELS:
        raise ParseError(f"PNG {width}x{height} exceeds {MAX_PNG_PIXELS} pixels")
    channels = 1 if color == 0 else 3
    stride = width * channels
    expected = (stride + 1) * height
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat[0] if len(idat) == 1 else b"".join(idat), expected + 1)
    except zlib.error as exc:
        raise ParseError(f"bad PNG stream: {exc}") from exc
    if len(raw) != expected:
        raise ParseError("PNG pixel data has wrong length")
    if not inflater.eof:
        raise ParseError("bad PNG stream: truncated")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    types = rows[:, 0]
    bad = types[types > 4]
    if bad.size:
        raise ParseError(f"unknown PNG filter type {bad[0]}")
    # out[0] is the zero row above row 0; row y is reconstructed in out[y + 1].
    out = np.zeros((height + 1, stride), dtype=np.uint8)
    out[1:] = rows[:, 1:]
    _reconstruct(out, types, channels)
    if channels == 1:
        return RasterImage.from_gray(out[1:])
    return RasterImage(out[1:].reshape(height, width, 3))


def _reconstruct(out: np.ndarray, types: np.ndarray, bpp: int) -> None:
    """Undo the row filters of out[1:] in place; out[0] is the zero row above row 0."""
    stride = out.shape[1]
    width = stride // bpp
    y = np.arange(types.size)
    sub = np.flatnonzero(types == 1) + 1
    per = max(1, SWEEP_VALUES // stride)
    for at in range(0, sub.size, per):  # Sub: a per-channel running sum, mod 256
        part = sub[at : at + per]
        lines = out[part].reshape(part.size, -1, bpp)
        out[part] = np.cumsum(lines, axis=1, dtype=np.uint8).reshape(part.size, -1)
    last_free = np.maximum.accumulate(np.where(types <= 1, y, -1))
    last_swept = np.maximum.accumulate(np.where(types >= 3, y, -1))
    done = last_swept <= last_free  # None, Sub, and Up rows below only those
    for row in np.flatnonzero(done & (types == 2)) + 1:
        np.add(out[row], out[row - 1], out=out[row])
    rows = np.flatnonzero(~done)
    if not rows.size:
        return
    # Level: rows between a row and the done row above it (or the zero row).
    level = rows - np.maximum.accumulate(np.where(done, y, -1))[rows] - 1
    # A sweep of `cols` rows plus the done rows above them, at most `depth`
    # levels deep, fits SWEEP_VALUES.  Deeper chains go in bands of `depth`
    # levels, one band after the other; a band's chain segments are
    # independent and are batched by the columns they need.
    cap = max(width, 256)
    cols = max(2, SWEEP_VALUES // (bpp * (width + cap + 1)))
    depth = max(1, min(cap, cols // 2))
    band = level // depth
    for b in range(band.max() + 1):
        part, off = rows[band == b], level[band == b] - b * depth
        first = np.flatnonzero(off == 0)
        lengths = np.diff(first, append=part.size)
        need = lengths + 1
        batch = (np.cumsum(need) - need) // cols
        cuts = np.flatnonzero(np.diff(batch)) + 1
        for starts, counts in zip(np.split(part[first], cuts), np.split(lengths, cuts)):
            _sweep(out, starts, counts, types, bpp)


@functools.cache
def _predictors() -> np.ndarray:
    """Up, Average and Paeth predictors minus c, mod 256, for filter type t
    at [(t - 2) * 511 * 511 + (e + 255) * 511 + d + 255], d = a - c, e = b - c.

    Average (a + b) >> 1 is c + ((d + e) >> 1).  For Paeth, p = a + b - c
    gives |p - a| = |e|, |p - b| = |d| and |p - c| = |d + e|, and the
    predictor a, b or c is c + d, c + e or c.
    """
    d = np.arange(-255, 256, dtype=np.int16)[None, :]
    e = d.T
    pa, pb, pc = np.abs(e), np.abs(d), np.abs(d + e)
    paeth = np.where((pa <= pb) & (pa <= pc), d, np.where(pb <= pc, e, 0))
    return np.stack(np.broadcast_arrays(e, (d + e) >> 1, paeth)).astype(np.uint8).ravel()


def _sweep(
    out: np.ndarray, starts: np.ndarray, lengths: np.ndarray, types: np.ndarray, bpp: int
) -> None:
    """Reconstruct chains of rows in one wavefront.

    Chain i is the `lengths[i]` rows from row `starts[i]` down, and the row
    above it is done.  The work array v has one column per row: the done
    rows, then level 0 of every chain, level 1 and so on, chains longest
    first, so that each level holds the first chains of the level before.
    v[s] holds pixel s - 1 of a done row and pixel s - 2 - o of a level-o
    row, so step s reconstructs pixel x of level o from its left neighbour
    v[s - 1] and the row above at v[s - 1] (b) and v[s - 2] (c, which is
    the previous step's b).  Pixels before a row's first are zero, and
    stay zero, since every predictor of zeros is zero.
    """
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    depth = int(lengths[0])
    width = out.shape[1] // bpp
    counts = np.searchsorted(-lengths, -np.arange(depth))  # chains reaching each level
    first = np.concatenate(([0], np.cumsum(counts)))
    level = np.repeat(np.arange(depth), counts)
    chain = np.arange(level.size) - first[level]
    rows = starts[chain] + level  # row r is out[r + 1]
    nd, nr = starts.size, rows.size
    steps = width + depth + 1
    v = np.zeros((steps, nd + nr, bpp), dtype=np.int32)
    v[1 : width + 1, :nd] = out[starts].reshape(nd, width, bpp).transpose(1, 0, 2)
    lines = out[rows + 1].reshape(nr, width, bpp)
    for o in range(depth):  # the filtered bytes, until their step overwrites them
        lo, hi = first[o], first[o + 1]
        v[o + 2 : o + 2 + width, nd + lo : nd + hi] = lines[lo:hi].transpose(1, 0, 2)
    above = np.where(level > 0, nd + first[level - 1] + chain, chain)
    above = (above[:, None] * bpp + np.arange(bpp)).ravel()
    key = np.repeat((types[rows].astype(np.int32) - 2) * 511 * 511 + 255 * 512, bpp)
    table = _predictors()
    flat = v.reshape(steps, -1)
    head = nd * bpp  # values of the done rows, in front of each step
    b = np.zeros(nr * bpp, dtype=np.int32)
    c = np.zeros_like(b)
    idx = np.empty_like(b)
    p = np.empty_like(b)
    pred = np.empty(b.size, dtype=np.uint8)
    # idx = (t - 2) * 511 * 511 + (b - c + 255) * 511 + (a - c + 255), with
    # a = flat[s - 1]; flat[s] holds the filtered byte until it is replaced.
    for s in range(2, steps):
        flat[s - 1].take(above, out=b, mode="clip")
        np.subtract(b, c, out=idx)
        idx *= 511
        idx += flat[s - 1, head:]
        idx -= c
        idx += key
        table.take(idx, out=pred, mode="clip")
        np.add(flat[s, head:], pred, out=p)
        p += c
        np.bitwise_and(p, 255, out=flat[s, head:])
        b, c = c, b
    for o in range(depth):
        lo, hi = first[o], first[o + 1]
        swept = v[o + 2 : o + 2 + width, nd + lo : nd + hi].transpose(1, 0, 2)
        out[rows[lo:hi] + 1] = swept.reshape(hi - lo, -1)

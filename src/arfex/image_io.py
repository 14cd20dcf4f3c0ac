"""Image file ingestion and output.

PPM (binary P5 grayscale / P6 color, maxval 255) is the deterministic native
format; PNG (8-bit grayscale or RGB, non-interlaced) is accepted as a
convenience input.  All output images are written as PPM P6.

A PNG may declare at most `MAX_PNG_PIXELS` (2**26) pixels; larger headers are
refused before any allocation, and the compressed stream is inflated no
further than the declared size plus one byte.  PPM pixel data must be present
in the file, so its size is bounded by the file's.
"""

from __future__ import annotations

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

def _decode_png(data: bytes) -> RasterImage:
    pos = 8
    ihdr = None
    idat = bytearray()
    while pos + 8 <= len(data):
        length, ctype = struct.unpack(">I4s", data[pos : pos + 8])
        chunk = data[pos + 8 : pos + 8 + length]
        if len(chunk) < length:
            raise ParseError("truncated PNG chunk")
        if ctype == b"IHDR":
            if length != 13:
                raise ParseError(f"PNG IHDR has {length} bytes, need 13")
            ihdr = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"IDAT":
            idat.extend(chunk)
        elif ctype == b"IEND":
            break
        pos += 12 + length  # length + type + data + crc
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
        raw = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise ParseError(f"bad PNG stream: {exc}") from exc
    if len(raw) != expected:
        raise ParseError("PNG pixel data has wrong length")
    if not inflater.eof:
        raise ParseError("bad PNG stream: truncated")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        out[y] = _unfilter(int(rows[y, 0]), rows[y, 1:], prev, channels)
        prev = out[y]
    if channels == 1:
        return RasterImage.from_gray(out)
    return RasterImage(out.reshape(height, width, 3))


def _unfilter(ftype: int, line: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    if ftype == 0:  # None
        return line
    if ftype == 1:  # Sub: a per-channel running sum, mod 256
        return np.cumsum(line.reshape(-1, bpp), axis=0, dtype=np.uint8).ravel()
    if ftype == 2:  # Up
        return line + prev
    # Average/Paeth need the already-reconstructed left neighbor: sequential,
    # over Python ints.
    cur = line.tolist()
    up = prev.tolist()
    if ftype == 3:  # Average
        for i in range(len(cur)):
            left = cur[i - bpp] if i >= bpp else 0
            cur[i] = (cur[i] + (left + up[i]) // 2) & 0xFF
    elif ftype == 4:  # Paeth
        for i in range(len(cur)):
            a = cur[i - bpp] if i >= bpp else 0
            b = up[i]
            c = up[i - bpp] if i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = c
            cur[i] = (cur[i] + pred) & 0xFF
    else:
        raise ParseError(f"unknown PNG filter type {ftype}")
    return np.array(cur, dtype=np.uint8)

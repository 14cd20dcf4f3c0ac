"""Seeded inputs for the benchmark, with the ground truth that made them.

Everything here is the benchmark's own code: bump textures, sensor noise,
similarity warps, photometric changes, and the PNG and PPM encoders.  It
imports nothing from `arfex`, so a change to the program cannot change a
workload, and the checks can compare outputs with what was generated.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

BACKGROUND = 110

# --- frames: isolated bumps on a jittered grid, plus sensor noise ----------

FRAME_SPACING = 48  # grid cell side in pixels, one bump per cell
FRAME_JITTER = 6  # bump centre moves at most this far from its cell centre
FRAME_SIGMA = (2.5, 5.0)
FRAME_AMPLITUDE = (50.0, 90.0)
FRAME_NOISE = 4.0  # sensor noise, standard deviation in 8-bit levels
PNG_FILTER_CYCLE = (0, 1, 2, 3, 4)  # None, Sub, Up, Average, Paeth


@dataclass(frozen=True)
class FrameSpec:
    width: int
    height: int
    color: bool
    fmt: str  # "png" or "ppm"


# One round of the frames workload.  Sizes are fixed, not drawn from the
# seed, so every seed costs the same work; the 640x480 gray PNG frames sit
# in the middle of the cost order, which keeps the median operation in one
# size class.  Frame 0 is the small frame used for the warm-up.
FRAME_ROUND = (
    FrameSpec(320, 240, False, "png"),
    FrameSpec(640, 480, False, "png"),
    FrameSpec(320, 240, True, "ppm"),
    FrameSpec(640, 480, False, "png"),
    FrameSpec(1024, 768, False, "png"),
    FrameSpec(640, 480, False, "ppm"),
    FrameSpec(480, 360, True, "png"),
    FrameSpec(640, 480, False, "png"),
    FrameSpec(640, 480, True, "png"),
)


@dataclass
class Frame:
    spec: FrameSpec
    pixels: np.ndarray  # (h, w) uint8 for gray, (h, w, 3) for color
    bumps: np.ndarray  # (n, 4): x, y, sigma, amplitude of each isolated bump


def _add_bumps(field: np.ndarray, bumps: np.ndarray) -> None:
    """Add Gaussian bumps in place, each rendered within 4 sigma of its centre."""
    h, w = field.shape
    for x, y, s, amp in bumps:
        r = int(np.ceil(4.0 * s))
        x0, x1 = max(int(x) - r, 0), min(int(x) + r + 1, w)
        y0, y1 = max(int(y) - r, 0), min(int(y) + r + 1, h)
        ys, xs = np.mgrid[y0:y1, x0:x1]
        field[y0:y1, x0:x1] += amp * np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / (2.0 * s * s))


def _quantize(field: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(field + 0.5), 0, 255).astype(np.uint8)


def make_frame(spec: FrameSpec, rng: np.random.Generator) -> Frame:
    """A camera-like frame: one isolated bump per grid cell, then noise.

    Bumps are bright or dark at random.  Neighbouring centres are at least
    FRAME_SPACING - 2 * FRAME_JITTER = 36 px apart, so each bump is a lone
    blob for the detector.  Color frames tint the gray scene per channel.
    """
    w, h = spec.width, spec.height
    gx = np.arange(FRAME_SPACING // 2, w - FRAME_SPACING // 2 + 1, FRAME_SPACING)
    gy = np.arange(FRAME_SPACING // 2, h - FRAME_SPACING // 2 + 1, FRAME_SPACING)
    cx, cy = (a.ravel().astype(np.float64) for a in np.meshgrid(gx, gy))
    n = cx.size
    bumps = np.stack(
        [
            cx + rng.uniform(-FRAME_JITTER, FRAME_JITTER, n),
            cy + rng.uniform(-FRAME_JITTER, FRAME_JITTER, n),
            rng.uniform(*FRAME_SIGMA, n),
            rng.choice([-1.0, 1.0], n) * rng.uniform(*FRAME_AMPLITUDE, n),
        ],
        axis=1,
    )
    field = np.full((h, w), float(BACKGROUND))
    _add_bumps(field, bumps)
    if spec.color:
        tint = np.array([8.0, 0.0, -8.0])
        scene = field[:, :, None] + tint + rng.normal(0.0, FRAME_NOISE, (h, w, 3))
    else:
        scene = field + rng.normal(0.0, FRAME_NOISE, (h, w))
    return Frame(spec, _quantize(scene), bumps)


def frame_round(seed: int) -> list[Frame]:
    rng = np.random.default_rng([seed, 1])
    return [make_frame(spec, rng) for spec in FRAME_ROUND]


# --- PNG and PPM encoders ---------------------------------------------------

def _chunk(ctype: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", zlib.crc32(ctype + data))


def filter_rows(pixels: np.ndarray, filters) -> bytes:
    """Filter-type byte plus filtered scanline for every row (PNG spec 9.2).

    `filters[y]` is the filter type of row y.  All five filters read only
    unfiltered bytes, so each is one array expression over the image.
    """
    h = pixels.shape[0]
    bpp = 1 if pixels.ndim == 2 else pixels.shape[2]
    x = pixels.reshape(h, -1).astype(np.int16)
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, bpp:] = x[:-1, :-bpp]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    predictors = (np.zeros_like(x), a, b, (a + b) // 2, paeth)
    types = np.asarray(filters, dtype=np.int64)
    out = np.empty((h, x.shape[1] + 1), dtype=np.uint8)
    out[:, 0] = types
    for ftype, pred in enumerate(predictors):
        rows = types == ftype
        out[rows, 1:] = ((x[rows] - pred[rows]) & 0xFF).astype(np.uint8)
    return out.tobytes()


def encode_png(pixels: np.ndarray, filters=None) -> bytes:
    """8-bit gray (h, w) or RGB (h, w, 3) PNG; rows cycle through all filters."""
    h, w = pixels.shape[:2]
    color = 0 if pixels.ndim == 2 else 2
    if filters is None:
        filters = [PNG_FILTER_CYCLE[y % len(PNG_FILTER_CYCLE)] for y in range(h)]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(filter_rows(pixels, filters), 6))
        + _chunk(b"IEND", b"")
    )


def encode_ppm(pixels: np.ndarray) -> bytes:
    """Binary P5 for gray (h, w), P6 for RGB (h, w, 3), maxval 255."""
    h, w = pixels.shape[:2]
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    return magic + f"\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(pixels).tobytes()


def encode(frame: Frame) -> bytes:
    return encode_png(frame.pixels) if frame.spec.fmt == "png" else encode_ppm(frame.pixels)


# --- objects: dipole textures, views, clutter -------------------------------

OBJECT_SIZE = 256
OBJECT_BUMPS = 32  # 16 bright/dark pairs
OBJECT_MARGIN = 0.18  # bump centres keep this share of the side from the edges
OBJECT_SIGMA = (2.5, 7.0)


def object_texture(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Gray texture of bright/dark bump pairs on the background: the
    (OBJECT_SIZE, OBJECT_SIZE) uint8 levels and the (n, 2) bump centres.

    Pairs give every keypoint a dominant gradient direction, so orientation
    and descriptors are stable; a lone symmetric bump would have neither.
    """
    size = OBJECT_SIZE
    inner = OBJECT_MARGIN * size
    bumps = []
    sign = 1.0
    for _ in range(OBJECT_BUMPS // 2):
        cx, cy = rng.uniform(inner, size - 1 - inner, 2)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        for k in range(2):
            s = rng.uniform(*OBJECT_SIGMA)
            off = k * rng.uniform(1.6, 2.6) * s
            bumps.append((cx + off * np.cos(phi), cy + off * np.sin(phi), s, sign * rng.uniform(50.0, 90.0)))
            sign = -sign
    field = np.full((size, size), float(BACKGROUND))
    bumps = np.array(bumps)
    _add_bumps(field, bumps)
    return _quantize(field), bumps[:, :2]


def similarity(points: np.ndarray, size: int, angle_deg: float, scale: float) -> np.ndarray:
    """p' = c + scale * R(angle) (p - c) about the centre c of a size x size image."""
    c0 = (size - 1) / 2.0
    t = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return c0 + scale * (np.asarray(points, dtype=np.float64) - c0) @ rot.T


def warp(levels: np.ndarray, angle_deg: float, scale: float) -> np.ndarray:
    """Bilinear warp by `similarity`, same canvas, background outside the source."""
    size = levels.shape[0]
    ys, xs = np.mgrid[0:size, 0:size]
    dest = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    src = similarity(dest, size, -angle_deg, 1.0 / scale)  # inverse map
    sx, sy = src[:, 0], src[:, 1]
    x0 = np.clip(np.floor(sx).astype(np.int64), 0, size - 2)
    y0 = np.clip(np.floor(sy).astype(np.int64), 0, size - 2)
    fx, fy = sx - x0, sy - y0
    v = levels.astype(np.float64)
    out = (
        v[y0, x0] * (1 - fx) * (1 - fy)
        + v[y0, x0 + 1] * fx * (1 - fy)
        + v[y0 + 1, x0] * (1 - fx) * fy
        + v[y0 + 1, x0 + 1] * fx * fy
    )
    inside = (sx >= 0) & (sx <= size - 1) & (sy >= 0) & (sy <= size - 1)
    return np.where(inside, out, float(BACKGROUND)).reshape(size, size)


def to_rgb(levels: np.ndarray) -> np.ndarray:
    return np.repeat(levels[:, :, None], 3, axis=2)


# --- query workload ----------------------------------------------------------

QUERY_RECORDS = 24
QUERY_SIMILARITY_VIEWS = 10
QUERY_PHOTOMETRIC_VIEWS = 6
QUERY_UNINDEXED = 2
QUERY_CLUTTER = 2
VIEW_ANGLES = (-15.0, -10.0, -5.0, 5.0, 10.0, 15.0)  # plus up to 3 degrees of jitter
VIEW_SCALE = (0.85, 1.1)
VIEW_NOISE = 3.0
PHOTO_GAIN = (0.75, 1.25)
PHOTO_OFFSET = (-15.0, 15.0)
PHOTO_ANGLE = (-8.0, 8.0)
PHOTO_SCALE = (0.95, 1.05)


@dataclass
class QueryFrame:
    kind: str  # "similarity", "photometric", "unindexed" or "clutter"
    pixels: np.ndarray  # (h, w, 3) uint8
    source: int  # record index, -1 when nothing should be recognized
    angle: float = 0.0
    scale: float = 1.0


def query_records(seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The indexed textures, record k is textures[k], and their bump centres."""
    rng = np.random.default_rng([seed, 2])
    textures, centres = zip(*(object_texture(rng) for _ in range(QUERY_RECORDS)))
    return list(textures), list(centres)


def query_round(seed: int, r: int, textures: list[np.ndarray]) -> list[QueryFrame]:
    """Round r: similarity views, photometric views, never-indexed textures
    and clutter, a negative after every fourth view.

    Each round draws fresh queries, so a run averages RANSAC's cost over
    many (query, record) pairs instead of repeating a few.
    """
    rng = np.random.default_rng([seed, 2, r])
    n_views = QUERY_SIMILARITY_VIEWS + QUERY_PHOTOMETRIC_VIEWS
    sources = rng.choice(len(textures), n_views, replace=False)
    views = []
    for k, src in enumerate(sources):
        if k < QUERY_SIMILARITY_VIEWS:
            angle = float(rng.choice(VIEW_ANGLES) + rng.uniform(-3.0, 3.0))
            scale = float(rng.uniform(*VIEW_SCALE))
            field = warp(textures[src], angle, scale)
            kind = "similarity"
        else:
            angle = float(rng.uniform(*PHOTO_ANGLE))
            scale = float(rng.uniform(*PHOTO_SCALE))
            field = warp(textures[src], angle, scale) * rng.uniform(*PHOTO_GAIN) + rng.uniform(*PHOTO_OFFSET)
            kind = "photometric"
        field = field + rng.normal(0.0, VIEW_NOISE, field.shape)
        views.append(QueryFrame(kind, to_rgb(_quantize(field)), int(src), angle, scale))
    negatives = [QueryFrame("unindexed", to_rgb(object_texture(rng)[0]), -1) for _ in range(QUERY_UNINDEXED)]
    negatives += [
        QueryFrame("clutter", to_rgb(rng.integers(0, 256, (OBJECT_SIZE, OBJECT_SIZE), dtype=np.uint8)), -1)
        for _ in range(QUERY_CLUTTER)
    ]
    every = len(views) // len(negatives)
    queries = []
    for k, view in enumerate(views):
        queries.append(view)
        if k % every == every - 1 and negatives:
            queries.append(negatives.pop(0))
    return queries + negatives


def record_id(k: int) -> str:
    return f"obj{k:03d}"


def record_name(k: int) -> str:
    return f"Object {k}"


def record_info(k: int) -> str:
    return f"Plate {k}: dipole texture, {OBJECT_BUMPS} bumps · seed-drawn"


# --- catalog workload --------------------------------------------------------

CATALOG_OBJECTS = 32


def catalog_inputs(seed: int) -> list[np.ndarray]:
    """Catalog objects in insertion order; odd ones are tinted RGB (P6), even gray (P5)."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for k in range(CATALOG_OBJECTS):
        levels, _ = object_texture(rng)
        if k % 2:
            levels = np.clip(levels[:, :, None].astype(np.int16) + np.array([6, 0, -6]), 0, 255).astype(np.uint8)
        out.append(levels)
    return out

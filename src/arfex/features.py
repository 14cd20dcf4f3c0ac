"""Fast-Hessian interest points and Haar-wavelet descriptors.

The extraction chain: grayscale -> integral image -> Hessian-determinant
response maps over a scale-space -> 3x3x3 non-maximum suppression with one
quadratic refinement step -> orientation assignment -> 64-component
descriptors.  All stages are pure functions; identical input and
configuration give byte-identical output.

The scale space is one `ResponseMap` per octave.  Octave o (1-based)
samples every 2^(o-1) pixels and has INTERVALS layers, filtered at
filter_sizes(o, INTERVALS); its responses and Laplacian signs are two
(INTERVALS, gh, gw) arrays, allocated once and filled layer by layer in
place.  Detection reads each candidate's 3x3x3 neighbourhood straight from
them.

Box-filter layout (center (x, y), odd filter size L, lobe l = L//3,
border b = (L-1)//2, half-lobe m = (l-1)//2; rectangles inclusive):

  Dxx = box(x-b, y-l+1, x+b, y+l-1) - 3*box(x-m, y-l+1, x+m, y+l-1)
  Dyy = box(x-l+1, y-b, x+l-1, y+b) - 3*box(x-l+1, y-m, x+l-1, y+m)
  Dxy = box(x+1, y-l, x+l, y-1) + box(x-l, y+1, x-1, y+l)
      - box(x-l, y-l, x-1, y-1) - box(x+1, y+1, x+l, y+l)

Each D is normalized by L^2.  Grid cells whose filter support (reach b from
the center) is not fully inside the image have response 0 and Laplacian
sign +1.  Interior cells never need clipping, so each of the 32 corner
lookups (8 boxes x 4 corners) is one strided slice of `IntegralImage.padded`
over the whole interior sub-grid, and the boxes combine in exact int64.

Non-maximum suppression compares only the cells above threshold with their
26 neighbours.  The survivors of one layer are refined together: their 3x3
Hessians form one (N, 3, 3) stack for one `np.linalg.solve`, which runs the
same LAPACK solve per matrix as a one-matrix call.  One singular matrix makes
the whole stack raise, so then each candidate is solved on its own and the
singular ones are dropped.

`assign_orientation` and `extract_descriptor` take arrays of points and run
as array passes over blocks of BLOCK points.  Each point gets the same bits
whatever block it shares, or alone, which constrains the batched form: Haar
sums are exact int64 combinations of padded-table corners with a per-point
box size, window sums are one matrix-vector product per point, the final
`atan2` is a scalar `math` call per point (`np.arctan2` differs in the last
bit on some inputs), the descriptor frame's `cos`/`sin` are `math` calls
too, subregion sums reduce the same axes in the same order, and each
descriptor is normalised by its own `np.linalg.norm` (a batched norm rounds
differently).

Haar corners are clamped, not clipped.  A sample's two responses need the
padded-table entries at columns x-h, x, x+h and rows y-h, y, y+h (all pairs
but (y, x)); each column index is clamped into [0, width] and each row index
into [0, height].  A box that overlaps the image keeps exactly its clipped
corners, and a box wholly outside gets two equal clamped columns or rows,
so its four-corner sum is exactly 0: the sums equal clipped box sums in
exact int64.

The orientation window mask tests (a - start) mod 2 pi < pi/3 for sample
angles a and window starts in [0, 2 pi), so d = a - start lies in
(-2 pi, 2 pi).  There numpy's float `mod` returns d itself when d >= 0 and
d + 2 pi, rounded once, when d < 0; adding 2 pi in place where d < 0 gives
the same bits.  (A sample angle is np.mod(atan2, 2 pi), which reaches 2 pi
only for an atan2 within half an ulp below 0; the ratio of two nonzero Haar
responses, integer sums over boxes of bounded size, is never that small.)
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ImageTooSmall
from .image import (
    GrayImage,
    IntegralImage,
    RasterImage,
    build_integral,
    to_grayscale,
)

FILTER_BASE = 9  # smallest filter; also the minimum image side
SIGMA_BASE = 1.2  # sigma of the 9x9 filter
INTERVALS = 4  # response maps per octave
DXY_WEIGHT = 0.9  # balances the box-filter Dxy against the Gaussian one

# Orientation and descriptor geometry of SURF (Bay et al., CVIU 2008), in
# multiples of the interest point's sigma s unless noted.
ORIENTATION_RADIUS = 6  # sample disc radius, in steps of s
ORIENTATION_HAAR = 4.0  # Haar wavelet size
ORIENTATION_SIGMA = 2.5  # Gaussian weight
ORIENTATION_WINDOW = math.pi / 3  # sliding window width, radians
ORIENTATION_STEP = math.pi / 32  # sliding window step, radians
DESCRIPTOR_GRID = 4  # subregions per side
DESCRIPTOR_SAMPLES = 5  # samples per subregion side, spaced s apart
DESCRIPTOR_HAAR = 2.0  # Haar wavelet size
DESCRIPTOR_SIGMA = 3.3  # Gaussian weight
DESCRIPTOR_LENGTH = 4 * DESCRIPTOR_GRID * DESCRIPTOR_GRID  # four sums per subregion
BLOCK = 16  # points per array pass of orientation and descriptors; bounds peak memory


def filter_sizes(octave: int, intervals: int) -> list[int]:
    """Filter sizes for a 1-based octave: start 3*2^o+3, step 6*2^(o-1).

    Octave 1: 9, 15, 21, 27; octave 2: 15, 27, 39, 51; octave 3: 27, 51, 75, 99.
    """
    start = 3 * (1 << octave) + 3
    step = 6 * (1 << (octave - 1))
    return [start + k * step for k in range(intervals)]


@dataclass
class ExtractionConfig:
    """The extraction settings a caller may choose, echoed into output JSON."""

    octaves: int = 3
    threshold: float = 4e-4
    upright: bool = False

    def __post_init__(self):
        if type(self.octaves) is not int or not 1 <= self.octaves <= 4:  # a bool is not an int here
            raise ValueError(f"octaves must be an integer in [1, 4], got {self.octaves!r}")
        # Chained comparisons, exact for ints too: NaN, inf and ints past the
        # largest float fail them.
        if type(self.threshold) not in (int, float) or not 0 <= self.threshold <= sys.float_info.max:
            raise ValueError(f"threshold must be a finite number >= 0, got {self.threshold!r}")
        if not isinstance(self.upright, bool):
            raise ValueError(f"upright must be true or false, got {self.upright!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExtractionConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass(eq=False)
class ResponseMap:
    """Normalized Hessian-determinant responses of one octave's scale space.

    Layer k of `responses` and `laplacian_signs` (shape (intervals, gh, gw))
    is filtered at filter_sizes[k].  Grid cell (i, j) sits at pixel
    (j*stride, i*stride); grid dims are ceil(height/stride) x
    ceil(width/stride).  laplacian_signs holds the sign of Dxx+Dyy (+1 on
    exact zero).
    """

    stride: int
    filter_sizes: tuple[int, ...]
    responses: np.ndarray
    laplacian_signs: np.ndarray

    def __post_init__(self):
        if len(self.filter_sizes) < 3:
            raise ValueError("need >= 3 intervals per octave for detection")
        shape = self.responses.shape
        if len(shape) != 3 or shape[0] != len(self.filter_sizes) or self.laplacian_signs.shape != shape:
            raise ValueError(
                "responses and laplacian_signs must share one (len(filter_sizes), gh, gw) shape, "
                f"got {shape} and {self.laplacian_signs.shape}"
            )


@dataclass(frozen=True)
class InterestPoint:
    """Scale-space extremum: sub-pixel position, sigma, strength, sign, angle."""

    x: float
    y: float
    scale: float
    response: float
    laplacian_sign: int
    orientation: float = 0.0


@dataclass(frozen=True, eq=False)
class Descriptor:
    """64-component unit-norm feature vector (all-zero for flat patches)."""

    components: np.ndarray
    laplacian_sign: int


def build_response_maps(ii: IntegralImage, config: Optional[ExtractionConfig] = None) -> list[ResponseMap]:
    """One response map per octave, in octave order."""
    config = config or ExtractionConfig()
    if ii.width < FILTER_BASE or ii.height < FILTER_BASE:
        raise ImageTooSmall(
            f"image {ii.width}x{ii.height} below {FILTER_BASE}x{FILTER_BASE} minimum"
        )
    maps = []
    for octave in range(1, config.octaves + 1):
        stride = 1 << (octave - 1)
        sizes = tuple(filter_sizes(octave, INTERVALS))
        shape = (INTERVALS, -(-ii.height // stride), -(-ii.width // stride))
        responses = np.zeros(shape)
        signs = np.ones(shape, dtype=np.int8)
        for k, size in enumerate(sizes):
            _hessian_grid(ii, stride, size, responses[k], signs[k])
        maps.append(ResponseMap(stride, sizes, responses, signs))
    return maps


def _hessian_grid(ii: IntegralImage, stride: int, size: int, responses: np.ndarray, signs: np.ndarray) -> None:
    """Fill one layer in place: interior cells get their response and sign;
    the rest keep the 0.0 and +1 they were allocated with."""
    lobe = size // 3
    border = (size - 1) // 2
    half = (lobe - 1) // 2
    # Interior cells: border <= i*stride <= height-1-border, likewise for j.
    i0 = j0 = -(-border // stride)
    ny = (ii.height - 1 - border) // stride + 1 - i0
    nx = (ii.width - 1 - border) // stride + 1 - j0
    if ny <= 0 or nx <= 0:
        return
    p = ii.padded

    def corner(dx: int, dy: int) -> np.ndarray:
        """padded[y+dy, x+dx] for every interior center (x, y), as a strided view."""
        y = i0 * stride + dy
        x = j0 * stride + dx
        return p[y : y + (ny - 1) * stride + 1 : stride, x : x + (nx - 1) * stride + 1 : stride]

    def box(x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
        """Level sums of the inclusive rectangle [x+x0..x+x1] x [y+y0..y+y1]."""
        return corner(x1 + 1, y1 + 1) - corner(x1 + 1, y0) - corner(x0, y1 + 1) + corner(x0, y0)

    # Integer-domain combinations: flat regions cancel to exactly zero.
    dxx = box(-border, -lobe + 1, border, lobe - 1) - 3 * box(-half, -lobe + 1, half, lobe - 1)
    dyy = box(-lobe + 1, -border, lobe - 1, border) - 3 * box(-lobe + 1, -half, lobe - 1, half)
    dxy = (
        box(1, -lobe, lobe, -1)
        + box(-lobe, 1, -1, lobe)
        - box(-lobe, -lobe, -1, -1)
        - box(1, 1, lobe, lobe)
    )
    inv_area = 1.0 / (255.0 * size * size)
    dxx = dxx * inv_area
    dyy = dyy * inv_area
    dxy = dxy * inv_area
    interior = (slice(i0, i0 + ny), slice(j0, j0 + nx))
    responses[interior] = dxx * dyy - (DXY_WEIGHT * dxy) ** 2
    signs[interior][dxx + dyy < 0] = -1


def detect_interest_points(maps: list[ResponseMap], threshold: float) -> list[InterestPoint]:
    """Strict 3x3x3 maxima above threshold, refined by one quadratic step.

    First/last layer of each octave serve only as comparison layers.
    Points whose refinement offset exceeds 0.5 in any component (or whose
    local Hessian is singular) are discarded.  Output sorted by descending
    response, ties by (y, x, scale) ascending.
    """
    points: list[InterestPoint] = []
    for m in maps:
        stack = m.responses
        n, gh, gw = stack.shape
        if gh < 3 or gw < 3:
            continue
        for k in range(1, n - 1):
            # Only the few cells above threshold are compared with their 26
            # neighbours; nonzero keeps them in row-major order.
            ci, cj = np.nonzero(stack[k, 1:-1, 1:-1] > threshold)
            ci += 1
            cj += 1
            v = stack[k, ci, cj]
            keep = np.ones(v.shape, dtype=bool)
            for dk in (-1, 0, 1):
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        if dk or di or dj:
                            keep &= v > stack[k + dk, ci + di, cj + dj]
            points += _refine(m, k, ci[keep], cj[keep])
    points.sort(key=lambda p: (-p.response, p.y, p.x, p.scale))
    return points


def _refine(m: ResponseMap, k, i, j) -> list[InterestPoint]:
    """Refined points of the candidates (k, i[n], j[n]) of one octave's map,
    by one stacked solve, or one solve each if any Hessian is singular."""
    stack = m.responses

    def at(dk, di, dj):
        return stack[k + dk, i + di, j + dj]

    v = at(0, 0, 0)
    dx = (at(0, 0, 1) - at(0, 0, -1)) / 2.0
    dy = (at(0, 1, 0) - at(0, -1, 0)) / 2.0
    ds = (at(1, 0, 0) - at(-1, 0, 0)) / 2.0
    dxx = at(0, 0, 1) - 2 * v + at(0, 0, -1)
    dyy = at(0, 1, 0) - 2 * v + at(0, -1, 0)
    dss = at(1, 0, 0) - 2 * v + at(-1, 0, 0)
    dxy = (at(0, 1, 1) - at(0, 1, -1) - at(0, -1, 1) + at(0, -1, -1)) / 4.0
    dxs = (at(1, 0, 1) - at(1, 0, -1) - at(-1, 0, 1) + at(-1, 0, -1)) / 4.0
    dys = (at(1, 1, 0) - at(1, -1, 0) - at(-1, 1, 0) + at(-1, -1, 0)) / 4.0
    hess = np.stack([dxx, dxy, dxs, dxy, dyy, dys, dxs, dys, dss], axis=-1).reshape(-1, 3, 3)
    grad = np.stack([dx, dy, ds], axis=-1)
    try:
        offset = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        offset = np.full(grad.shape, np.nan)  # no solution fails the offset test
        for n in range(len(grad)):
            try:
                offset[n] = -np.linalg.solve(hess[n], grad[n])
            except np.linalg.LinAlgError:
                pass
    ok = np.max(np.abs(offset), axis=1) <= 0.5
    stride = m.stride
    step = m.filter_sizes[k + 1] - m.filter_sizes[k]
    size = m.filter_sizes[k] + offset[ok, 2] * step
    return list(
        map(
            InterestPoint,
            ((j[ok] + offset[ok, 0]) * stride).tolist(),
            ((i[ok] + offset[ok, 1]) * stride).tolist(),
            (SIGMA_BASE * size / FILTER_BASE).tolist(),
            v[ok].tolist(),
            m.laplacian_signs[k, i[ok], j[ok]].tolist(),
        )
    )


def _haar(ii: IntegralImage, xs, ys, size) -> tuple[np.ndarray, np.ndarray]:
    """Right-minus-left and bottom-minus-top box differences: positive for
    luminance increasing in +x and in +y.

    The four half-boxes of side `size` have their corners at columns x-h, x,
    x+h and rows y-h, y, y+h (h = size/2), all nine pairs but (y, x), so
    eight clamped padded-table lookups serve both responses.
    """
    half = size // 2
    w, h = ii.width, ii.height
    flat = ii.padded.ravel()
    a = np.clip(xs - half, 0, w)
    b = np.clip(xs, 0, w)
    c = np.clip(xs + half, 0, w)
    r = np.clip(ys - half, 0, h) * (w + 1)
    s = np.clip(ys, 0, h) * (w + 1)
    t = np.clip(ys + half, 0, h) * (w + 1)
    tc, rc, ta, ra = flat[t + c], flat[r + c], flat[t + a], flat[r + a]
    gx = tc - rc - 2 * (flat[t + b] - flat[r + b]) + ta - ra
    gy = tc - 2 * (flat[s + c] - flat[s + a]) + rc - ta - ra
    return gx / 255.0, gy / 255.0


def _even_size(target: np.ndarray) -> np.ndarray:
    """Nearest even box size to each `target`, at least 2."""
    return 2 * np.maximum(1, np.floor(target / 2.0 + 0.5).astype(np.int64))


def _blocks(n: int):
    """Slices of at most BLOCK points covering range(n)."""
    return (slice(lo, lo + BLOCK) for lo in range(0, n, BLOCK))


# Sample offsets (units of s) of the orientation disc and the descriptor
# grid, with their Gaussian weights; u runs along x, v along y.
_DISC_AXIS = np.arange(-ORIENTATION_RADIUS, ORIENTATION_RADIUS + 1)
_DISC_U, _DISC_V = np.meshgrid(_DISC_AXIS, _DISC_AXIS)
_IN_DISC = _DISC_U * _DISC_U + _DISC_V * _DISC_V <= ORIENTATION_RADIUS * ORIENTATION_RADIUS
_DISC_U, _DISC_V = _DISC_U[_IN_DISC], _DISC_V[_IN_DISC]
_DISC_WEIGHT = np.exp(-(_DISC_U * _DISC_U + _DISC_V * _DISC_V) / (2.0 * ORIENTATION_SIGMA**2))
_WINDOW_STARTS = np.arange(0.0, 2.0 * math.pi, ORIENTATION_STEP)
_GRID_SIDE = DESCRIPTOR_GRID * DESCRIPTOR_SAMPLES
_GRID_AXIS = np.arange(_GRID_SIDE) - (_GRID_SIDE - 1) / 2.0  # -9.5 .. 9.5
_GRID_U, _GRID_V = np.meshgrid(_GRID_AXIS, _GRID_AXIS)
_GRID_WEIGHT = np.exp(-(_GRID_U * _GRID_U + _GRID_V * _GRID_V) / (2.0 * DESCRIPTOR_SIGMA**2))


def _window_mask(angles: np.ndarray) -> np.ndarray:
    """(points, windows, samples): 1.0 where sample angle angles[p, m] in
    [0, 2 pi) lies in window w, i.e. (angle - start_w) mod 2 pi < pi/3.

    One buffer serves all three steps, to bound peak memory.
    """
    window = angles[:, None, :] - _WINDOW_STARTS[:, None]
    np.add(window, 2.0 * math.pi, out=window, where=window < 0)
    return np.less(window, ORIENTATION_WINDOW, out=window)


def assign_orientation(ii: IntegralImage, x: np.ndarray, y: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Dominant Haar-gradient direction of each point (x[i], y[i], scale[i]).

    Haar responses (size ~4s) are sampled on a radius-6s disc at step s and
    Gaussian-weighted (sigma 2.5s); a pi/3 window slides by pi/32 and the
    orientation is the angle, in [0, 2 pi), of the largest summed response
    vector.  Zero total response gives orientation 0.  Returns shape (N,).
    """
    theta = np.zeros(len(x))
    for b in _blocks(len(x)):
        s = scale[b, None]
        size = _even_size(ORIENTATION_HAAR * s)
        px = np.floor(x[b, None] + _DISC_U * s + 0.5).astype(np.int64)
        py = np.floor(y[b, None] + _DISC_V * s + 0.5).astype(np.int64)
        gx, gy = _haar(ii, px, py, size)
        gx *= _DISC_WEIGHT
        gy *= _DISC_WEIGHT
        window = _window_mask(np.mod(np.arctan2(gy, gx), 2.0 * math.pi))
        # One matrix-vector product per point, as for a single point.
        sum_x = np.matmul(window, gx[:, :, None])[:, :, 0]
        sum_y = np.matmul(window, gy[:, :, None])[:, :, 0]
        mag2 = sum_x * sum_x + sum_y * sum_y
        best = (np.arange(len(mag2)), np.argmax(mag2, axis=1))
        picked = zip(mag2[best].tolist(), sum_x[best].tolist(), sum_y[best].tolist())
        theta[b] = [0.0 if m == 0.0 else math.atan2(sy, sx) % (2.0 * math.pi) for m, sx, sy in picked]
    return theta


def extract_descriptor(
    ii: IntegralImage, x: np.ndarray, y: np.ndarray, scale: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """64-d descriptor of each point: per-subregion (sum dx, sum dy, sum |dx|, sum |dy|).

    A 20s x 20s window rotated by theta[i] (0 for upright) is sampled on a
    20x20 grid (4x4 subregions of 5x5 samples) with Haar size ~2s and
    Gaussian weight sigma 3.3s; responses are rotated into the keypoint
    frame before accumulation.  Each vector is L2-normalized; an all-zero
    vector stays all-zero.  Returns shape (N, 64).
    """
    out = np.zeros((len(x), DESCRIPTOR_LENGTH))
    g, m = DESCRIPTOR_GRID, DESCRIPTOR_SAMPLES
    for b in _blocks(len(x)):
        s = scale[b, None, None]
        angle = theta[b].tolist()
        cos_t = np.array([math.cos(t) for t in angle])[:, None, None]
        sin_t = np.array([math.sin(t) for t in angle])[:, None, None]
        size = _even_size(DESCRIPTOR_HAAR * s)
        rx = (_GRID_U * cos_t - _GRID_V * sin_t) * s
        ry = (_GRID_U * sin_t + _GRID_V * cos_t) * s
        px = np.floor(x[b, None, None] + rx + 0.5).astype(np.int64)
        py = np.floor(y[b, None, None] + ry + 0.5).astype(np.int64)
        dx0, dy0 = _haar(ii, px, py, size)
        blocks_dx = (_GRID_WEIGHT * (dx0 * cos_t + dy0 * sin_t)).reshape(-1, g, m, g, m)
        blocks_dy = (_GRID_WEIGHT * (-dx0 * sin_t + dy0 * cos_t)).reshape(-1, g, m, g, m)
        vec = np.stack(
            [
                blocks_dx.sum(axis=(2, 4)),
                blocks_dy.sum(axis=(2, 4)),
                np.abs(blocks_dx).sum(axis=(2, 4)),
                np.abs(blocks_dy).sum(axis=(2, 4)),
            ],
            axis=-1,
        ).reshape(-1, DESCRIPTOR_LENGTH)
        for row in vec:
            norm = float(np.linalg.norm(row))  # per row: a batched norm rounds differently
            if norm > 0.0:
                row /= norm
        out[b] = vec
    return out


def extract_features(
    img: RasterImage, config: Optional[ExtractionConfig] = None
) -> tuple[list[InterestPoint], list[Descriptor]]:
    """Full chain: grayscale, integral, response maps, detection, orientation, descriptors.

    descriptors[i] corresponds to points[i].  With upright configuration the
    orientation stage is skipped (orientation stays 0).
    """
    config = config or ExtractionConfig()
    gray = to_grayscale(img)
    ii = build_integral(gray)
    points = detect_interest_points(build_response_maps(ii, config), config.threshold)
    x, y, scale = np.array([(p.x, p.y, p.scale) for p in points], dtype=np.float64).reshape(-1, 3).T
    if config.upright:
        theta = np.zeros(len(points))
    else:
        theta = assign_orientation(ii, x, y, scale)
        points = [
            InterestPoint(p.x, p.y, p.scale, p.response, p.laplacian_sign, t)
            for p, t in zip(points, theta.tolist())
        ]
    vectors = extract_descriptor(ii, x, y, scale, theta)
    descriptors = list(map(Descriptor, vectors, [p.laplacian_sign for p in points]))
    return points, descriptors

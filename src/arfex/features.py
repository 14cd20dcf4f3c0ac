"""Fast-Hessian interest points and Haar-wavelet descriptors.

The extraction chain: grayscale -> integral image -> Hessian-determinant
response maps over a scale-space -> 3x3x3 non-maximum suppression with one
quadratic refinement step -> orientation assignment -> 64-component
descriptors.  All stages are pure functions; identical input and
configuration give byte-identical output.

The stages that read the image take the integral image as the plain
(h + 1, w + 1) int64 padded table P of `image.build_integral` or its int32
wrap, read the image's width and height from its shape, and give the same
bits from either (below).  `_extract` wraps P to int32 once and hands
that one table to every stage.

The scale space is one (2, gh, gw) float64 array per octave, in octave
order.  Octave o (1-based) samples every 2^(o-1) pixels: grid cell (i, j)
sits at pixel (j 2^(o-1), i 2^(o-1)), and the grid is ceil(h / 2^(o-1)) x
ceil(w / 2^(o-1)).  It has INTERVALS = 4 layers, filtered at
filter_sizes(o, 4).  Stride and sizes follow from the octave's place in the
list, so the array holds nothing else.  Detection keeps only maxima of the
middle layers 1 and 2, so only they are filled densely, into the array.
The outer layers 0 and 3 are only compared against, and a Laplacian sign is
read only at a kept point, so both are evaluated from the table by
`_layer_cells` at just the cells detection reads.  Octaves share no layer:
octave o's first two filter sizes are octave o-1's second and fourth
(SURF's octave overlap), but octave o fills its own layers 1 and 2 and
reads the others by cell.

Box-filter layout (center (x, y), odd filter size L, lobe l = L//3,
border b = (L-1)//2, half-lobe m = (l-1)//2; rectangles inclusive):

  Dxx = box(x-b, y-l+1, x+b, y+l-1) - 3*box(x-m, y-l+1, x+m, y+l-1)
  Dyy = box(x-l+1, y-b, x+l-1, y+b) - 3*box(x-l+1, y-m, x+l-1, y+m)
  Dxy = box(x+1, y-l, x+l, y-1) + box(x-l, y+1, x-1, y+l)
      - box(x-l, y-l, x-1, y-1) - box(x+1, y+1, x+l, y+l)

Each D is normalized by L^2.  Grid cells whose filter support (reach b from
the center) is not fully inside the image have response 0 and Laplacian
sign +1.  Interior cells never need clipping, so every lookup is a strided
slice of the padded table P (P[r, c] sums the levels above row r and left
of column c).  Boxes that share rows or columns share one strip difference:

  Dxx = v[x+b+1] - v[x-b] - 3 (v[x+m+1] - v[x-m]),  v = P[y+l] - P[y-l+1]
  Dyy = the same with the column strip u = P[:, x+l] - P[:, x-l+1]
  Dxy = S[x+l+1] - S[x+1] - S[x] + S[x-l],
        S = P[y] - P[y-l] - P[y+l+1] + P[y+1]

that is, 16 integer passes per dense layer; the four corners of eight
boxes would take about 31.  Each dense layer is filled in row bands of
about BAND_CELLS grid cells, so every temporary stays cache-sized whatever
the image size.

The int32 wrap of P holds each entry mod 2^32.  Adding, subtracting and
multiplying by an integer are ring operations mod 2^32, so each D comes out
congruent to its true value, and equal to it because the true value fits
in int32: the largest filter (195, octave 4) gives |Dxx| <= 3 * 195 * 129 *
255 < 2^26, and |Dyy| and |Dxy| are no larger, for any image size.  Only
the exact D are converted to float.  The same holds for `_haar`: a Haar
response is the difference of two half-boxes of h x 2h pixels (h half the
Haar size), so |g| <= 2 h^2 255.  Detection's largest scale sets h: octave 4's layer 2 refined by
at most half a step gives size <= 147 + 48/2 = 171, so s <= 1.2 * 171 / 9 =
22.8, the orientation Haar (~4s) is at most 92 pixels, h = 46, and |g| <=
46 * 92 * 255 < 2^21, whatever the image size.  The descriptor's Haar
(~2s) is smaller.

A cell read gives the bits of a dense fill.  `_layer_cells` gathers each
cell's 32 corners of the same strips (v and u at four columns or rows
each, S at four columns) from the same table and forms the same D's; they
are exact integers, so the order of the integer steps cannot change them.
It then takes the dense fill's float steps in the same order: scale each D
by 1 / (255 L^2), form Dxx Dyy - (0.9 Dxy)^2, and take the sign of the
scaled Dxx + Dyy (+1 on exact zero).  It works in blocks of CELL_BLOCK
cells, so its temporaries stay near 1 MB.

Non-maximum suppression runs on each detection layer in turn.  It starts
from the cells above threshold, listed in row-major order, compares them
with their 8 neighbours in the same layer first, since they reject most
candidates, then with the 9 in the other detection layer, and keeps only
the survivors after each comparison.  Then it reads the outer layer (0
below layer 1, 3 above layer 2) at the survivors' 3x3 neighbourhoods.  One
cell read costs about CELL_COST dense cells, so when the survivors' cells
would cost more than a dense fill, `_hessian_grid` fills that outer layer
instead; both give the same bits.  The kept set is the AND of the same 26
strict comparisons whatever their order, and compaction keeps row-major
order, so refinement gets the same cells in the same order as from
comparing every candidate with all 26 neighbours of a four-layer stack.
The survivors of one layer are refined together, by elementwise
arithmetic alone, so no LAPACK routine sets the bits and a point gets the
same bits whatever shares its layer.  Each 3x3x3 neighbourhood gives a
gradient g and a symmetric 3x3 Hessian H, and the offset is -adj(H) g /
det H, from H's six distinct cofactors.  The nine derivatives are first
scaled by a power of two, which is exact, so that tiny responses do not
underflow det H; a det H of 0 gives a non-finite offset, which fails the
0.5 test.  Each kept point's Laplacian sign is one more `_layer_cells`
read.  Every layer's points are rows of one (N, 5) table, sorted at the
end by one stable `np.lexsort`.

`extract_features` is the one place per-point objects are built: it wraps
the rows of `_extract`'s `Features` table, the form every other caller in
the package (the store, the CLI, the overlays) reads.

`assign_orientation` and `extract_descriptor` take arrays of points and run
as array passes over blocks of ORIENTATION_BLOCK and BLOCK points, about
7,000 samples each.  Each point gets the same bits whatever block it
shares, or alone, which constrains the batched form: each step is
elementwise or reduces one point's own values in a fixed order.
Haar sums are exact integer combinations of padded-table corners with a
per-point box size.  The Gaussian weights are products of committed 1-D
factors exp(-u^2 / 2 sigma^2), so no `np.exp` sets their bits.  The final
`atan2` is a scalar `math` call per point (`np.arctan2` differs in the
last bit on some inputs), and the descriptor frame's `cos`/`sin` are `math`
calls too.  Nothing is a BLAS matvec or a per-row `np.linalg.norm`: a
descriptor's subregion sums reduce each subregion's 25 samples, laid out
contiguously, and its norm is the root of its own `einsum` dot product.

Haar corners are clamped, not clipped.  A sample's two responses need the
padded-table entries at columns x-h, x, x+h and rows y-h, y, y+h (all pairs
but (y, x)); each column index is clamped into [0, width] and each row index
into [0, height].  A box that overlaps the image keeps exactly its clipped
corners, and a box wholly outside gets two equal clamped columns or rows,
so its four-corner sum is exactly 0: the sums equal clipped box sums,
exactly.

Orientation windows are sums of sectors.  pi/3 = 32 pi/96 and pi/32 = 3
pi/96, so window w, which starts at w pi/32, covers exactly the sectors
3w .. 3w+31 (mod 192) of width pi/96.  A sample's sector is its angle
np.mod(atan2, 2 pi) times 96/pi, truncated and clamped to 191 (the mod can
round up to 2 pi itself).  One `np.bincount` per block sums every point's
weighted gx and gy by sector.  It adds in input order, so each sector sum is
the same sequential sum of one point's samples in any block.  A window sum
is then a fixed tree of additions over its 32 sectors: append the first 31
sectors, add to each column the one k further for k = 1, 2, 4, 8, 16, and
keep every third column.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ImageTooSmall
from .image import RasterImage, build_integral, to_grayscale

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
BLOCK = 16  # points per array pass of descriptors, 400 grid samples each; 32-128 gained under 3 %
ORIENTATION_BLOCK = 64  # points per pass of orientation, 113 disc samples each; 16 and 32 ran slower
SECTORS = 192  # orientation sectors of pi/96: ORIENTATION_WINDOW is 32 of them, ORIENTATION_STEP 3
BAND_CELLS = 32768  # grid cells per row band of a response layer; keeps its temporaries in L2
CELL_BLOCK = 2048  # cells per block of `_layer_cells`; keeps its temporaries near 1 MB
CELL_COST = 16  # dense-fill cells that one `_layer_cells` cell costs, about


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


@dataclass(frozen=True, eq=False)
class Features:
    """N interest points and their descriptors as one read-only table.

    Row i of every field is point i: `xy` (N, 2), `scale`, `response`,
    `orientation`, `sign` (the Laplacian sign, int8 +1 or -1) and `desc`
    (N, DESCRIPTOR_LENGTH); all but `sign` are float64.  The constructor
    copies each field, checks its shape and makes it read-only.
    """

    xy: np.ndarray
    scale: np.ndarray
    response: np.ndarray
    orientation: np.ndarray
    sign: np.ndarray
    desc: np.ndarray

    def __post_init__(self):
        n = len(self.xy)
        for f in dataclasses.fields(self):
            a = np.array(getattr(self, f.name), dtype=np.int8 if f.name == "sign" else np.float64, order="C")
            if a.shape != {"xy": (n, 2), "desc": (n, DESCRIPTOR_LENGTH)}.get(f.name, (n,)):
                raise ValueError(f"Features.{f.name} of shape {a.shape} does not fit {n} points")
            a.flags.writeable = False
            object.__setattr__(self, f.name, a)


def build_response_maps(table: np.ndarray, config: Optional[ExtractionConfig] = None) -> list[np.ndarray]:
    """The scale space, from the padded table or its int32 wrap: one (2, gh,
    gw) array per octave, octave 1's first, holding that octave's layers 1
    and 2, filled densely (module docstring)."""
    config = config or ExtractionConfig()
    height, width = table.shape[0] - 1, table.shape[1] - 1
    if width < FILTER_BASE or height < FILTER_BASE:
        raise ImageTooSmall(
            f"image {width}x{height} below {FILTER_BASE}x{FILTER_BASE} minimum"
        )
    maps = []
    for octave in range(1, config.octaves + 1):
        stride = 1 << (octave - 1)
        responses = np.zeros((2, -(-height // stride), -(-width // stride)))
        for layer, size in zip(responses, filter_sizes(octave, INTERVALS)[1:3]):
            _hessian_grid(table, stride, size, layer)
        maps.append(responses)
    return maps


def _hessian_grid(table: np.ndarray, stride: int, size: int, responses: np.ndarray) -> None:
    """Fill one layer in place from the padded table or its int32 wrap, one
    row band at a time: interior cells get their response; the rest keep
    the 0.0 they were allocated with."""
    lobe = size // 3
    border = (size - 1) // 2
    half = (lobe - 1) // 2
    height, width = table.shape[0] - 1, table.shape[1] - 1
    # Interior cells: border <= i*stride <= height-1-border, likewise for j.
    first = -(-border // stride)
    ny = (height - 1 - border) // stride + 1 - first
    nx = (width - 1 - border) // stride + 1 - first
    if ny <= 0 or nx <= 0:
        return
    band = min(ny, max(1, BAND_CELLS // nx))
    inv_area = 1.0 / (255.0 * size * size)
    fxx, fyy, fxy = np.empty((3, band, nx))

    def every(start: int, n: int) -> slice:
        """n indices from start, stride apart."""
        return slice(start, start + (n - 1) * stride + 1, stride)

    def cols(d: int) -> slice:
        """Columns x+d of every interior center x."""
        return every(first * stride + d, nx)

    for top in range(first, first + ny, band):
        n = min(band, first + ny - top)
        y = top * stride  # the band's first center row

        def rows(d: int) -> slice:
            """Rows y+d of the band's centers."""
            return every(y + d, n)

        # Dxx: both boxes span rows y-l+1..y+l-1, so one row strip serves both.
        strip = table[rows(lobe)] - table[rows(1 - lobe)]
        dxx = strip[:, cols(border + 1)] - strip[:, cols(-border)]
        part = strip[:, cols(half + 1)] - strip[:, cols(-half)]
        part *= 3
        dxx -= part
        # Dyy: the same with one column strip, over rows y-b..y+b+1.
        span = slice(y - border, y + (n - 1) * stride + border + 2)
        strip = table[span, cols(lobe)] - table[span, cols(1 - lobe)]
        dyy = strip[every(2 * border + 1, n)] - strip[every(0, n)]
        np.subtract(strip[every(border + half + 1, n)], strip[every(border - half, n)], out=part)
        part *= 3
        dyy -= part
        # Dxy: one strip, the rows y-l..y-1 above the center minus y+1..y+l below.
        strip = table[rows(0)] - table[rows(-lobe)]
        strip -= table[rows(lobe + 1)]
        strip += table[rows(1)]
        dxy = strip[:, cols(lobe + 1)] - strip[:, cols(1)]
        dxy -= strip[:, cols(0)]
        dxy += strip[:, cols(-lobe)]

        # One fixed order of float steps, which `_layer_cells` repeats: scale
        # each D, then Dxx Dyy - (0.9 Dxy)^2.
        bxx, byy, bxy = fxx[:n], fyy[:n], fxy[:n]
        np.multiply(dxx, inv_area, out=bxx)
        np.multiply(dyy, inv_area, out=byy)
        np.multiply(dxy, inv_area, out=bxy)
        out = responses[top : top + n, first : first + nx]
        np.multiply(bxx, byy, out=out)
        bxy *= DXY_WEIGHT
        np.square(bxy, out=bxy)
        out -= bxy


def _layer_cells(
    table: np.ndarray, stride: int, size: int, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Responses and Laplacian signs of the cells (i, j), any shape, of the
    layer of filter `size` at `stride`, from the padded table or its int32
    wrap.

    Interior cells get the bits `_hessian_grid` fills there and the sign of
    Dxx + Dyy (int8, +1 on exact zero); the rest, out-of-grid cells
    included, get 0.0 and +1 (module docstring).
    """
    lobe = size // 3
    border = (size - 1) // 2
    half = (lobe - 1) // 2
    height, width = table.shape[0] - 1, table.shape[1] - 1
    # Table steps from P[y, x] to the 32 corners: the far ends of the v and
    # u strips at the four offsets where Dxx and Dyy read them, their near
    # ends, then the four rows of the S strip at Dxy's four columns.
    ends = (border + 1, -border, half + 1, -half)
    far = [(lobe, d) for d in ends] + [(d, lobe) for d in ends]
    near = [(1 - lobe, d) for d in ends] + [(d, 1 - lobe) for d in ends]
    s_strip = [(r, c) for r in (0, -lobe, lobe + 1, 1) for c in (lobe + 1, 1, 0, -lobe)]
    steps = np.array([r * (width + 1) + c for r, c in far + near + s_strip])[:, None]
    y = np.asarray(i, dtype=np.int64) * stride
    x = np.asarray(j, dtype=np.int64) * stride
    responses = np.zeros(y.shape)
    signs = np.ones(y.shape, dtype=np.int8)
    inside = np.flatnonzero((y >= border) & (y < height - border) & (x >= border) & (x < width - border))
    base = (y * (width + 1) + x).ravel()[inside]
    flat = table.ravel()
    inv_area = 1.0 / (255.0 * size * size)
    for lo in range(0, inside.size, CELL_BLOCK):
        corners = flat[steps + base[lo : lo + CELL_BLOCK]]
        strips = (corners[:8] - corners[8:16]).reshape(2, 4, -1)  # v then u, at Dxx's and Dyy's offsets
        d = strips[:, 0] - strips[:, 1]
        part = strips[:, 2] - strips[:, 3]
        part *= 3
        d -= part
        s = corners[16:20] - corners[20:24]
        s -= corners[24:28]
        s += corners[28:32]
        dxy = s[0] - s[1]
        dxy -= s[2]
        dxy += s[3]
        # `_hessian_grid`'s float steps, in its order.
        b = d * inv_area
        bxy = dxy * inv_area
        response = b[0] * b[1]
        bxy *= DXY_WEIGHT
        np.square(bxy, out=bxy)
        response -= bxy
        cells = inside[lo : lo + CELL_BLOCK]
        responses.flat[cells] = response
        signs.flat[cells[b[0] + b[1] < 0]] = -1
    return responses, signs


# The (row, column) steps to a cell's 3x3 neighbourhood, in row-major order,
# and the positions of its 8 neighbours among them (the centre is 4).
_WINDOW = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
_RING = [n for n in range(9) if n != 4]


def detect_interest_points(table: np.ndarray, maps: list[np.ndarray], threshold: float) -> np.ndarray:
    """Strict 3x3x3 maxima above threshold, refined by one quadratic step.

    `maps` is `build_response_maps`' list and `table` the padded table or
    int32 wrap it was filled from.  Octave o, at place o in `maps`, has
    stride 2^(o-1) and sizes filter_sizes(o, 4); maxima are taken in its
    layers 1 and 2, and layers 0 and 3 and the Laplacian signs are read
    from `table` at the cells the comparisons and refinement need (module
    docstring).  An array that does not fit its octave's grid, or a table
    that is not 2-D, raises ValueError.  Points whose refinement offset
    exceeds 0.5 in any component (or whose local Hessian is singular) are
    discarded.  Returns one (N, 5) float64 row per point: x, y, scale,
    response and Laplacian sign (+1.0 or -1.0), sorted by descending
    response, ties by (y, x, scale) ascending.
    """
    if table.ndim != 2:
        raise ValueError(f"table must be a 2-D padded table, got shape {table.shape}")
    height, width = table.shape[0] - 1, table.shape[1] - 1
    rows = [np.zeros((0, 5))]
    for octave, responses in enumerate(maps, start=1):
        stride = 1 << (octave - 1)
        sizes = filter_sizes(octave, INTERVALS)
        grid = (2, -(-height // stride), -(-width // stride))
        if responses.shape != grid:
            raise ValueError(f"octave {octave} must have shape {grid} for this table, got {responses.shape}")
        _, gh, gw = grid
        if gh < 3 or gw < 3:
            continue
        window = np.array([di * gw + dj for di, dj in _WINDOW])
        for k in (1, 2):
            layer, other = responses[k - 1].ravel(), responses[2 - k].ravel()
            # Only the cells above threshold are candidates; nonzero gives
            # them in row-major order, and each comparison keeps the
            # survivors in that order (module docstring).
            ci, cj = np.nonzero(responses[k - 1, 1:-1, 1:-1] > threshold)
            at = (ci + 1) * gw + cj + 1
            v = layer[at]
            for step in window[_RING]:
                keep = v > layer[at + step]
                at, v = at[keep], v[keep]
            for step in window:
                keep = v > other[at + step]
                at, v = at[keep], v[keep]
            outer = _outer_layer(table, stride, sizes[3 * (k - 1)], grid[1:], at[:, None] + window)
            keep = np.all(v[:, None] > outer, axis=1)
            at, v, outer = at[keep], v[keep], outer[keep]
            around = at[:, None] + window
            below, above = (outer, other[around]) if k == 1 else (other[around], outer)
            offset = _refine(np.stack([below, layer[around], above], axis=1).reshape(-1, 3, 3, 3))
            ok = np.max(np.abs(offset), axis=1) <= 0.5
            i, j = np.divmod(at[ok], gw)
            size = sizes[k] + offset[ok, 2] * (sizes[k + 1] - sizes[k])
            x, y = (j + offset[ok, 0]) * stride, (i + offset[ok, 1]) * stride
            sign = _layer_cells(table, stride, sizes[k], i, j)[1]
            rows.append(np.stack([x, y, SIGMA_BASE * size / FILTER_BASE, v[ok], sign], axis=1))
    points = np.concatenate(rows)
    x, y, scale, response = points[:, :4].T
    return points[np.lexsort((scale, x, y, -response))]  # stable, so equal keys keep detection order


def _outer_layer(table: np.ndarray, stride: int, size: int, grid: tuple[int, int], cells: np.ndarray) -> np.ndarray:
    """Responses of the layer of filter `size` at `stride`, whose grid is
    (gh, gw), at its flat cells `cells`: read cell by cell, or from a dense
    fill of the layer when that is cheaper; both give the same bits."""
    gh, gw = grid
    if CELL_COST * cells.size > gh * gw:
        dense = np.zeros(grid)
        _hessian_grid(table, stride, size, dense)
        return dense.ravel()[cells]
    return _layer_cells(table, stride, size, *np.divmod(cells, gw))[0]


def _refine(cube: np.ndarray) -> np.ndarray:
    """Offsets (x, y, scale) of one quadratic step from the centre of each
    3x3x3 neighbourhood cube[n, layer, row, column]: -adj(H) g / det H of
    its Hessian H and gradient g, non-finite where det H is 0."""

    def at(dk, di, dj):
        return cube[:, 1 + dk, 1 + di, 1 + dj]

    v = at(0, 0, 0)
    derivatives = np.stack([
        (at(0, 0, 1) - at(0, 0, -1)) / 2.0,
        (at(0, 1, 0) - at(0, -1, 0)) / 2.0,
        (at(1, 0, 0) - at(-1, 0, 0)) / 2.0,
        at(0, 0, 1) - 2 * v + at(0, 0, -1),
        at(0, 1, 0) - 2 * v + at(0, -1, 0),
        at(1, 0, 0) - 2 * v + at(-1, 0, 0),
        (at(0, 1, 1) - at(0, 1, -1) - at(0, -1, 1) + at(0, -1, -1)) / 4.0,
        (at(1, 0, 1) - at(1, 0, -1) - at(-1, 0, 1) + at(-1, 0, -1)) / 4.0,
        (at(1, 1, 0) - at(1, -1, 0) - at(-1, 1, 0) + at(-1, -1, 0)) / 4.0,
    ])
    # Scaled exactly, the largest into [0.5, 1): the offset is the same, but
    # tiny (subnormal) responses no longer underflow det H to 0.
    _, exponent = np.frexp(np.max(np.abs(derivatives), axis=0))
    dx, dy, ds, dxx, dyy, dss, dxy, dxs, dys = np.ldexp(derivatives, -exponent)
    # The cofactors of H; H is symmetric, so adj(H) is too.
    cxx = dyy * dss - dys * dys
    cxy = dxs * dys - dxy * dss
    cxs = dxy * dys - dyy * dxs
    cyy = dxx * dss - dxs * dxs
    cys = dxy * dxs - dxx * dys
    css = dxx * dyy - dxy * dxy
    det = dxx * cxx + dxy * cxy + dxs * cxs
    step = np.stack([cxx * dx + cxy * dy + cxs * ds, cxy * dx + cyy * dy + cys * ds, cxs * dx + cys * dy + css * ds], 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -step / det[:, None]


def _haar(table: np.ndarray, xs, ys, size) -> np.ndarray:
    """Right-minus-left and bottom-minus-top box differences, stacked along a
    new first axis: positive for luminance increasing in +x and in +y.

    The four half-boxes of side `size` have their corners at columns x-h, x,
    x+h and rows y-h, y, y+h (h = size/2), all nine pairs but (y, x), so
    eight clamped padded-table lookups serve both responses.
    """
    half = size // 2
    h, w = table.shape[0] - 1, table.shape[1] - 1
    flat = table.ravel()
    a = np.minimum(np.maximum(xs - half, 0), w)
    b = np.minimum(np.maximum(xs, 0), w)
    c = np.minimum(np.maximum(xs + half, 0), w)
    r = np.minimum(np.maximum(ys - half, 0), h) * (w + 1)
    s = np.minimum(np.maximum(ys, 0), h) * (w + 1)
    t = np.minimum(np.maximum(ys + half, 0), h) * (w + 1)
    tc, rc, ta, ra = flat[t + c], flat[r + c], flat[t + a], flat[r + a]
    gx = tc - rc - 2 * (flat[t + b] - flat[r + b]) + ta - ra
    gy = tc - 2 * (flat[s + c] - flat[s + a]) + rc - ta - ra
    return np.stack([gx, gy]) / 255.0


def _even_size(target: np.ndarray) -> np.ndarray:
    """Nearest even box size to each `target`, at least 2."""
    return 2 * np.maximum(1, np.floor(target / 2.0 + 0.5).astype(np.int64))


def _blocks(n: int, size: int):
    """Slices of at most `size` points covering range(n)."""
    return (slice(lo, lo + size) for lo in range(0, n, size))


# Sample offsets (units of s) of the orientation disc and the descriptor
# grid, with their Gaussian weights; u runs along x, v along y.  A weight is
# the product of two committed factors, exp(-u^2 / 2 sigma^2) correctly
# rounded, for |u| = 0 .. 6 at sigma 2.5 and |u| = 0.5 .. 9.5 at sigma 3.3.
_DISC_FACTORS = np.array(
    [1.0, 0.9231163463866358, 0.7261490370736909, 0.4867522559599716,
     0.27803730045319414, 0.1353352832366127, 0.05613476283413372]
)
_GRID_FACTORS = np.array(
    [0.9885872051667915, 0.9018511586452826, 0.7505413639532211, 0.5698155267038088,
     0.39465154573342703, 0.2493522087772962, 0.14372506485679326, 0.07557387471306082,
     0.036251897851191636, 0.015863889939703762]
)
_DISC_AXIS = np.arange(-ORIENTATION_RADIUS, ORIENTATION_RADIUS + 1)
_DISC_U, _DISC_V = np.meshgrid(_DISC_AXIS, _DISC_AXIS)
_IN_DISC = _DISC_U * _DISC_U + _DISC_V * _DISC_V <= ORIENTATION_RADIUS * ORIENTATION_RADIUS
_DISC_U, _DISC_V = _DISC_U[_IN_DISC], _DISC_V[_IN_DISC]
_DISC_WEIGHT = _DISC_FACTORS[np.abs(_DISC_U)] * _DISC_FACTORS[np.abs(_DISC_V)]
_GRID_SIDE = DESCRIPTOR_GRID * DESCRIPTOR_SAMPLES
_GRID_AXIS = np.arange(_GRID_SIDE) - (_GRID_SIDE - 1) / 2.0  # -9.5 .. 9.5
_GRID_U, _GRID_V = np.meshgrid(_GRID_AXIS, _GRID_AXIS)
_GRID_FACTOR = _GRID_FACTORS[np.abs(_GRID_AXIS).astype(np.intp)]  # factor k is |u| = k + 0.5
_GRID_WEIGHT = _GRID_FACTOR[:, None] * _GRID_FACTOR


def _sectors(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """The sector k, of [k pi/96, (k+1) pi/96), of each sample's angle
    np.mod(atan2(gy, gx), 2 pi) in [0, 2 pi]; 2 pi itself goes to the last.

    For an angle in [-pi, pi] numpy's float mod adds 2 pi to a negative one
    and keeps the rest, so that is what this does, at half the cost.
    """
    angle = np.arctan2(gy, gx)
    np.add(angle, 2.0 * math.pi, out=angle, where=angle < 0.0)
    return np.minimum((angle * (SECTORS / (2.0 * math.pi))).astype(np.intp), SECTORS - 1)


def _window_sums(sums: np.ndarray) -> np.ndarray:
    """The 64 window sums of sector sums (..., SECTORS): window w sums sectors
    3w .. 3w+31 (mod SECTORS) by a fixed tree of pairwise additions."""
    e = np.concatenate([sums, sums[..., :31]], axis=-1)
    for k in (1, 2, 4, 8, 16):
        e = e[..., :-k] + e[..., k:]
    return e[..., ::3]


def assign_orientation(table: np.ndarray, x: np.ndarray, y: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Dominant Haar-gradient direction of each point (x[i], y[i], scale[i]),
    from the padded table or its int32 wrap.

    The wrap is exact for the scales detection gives, s <= 22.8 (module
    docstring); a caller with larger scales passes the int64 table.

    Haar responses (size ~4s) are sampled on a radius-6s disc at step s and
    Gaussian-weighted (sigma 2.5s); a pi/3 window slides by pi/32 and the
    orientation is the angle, in [0, 2 pi), of the largest summed response
    vector.  Zero total response gives orientation 0.  Returns shape (N,).
    """
    theta = np.zeros(len(x))
    for b in _blocks(len(x), ORIENTATION_BLOCK):
        s = scale[b, None]
        n = len(s)
        size = _even_size(ORIENTATION_HAAR * s)
        px = np.floor(x[b, None] + _DISC_U * s + 0.5).astype(np.int64)
        py = np.floor(y[b, None] + _DISC_V * s + 0.5).astype(np.int64)
        g = _haar(table, px, py, size)
        g *= _DISC_WEIGHT
        # Bin (c, p, k) sums component c (gx, gy) of point p's samples in sector k.
        bins = _sectors(g[0], g[1]) + np.arange(2 * n).reshape(2, n, 1) * SECTORS
        sums = np.bincount(bins.ravel(), weights=g.ravel(), minlength=2 * n * SECTORS)
        sum_x, sum_y = _window_sums(sums.reshape(2, n, SECTORS))
        mag2 = sum_x * sum_x + sum_y * sum_y
        best = (np.arange(n), np.argmax(mag2, axis=1))
        picked = zip(mag2[best].tolist(), sum_x[best].tolist(), sum_y[best].tolist())
        theta[b] = [0.0 if m == 0.0 else math.atan2(sy, sx) % (2.0 * math.pi) for m, sx, sy in picked]
    return theta


def extract_descriptor(
    table: np.ndarray, x: np.ndarray, y: np.ndarray, scale: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """64-d descriptor of each point, from the padded table or its int32
    wrap: per-subregion (sum dx, sum dy, sum |dx|, sum |dy|).

    The wrap is exact for the scales detection gives, s <= 22.8 (module
    docstring); a caller with larger scales passes the int64 table.

    A 20s x 20s window rotated by theta[i] (0 for upright) is sampled on a
    20x20 grid (4x4 subregions of 5x5 samples) with Haar size ~2s and
    Gaussian weight sigma 3.3s; responses are rotated into the keypoint
    frame before accumulation.  Each vector is L2-normalized; an all-zero
    vector stays all-zero.  Returns shape (N, 64).
    """
    out = np.zeros((len(x), DESCRIPTOR_LENGTH))
    g, m = DESCRIPTOR_GRID, DESCRIPTOR_SAMPLES
    for b in _blocks(len(x), BLOCK):
        s = scale[b, None, None]
        angle = theta[b].tolist()
        cos_t = np.array([math.cos(t) for t in angle])[:, None, None]
        sin_t = np.array([math.sin(t) for t in angle])[:, None, None]
        size = _even_size(DESCRIPTOR_HAAR * s)
        rx = (_GRID_U * cos_t - _GRID_V * sin_t) * s
        ry = (_GRID_U * sin_t + _GRID_V * cos_t) * s
        px = np.floor(x[b, None, None] + rx + 0.5).astype(np.int64)
        py = np.floor(y[b, None, None] + ry + 0.5).astype(np.int64)
        dx0, dy0 = _haar(table, px, py, size)
        d = np.empty((2, len(s), _GRID_SIDE, _GRID_SIDE))
        np.multiply(_GRID_WEIGHT, dx0 * cos_t + dy0 * sin_t, out=d[0])
        np.multiply(_GRID_WEIGHT, -dx0 * sin_t + dy0 * cos_t, out=d[1])
        # (point, subregion row, subregion column, dx or dy, its 25 samples), contiguous.
        sub = d.reshape(2, -1, g, m, g, m).transpose(1, 2, 4, 0, 3, 5).reshape(-1, g, g, 2, m * m)
        vec = np.concatenate([sub.sum(-1), np.abs(sub).sum(-1)], axis=-1).reshape(-1, DESCRIPTOR_LENGTH)
        norm = np.sqrt(np.einsum("ij,ij->i", vec, vec))[:, None]
        np.divide(vec, norm, out=vec, where=norm > 0.0)
        out[b] = vec
    return out


def _extract(img: RasterImage, config: Optional[ExtractionConfig] = None) -> Features:
    """Full chain: grayscale, integral, response maps, detection, orientation, descriptors.

    With upright configuration the orientation stage is skipped (orientation
    stays 0).  Every stage reads one table, the int32 wrap of the padded
    table (module docstring).
    """
    config = config or ExtractionConfig()
    table = build_integral(to_grayscale(img)).astype(np.int32)
    points = detect_interest_points(table, build_response_maps(table, config), config.threshold)
    x, y, scale, response, sign = points.T
    theta = np.zeros(len(x)) if config.upright else assign_orientation(table, x, y, scale)
    return Features(points[:, :2], scale, response, theta, sign, extract_descriptor(table, x, y, scale, theta))


def extract_features(
    img: RasterImage, config: Optional[ExtractionConfig] = None
) -> tuple[list[InterestPoint], list[Descriptor]]:
    """`_extract`'s table as per-point objects: descriptors[i] corresponds to
    points[i], and both carry its Laplacian sign as an int."""
    f = _extract(img, config)
    sign = f.sign.tolist()
    x, y, scale, response, theta = (c.tolist() for c in (f.xy[:, 0], f.xy[:, 1], f.scale, f.response, f.orientation))
    return list(map(InterestPoint, x, y, scale, response, sign, theta)), list(map(Descriptor, f.desc, sign))

"""Raster images, grayscale conversion, integral images, and box sums.

Rectangular luminance sums cost O(1) via the four-corner identity on the
one table an `IntegralImage` holds: the zero-padded inclusive int64 prefix
table `padded`.  Haar responses, for orientation and descriptors, gather
eight corners per sample from the padded table with each index clamped into
it (see `features`); response maps read whole strided views of it, since
their interior cells never need clipping.  `box_level_sums` clips any
rectangles to the image, and `box_sums` is its unit-scaled form.

Values are immutable after construction; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def iround(x: float) -> int:
    """Round half up (0.5 -> 1, 2.5 -> 3), unlike banker's rounding."""
    return int(math.floor(x + 0.5))


@dataclass(eq=False)
class RasterImage:
    """8-bit RGB raster, row-major, shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"expected (h, w, 3) pixel array, got {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        self.pixels = px

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_gray(cls, levels: np.ndarray) -> "RasterImage":
        """Promote a 2-D 8-bit luminance array to an (v, v, v) raster."""
        levels = np.asarray(levels, dtype=np.uint8)
        return cls(np.repeat(levels[:, :, None], 3, axis=2))


@dataclass(eq=False)
class GrayImage:
    """Luminance raster: 8-bit levels plus the unit-scaled [0, 1] view.

    The real-valued view is exactly levels/255, so detector thresholds are
    independent of bit depth.
    """

    levels: np.ndarray

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=np.uint8)
        if lv.ndim != 2 or lv.shape[0] < 1 or lv.shape[1] < 1:
            raise ValueError(f"expected (h, w) level array, got {lv.shape}")
        self.levels = lv

    @property
    def width(self) -> int:
        return self.levels.shape[1]

    @property
    def height(self) -> int:
        return self.levels.shape[0]

    @cached_property
    def unit(self) -> np.ndarray:
        """float64 luminance in [0, 1], equal to levels/255 exactly."""
        return self.levels.astype(np.float64) / 255.0


@dataclass(eq=False)
class IntegralImage:
    """Zero-padded inclusive 2-D prefix sums of the 8-bit luminance levels.

    padded[y + 1, x + 1] is the sum of levels[j, i] for all i <= x, j <= y;
    row 0 and column 0 are zero, so corner lookups need no branch.  Sums are
    exact in int64 far past 4096x4096 images and are divided by 255 only at
    lookup time, so box sums of flat regions cancel to exactly zero.
    """

    padded: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.padded, dtype=np.int64)
        if p.ndim != 2 or p.shape[0] < 2 or p.shape[1] < 2:
            raise ValueError(f"expected (h + 1, w + 1) padded table, got {p.shape}")
        self.padded = p

    @property
    def width(self) -> int:
        return self.padded.shape[1] - 1

    @property
    def height(self) -> int:
        return self.padded.shape[0] - 1


def to_grayscale(img: RasterImage) -> GrayImage:
    """BT.601 luminance: round(0.299 r + 0.587 g + 0.114 b), half up, clamped."""
    rgb = img.pixels.astype(np.float64)
    lum = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    levels = np.clip(np.floor(lum + 0.5), 0.0, 255.0).astype(np.uint8)
    return GrayImage(levels)


def build_integral(gray: GrayImage) -> IntegralImage:
    """Padded prefix-sum table of the luminance, accumulated in place."""
    h, w = gray.levels.shape
    p = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(gray.levels, axis=0, dtype=np.int64, out=p[1:, 1:])
    np.cumsum(p[1:, 1:], axis=1, out=p[1:, 1:])
    return IntegralImage(p)


def box_level_sums(ii: IntegralImage, x0, y0, x1, y1) -> np.ndarray:
    """Vectorized clipped rectangle sums over integer levels (exact int64).

    Linear combinations of boxes (Hessian/Haar filters) should be formed on
    these integer sums and divided by 255 once, so flat regions cancel to
    exactly zero.
    """
    x0 = np.maximum(np.asarray(x0, dtype=np.int64), 0)
    y0 = np.maximum(np.asarray(y0, dtype=np.int64), 0)
    x1 = np.minimum(np.asarray(x1, dtype=np.int64), ii.width - 1)
    y1 = np.minimum(np.asarray(y1, dtype=np.int64), ii.height - 1)
    x0, y0, x1, y1 = np.broadcast_arrays(x0, y0, x1, y1)
    empty = (x0 > x1) | (y0 > y1)
    # Clamp empty rectangles to a valid cell so the gather stays in bounds.
    cx0 = np.where(empty, 0, x0)
    cy0 = np.where(empty, 0, y0)
    cx1 = np.where(empty, 0, x1)
    cy1 = np.where(empty, 0, y1)
    p = ii.padded
    s = (
        p[cy1 + 1, cx1 + 1]
        - p[cy0, cx1 + 1]
        - p[cy1 + 1, cx0]
        + p[cy0, cx0]
    )
    return np.where(empty, 0, s)


def box_sums(ii: IntegralImage, x0, y0, x1, y1) -> np.ndarray:
    """Sums of unit luminance over inclusive rectangles [x0..x1] x [y0..y1].

    Coordinate arrays (or scalars) in, float64 sums out.  Each rectangle is
    clipped to the image first; one that is empty after clipping sums to 0.
    """
    return box_level_sums(ii, x0, y0, x1, y1) / 255.0

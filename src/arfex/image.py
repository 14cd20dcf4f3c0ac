"""Raster images, grayscale conversion, integral images, and box sums.

Rectangular luminance sums cost O(1) via the four-corner identity on the
zero-padded inclusive prefix table `IntegralImage.padded`.  Haar responses
and descriptors gather corners per sample through `box_level_sums`, which
clips rectangles to the image; response maps read whole strided views of the
padded table, since their interior cells never need clipping.  `box_sum` and
`box_sums` are the unit-scaled forms.

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
    """Inclusive 2-D prefix sums of luminance.

    Sums are accumulated over integer 8-bit levels (exact in int64 far past
    4096x4096 images) and divided by 255 only at lookup time, so box sums of
    flat regions cancel to exactly zero.  `table` exposes the unit-scaled
    view: table[y, x] = sum of gray.unit[j, i] for all i <= x, j <= y.
    """

    level_sums: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.level_sums, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise ValueError(f"expected (h, w) table, got {t.shape}")
        self.level_sums = t

    @property
    def width(self) -> int:
        return self.level_sums.shape[1]

    @property
    def height(self) -> int:
        return self.level_sums.shape[0]

    @cached_property
    def table(self) -> np.ndarray:
        """Unit-scaled prefix sums (float64)."""
        return self.level_sums / 255.0

    @cached_property
    def padded(self) -> np.ndarray:
        """Integer table with a zero row/column prepended; makes corner
        lookups branchless."""
        h, w = self.level_sums.shape
        p = np.zeros((h + 1, w + 1), dtype=np.int64)
        p[1:, 1:] = self.level_sums
        return p


def to_grayscale(img: RasterImage) -> GrayImage:
    """BT.601 luminance: round(0.299 r + 0.587 g + 0.114 b), half up, clamped."""
    rgb = img.pixels.astype(np.float64)
    lum = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    levels = np.clip(np.floor(lum + 0.5), 0.0, 255.0).astype(np.uint8)
    return GrayImage(levels)


def build_integral(gray: GrayImage) -> IntegralImage:
    """Inclusive 2-D prefix sum of the luminance."""
    sums = np.cumsum(np.cumsum(gray.levels.astype(np.int64), axis=0), axis=1)
    return IntegralImage(sums)


def box_sum(ii: IntegralImage, x0: int, y0: int, x1: int, y1: int) -> float:
    """Sum of unit luminance over the inclusive rectangle [x0..x1] x [y0..y1].

    The rectangle is clipped to the image first; empty after clipping -> 0.
    O(1): four corner lookups on the padded prefix table.
    """
    x0 = max(int(x0), 0)
    y0 = max(int(y0), 0)
    x1 = min(int(x1), ii.width - 1)
    y1 = min(int(y1), ii.height - 1)
    if x0 > x1 or y0 > y1:
        return 0.0
    p = ii.padded
    return float(p[y1 + 1, x1 + 1] - p[y0, x1 + 1] - p[y1 + 1, x0] + p[y0, x0]) / 255.0


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
    """Vectorized `box_sum`: coordinate arrays in, unit-scale sums out.

    Same clipping semantics as the scalar form, applied elementwise.
    """
    return box_level_sums(ii, x0, y0, x1, y1) / 255.0

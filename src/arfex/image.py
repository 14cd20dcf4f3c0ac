"""Raster images, grayscale conversion and integral images.

Gray levels and integral images are plain arrays.  `to_grayscale` gives the
(h, w) uint8 level array; `build_integral` gives its zero-padded inclusive
int64 prefix table P, of shape (h + 1, w + 1): P[y + 1, x + 1] is the sum of
levels[j, i] for all i <= x, j <= y, and row 0 and column 0 are zero, so
corner lookups need no branch.  Sums are exact in int64 far past 4096x4096
images and are divided by 255 only at lookup time, so box sums of flat
regions cancel to exactly zero.  Width and height are read from the table's
shape.

Rectangular luminance sums cost O(1) via the four-corner identity on P,
and `features` takes them all itself: Haar responses, for orientation and
descriptors, gather eight corners per sample from P with each index
clamped into it; response maps take strip differences of strided row and
column slices of an int32 copy of it, one row band at a time.

All functions are pure: none writes to its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def to_grayscale(img: RasterImage) -> np.ndarray:
    """BT.601 luminance: round(0.299 r + 0.587 g + 0.114 b), half up, clamped.

    One channel at a time into one float buffer, with the sums in that order.
    Returns the (height, width) uint8 level array.
    """
    px = img.pixels
    lum = np.multiply(px[:, :, 0], 0.299, dtype=np.float64)
    term = np.multiply(px[:, :, 1], 0.587, dtype=np.float64)
    lum += term
    np.multiply(px[:, :, 2], 0.114, out=term, dtype=np.float64)
    lum += term
    lum += 0.5
    np.floor(lum, out=lum)
    np.clip(lum, 0.0, 255.0, out=lum)
    return lum.astype(np.uint8)


def build_integral(levels: np.ndarray) -> np.ndarray:
    """Padded prefix-sum table of the (h, w) 8-bit levels, accumulated in place.

    Levels enter the extractor here, so this is where a level array that
    is not uint8, not 2-D or empty is refused, with ValueError: a cast
    would silently wrap out-of-range levels and truncate fractional ones.
    Returns the (h + 1, w + 1) int64 table P of the module docstring.
    """
    levels = np.asarray(levels)
    if levels.dtype != np.uint8:
        raise ValueError(f"expected uint8 levels, got {levels.dtype}")
    if levels.ndim != 2 or levels.size == 0:
        raise ValueError(f"expected (h, w) level array, got {levels.shape}")
    h, w = levels.shape
    p = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(levels, axis=0, dtype=np.int64, out=p[1:, 1:])
    np.cumsum(p[1:, 1:], axis=1, out=p[1:, 1:])
    return p

"""Overlay rasterization: midpoint circles and clipped Bresenham lines, 1 px pure red."""

from __future__ import annotations

import math

import numpy as np

from .geometry import Homography, project_point
from .image import RasterImage, iround

RED = (255, 0, 0)


def _plot(pixels: np.ndarray, x: int, y: int, color) -> None:
    if 0 <= x < pixels.shape[1] and 0 <= y < pixels.shape[0]:
        pixels[y, x] = color


def draw_circle(pixels: np.ndarray, cx: int, cy: int, radius: int, color=RED) -> None:
    """Midpoint circle; radius 0 plots the center pixel."""
    if radius <= 0:
        _plot(pixels, cx, cy, color)
        return
    x, y = radius, 0
    err = 1 - radius
    while x >= y:
        for dx, dy in ((x, y), (y, x), (-y, x), (-x, y), (-x, -y), (-y, -x), (y, -x), (x, -y)):
            _plot(pixels, cx + dx, cy + dy, color)
        y += 1
        if err < 0:
            err += 2 * y + 1
        else:
            x -= 1
            err += 2 * (y - x) + 1


def draw_line(pixels: np.ndarray, x0: int, y0: int, x1: int, y1: int, color=RED) -> None:
    """Bresenham line, endpoints inclusive, clipped to the raster.

    Step i in [0, dx] of an x-major walk (dx = |x1 - x0| >= dy = |y1 - y0|) is
    at (x0 + sx*i, y0 + sy*floor((2*i*dy + dx) / (2*dx))), as the incremental
    walk puts it; a y-major walk is the same on the transposed raster.  Only
    steps with x inside the raster are visited: the cost is bounded by the
    raster, not by the segment (a stored object size can be huge).
    """
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    if dy > dx:
        draw_line(pixels.swapaxes(0, 1), y0, x0, y1, x1, color)
        return
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    width = pixels.shape[1]
    lo, hi = (-x0, width - 1 - x0) if sx > 0 else (x0 - width + 1, x0)
    for i in range(max(lo, 0), min(hi, dx) + 1):
        _plot(pixels, x0 + sx * i, y0 + sy * ((2 * i * dy + dx) // max(2 * dx, 1)), color)


def keypoint_overlay(img: RasterImage, xy: np.ndarray, scale: np.ndarray, orientation: np.ndarray) -> RasterImage:
    """Copy of the image with a red circle (radius 2.5 x scale) and an
    orientation tick at every keypoint: row i of the (N, 2) `xy` and
    element i of `scale` and `orientation`."""
    pixels = img.pixels.copy()
    for (x, y), s, t in zip(xy.tolist(), scale.tolist(), orientation.tolist()):
        cx, cy = iround(x), iround(y)
        r = max(1, iround(2.5 * s))
        draw_circle(pixels, cx, cy, r)
        draw_line(pixels, cx, cy, iround(x + r * math.cos(t)), iround(y + r * math.sin(t)))
    return RasterImage(pixels)


def recognition_overlay(
    img: RasterImage,
    xy: np.ndarray,
    scale: np.ndarray,
    hom: Homography,
    object_size: tuple[int, int],
) -> RasterImage:
    """The inlier keypoints, at the (N, 2) `xy` and `scale`, plus the indexed
    object's frame: its corners projected through the homography, drawn as
    a quadrilateral."""
    pixels = img.pixels.copy()
    for (x, y), s in zip(xy.tolist(), scale.tolist()):
        draw_circle(pixels, iround(x), iround(y), max(1, iround(2.5 * s)))
    w, h = object_size
    corners = [(0.0, 0.0), (w - 1.0, 0.0), (w - 1.0, h - 1.0), (0.0, h - 1.0)]
    projected = [project_point(hom, c) for c in corners]
    for k in range(4):
        x0, y0 = projected[k]
        x1, y1 = projected[(k + 1) % 4]
        draw_line(pixels, iround(x0), iround(y0), iround(x1), iround(y1))
    return RasterImage(pixels)

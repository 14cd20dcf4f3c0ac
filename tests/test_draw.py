"""Overlay lines against the incremental Bresenham walk they replace."""

import itertools
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from arfex.draw import RED, _plot, draw_line, recognition_overlay
from arfex.geometry import Homography
from arfex.image import RasterImage


def reference_line(pixels, x0, y0, x1, y1, color=RED):
    """The incremental walk: every step of the segment, plotted if inside."""
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        _plot(pixels, x, y, color)
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def both(shape, *segment):
    got = np.zeros((*shape, 3), dtype=np.uint8)
    want = got.copy()
    draw_line(got, *segment)
    reference_line(want, *segment)
    return got, want


def test_every_short_segment_matches_the_walk():
    # Both endpoints anywhere in [-3, 6] x [-3, 5], around a 4 x 3 raster.
    ends = list(itertools.product(range(-3, 7), range(-3, 6)))
    for (x0, y0), (x1, y1) in itertools.product(ends, ends):
        got, want = both((3, 4), x0, y0, x1, y1)
        assert np.array_equal(got, want), (x0, y0, x1, y1)


RASTER = (23, 31)  # height, width


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(-3 * RASTER[1], 4 * RASTER[1]),
    st.integers(-3 * RASTER[0], 4 * RASTER[0]),
    st.integers(-3 * RASTER[1], 4 * RASTER[1]),
    st.integers(-3 * RASTER[0], 4 * RASTER[0]),
)
def test_segments_up_to_three_rasters_outside_match_the_walk(x0, y0, x1, y1):
    got, want = both(RASTER, x0, y0, x1, y1)
    assert np.array_equal(got, want)


def test_huge_object_frame_draws_in_bounded_time():
    img = RasterImage(np.zeros((120, 160, 3), dtype=np.uint8))
    start = time.perf_counter()
    out = recognition_overlay(img, np.zeros((0, 2)), np.zeros(0), Homography(np.eye(3)), (10**9, 10**9))
    assert time.perf_counter() - start < 1.0
    red = (out.pixels == RED).all(axis=2)
    assert red[0].all() and red[:, 0].all()
    assert red.sum() == 160 + 120 - 1

"""Grayscale conversion, integral images, and box sums against direct summation."""

import numpy as np
import pytest

from arfex.image import RasterImage, build_integral, to_grayscale
from boxes import box_sums
from conftest import random_gray, random_raster
from oracles import naive_box_sum, slice_box_sum


def solid(r, g, b, w=4, h=4):
    px = np.zeros((h, w, 3), dtype=np.uint8)
    px[:] = (r, g, b)
    return RasterImage(px)


def test_grayscale_white_maps_to_max():
    assert to_grayscale(solid(255, 255, 255))[0, 0] == 255


def test_grayscale_black_maps_to_zero():
    assert to_grayscale(solid(0, 0, 0))[0, 0] == 0


def test_grayscale_pure_red():
    # round(0.299 * 255) = round(76.245) = 76
    assert to_grayscale(solid(255, 0, 0))[0, 0] == 76


def test_grayscale_rounds_half_up():
    # 0.299*1 + 0.587*0 + 0.114*3 = 0.641 -> 1;  0.299*1 = 0.299 -> 0
    assert to_grayscale(solid(1, 0, 3))[0, 0] == 1
    assert to_grayscale(solid(1, 0, 0))[0, 0] == 0


def test_grayscale_equals_whole_raster_float_formula_on_every_colour():
    # All 2**24 colours, one red level (65,536 pixels) at a time, against
    # the formula on a float64 copy of the raster.
    green, blue = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    px = np.empty((256, 256, 3), dtype=np.uint8)
    px[:, :, 1] = green
    px[:, :, 2] = blue
    for red in range(256):
        px[:, :, 0] = red
        rgb = px.astype(np.float64)
        lum = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
        want = np.clip(np.floor(lum + 0.5), 0.0, 255.0).astype(np.uint8)
        assert to_grayscale(RasterImage(px)).tobytes() == want.tobytes(), red


def test_grayscale_idempotent_on_gray_input():
    values = np.arange(256, dtype=np.uint8).reshape(16, 16)
    img = RasterImage.from_gray(values)
    assert np.array_equal(to_grayscale(img), values)


def test_grayscale_preserves_dimensions(rng):
    img = random_raster(rng, 7, 11)
    assert to_grayscale(img).shape == (11, 7)


def test_levels_and_table_are_plain_arrays(rng):
    img = random_raster(rng, 13, 6)
    levels = to_grayscale(img)
    assert type(levels) is np.ndarray and levels.dtype == np.uint8 and levels.shape == (6, 13)
    table = build_integral(levels)
    assert type(table) is np.ndarray and table.dtype == np.int64 and table.shape == (7, 14)
    assert table.flags.c_contiguous
    assert not table[0].any() and not table[:, 0].any()


def test_integral_single_cell():
    ii = build_integral(np.array([[128]], dtype=np.uint8))
    assert ii.tolist() == [[0, 0], [0, 128]]


def test_integral_all_ones_3x3():
    ii = build_integral(np.full((3, 3), 255, dtype=np.uint8))
    for y in range(3):
        for x in range(3):
            assert ii[y + 1, x + 1] == 255 * (x + 1) * (y + 1)


def test_integral_matches_double_loop_oracle(rng):
    g = random_gray(rng, 8, 8)
    ii = build_integral(g)
    for y in range(8):
        for x in range(8):
            assert ii[y + 1, x + 1] == naive_box_sum(g.astype(np.int64), 0, 0, x, y)


def test_integral_is_one_padded_prefix_table(rng):
    g = random_gray(rng, 37, 23)
    ii = build_integral(g)
    want = np.zeros((24, 38), dtype=np.int64)
    want[1:, 1:] = np.cumsum(np.cumsum(g.astype(np.int64), axis=0), axis=1)
    assert ii.dtype == np.int64
    assert np.array_equal(ii, want)


def test_integral_monotone_under_pixel_increase(rng):
    levels = rng.integers(0, 200, size=(6, 6), dtype=np.uint8)
    base = build_integral(levels)
    bumped = levels.copy()
    bumped[3, 2] += 50
    new = build_integral(bumped)
    assert np.all(new >= base)
    assert new[6, 6] > base[6, 6]


def test_box_sum_full_image_all_ones():
    ii = build_integral(np.full((4, 4), 255, dtype=np.uint8))
    assert box_sums(ii, 0, 0, 3, 3) == pytest.approx(16.0, abs=1e-12)


def test_box_sum_single_pixel(rng):
    g = random_gray(rng, 6, 6)
    ii = build_integral(g)
    assert box_sums(ii, 2, 3, 2, 3) == pytest.approx(g[3, 2] / 255.0, abs=1e-12)


def test_box_sum_random_rects_match_oracle(rng):
    g = random_gray(rng, 16, 16)
    ii = build_integral(g)
    for _ in range(200):
        x0, x1 = sorted(rng.integers(0, 16, size=2))
        y0, y1 = sorted(rng.integers(0, 16, size=2))
        expected = naive_box_sum(g / 255.0, x0, y0, x1, y1)
        assert box_sums(ii, x0, y0, x1, y1) == pytest.approx(expected, abs=1e-9)


def test_box_sum_clips_out_of_bounds(rng):
    g = random_gray(rng, 10, 10)
    ii = build_integral(g)
    for rect in [(-3, -3, 4, 4), (5, 5, 30, 30), (-5, 2, 20, 7)]:
        assert box_sums(ii, *rect) == pytest.approx(slice_box_sum(g / 255.0, *rect), abs=1e-9)


def test_box_sum_empty_after_clipping_is_zero(rng):
    g = random_gray(rng, 10, 10)
    ii = build_integral(g)
    assert box_sums(ii, 12, 0, 20, 5) == 0.0
    assert box_sums(ii, 0, -7, 5, -2) == 0.0
    assert box_sums(ii, -4, -4, -1, -1) == 0.0


def test_box_sum_additivity_of_adjacent_rects(rng):
    g = random_gray(rng, 20, 20)
    ii = build_integral(g)
    for _ in range(100):
        x0, xm, x1 = sorted(rng.integers(0, 20, size=3))
        y0, y1 = sorted(rng.integers(0, 20, size=2))
        if xm == x1:
            continue
        whole = box_sums(ii, x0, y0, x1, y1)
        left = box_sums(ii, x0, y0, xm, y1)
        right = box_sums(ii, xm + 1, y0, x1, y1)
        assert whole == pytest.approx(left + right, abs=1e-9)


def test_box_sums_vectorized_matches_scalar(rng):
    g = random_gray(rng, 16, 12)
    ii = build_integral(g)
    x0 = rng.integers(-4, 16, size=50)
    y0 = rng.integers(-4, 12, size=50)
    x1 = x0 + rng.integers(0, 10, size=50)
    y1 = y0 + rng.integers(0, 10, size=50)
    vec = box_sums(ii, x0, y0, x1, y1)
    for k in range(50):
        assert vec[k] == box_sums(ii, x0[k], y0[k], x1[k], y1[k])
        assert vec[k] == pytest.approx(slice_box_sum(g / 255.0, x0[k], y0[k], x1[k], y1[k]), abs=1e-9)


def test_raster_rejects_bad_shapes():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4), dtype=np.uint8))
    for levels in (np.zeros((0, 4), dtype=np.uint8), np.zeros((4, 4, 3), dtype=np.uint8)):
        with pytest.raises(ValueError):
            build_integral(levels)


@pytest.mark.parametrize(
    "levels",
    [np.array([[300, -1]]), np.array([[0.9, 255.7]]), np.array([[True, False]]), np.array([[1, 2]], dtype=np.int8)],
    ids=["out-of-range", "fractional", "bool", "int8"],
)
def test_integral_refuses_levels_that_are_not_uint8(levels):
    # A cast would give the table of [[44, 255]], [[0, 255]] and [[1, 0]].
    with pytest.raises(ValueError, match="uint8"):
        build_integral(levels)

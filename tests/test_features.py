"""Response maps, detection, orientation, and descriptors against direct oracles."""

import dataclasses
import math

import numpy as np
import pytest

from arfex import features
from arfex.errors import ImageTooSmall
from arfex.features import (
    BAND_CELLS,
    BLOCK,
    ExtractionConfig,
    InterestPoint,
    ResponseMap,
    _haar,
    _window_mask,
    assign_orientation,
    build_response_maps,
    detect_interest_points,
    extract_descriptor,
    extract_features,
    filter_sizes,
)
from arfex.image import IntegralImage, RasterImage, box_level_sums, build_integral, to_grayscale
from synthetic import apply_gain_offset, blob_texture, similarity_map, warp_similarity
from conftest import gray_raster, random_raster
from oracles import hessian_response_at, slice_box_sum


def blob_image(w, h, centers, sigma, amp=120, bg=40):
    ys, xs = np.mgrid[0:h, 0:w]
    f = np.full((h, w), float(bg))
    for cx, cy in centers:
        f += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma * sigma))
    return gray_raster(np.clip(np.floor(f + 0.5), 0, 255))


def integral_of(img):
    return build_integral(to_grayscale(img))


def noise_frame(seed=1, side=256):
    return gray_raster(np.random.default_rng(seed).integers(0, 256, size=(side, side)))


def test_filter_size_ladder():
    assert filter_sizes(1, 4) == [9, 15, 21, 27]
    assert filter_sizes(2, 4) == [15, 27, 39, 51]
    assert filter_sizes(3, 4) == [27, 51, 75, 99]


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(octaves=5)
    for bad in (-1.0, math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError):
            ExtractionConfig(threshold=bad)
    assert ExtractionConfig(threshold=10**300).threshold == 10**300


def test_config_round_trips_through_dict():
    cfg = ExtractionConfig(octaves=2, threshold=1e-3, upright=True)
    assert ExtractionConfig.from_dict(cfg.to_dict()) == cfg


def test_image_too_small():
    with pytest.raises(ImageTooSmall):
        build_response_maps(integral_of(gray_raster(np.full((4, 4), 99))))


def test_map_grid_dimensions_and_metadata():
    maps = build_response_maps(integral_of(gray_raster(np.full((50, 70), 99))))
    assert len(maps) == 3
    for octave, m in enumerate(maps, start=1):
        gh = -(-50 // m.stride)
        gw = -(-70 // m.stride)
        assert m.responses.shape == (4, gh, gw)
        assert m.laplacian_signs.shape == (4, gh, gw)
        assert m.filter_sizes == tuple(filter_sizes(octave, 4))
        assert all(size % 2 == 1 for size in m.filter_sizes)
    assert [m.stride for m in maps] == [1, 2, 4]


def test_constant_image_all_responses_zero():
    maps = build_response_maps(integral_of(gray_raster(np.full((48, 48), 123))))
    for m in maps:
        assert np.all(m.responses == 0.0)
        assert np.all(m.laplacian_signs == 1)


def test_response_maps_equal_direct_box_filter_oracle(rng):
    img = random_raster(rng, 40, 36)
    ii = integral_of(img)
    levels = to_grayscale(img).levels
    for m in build_response_maps(ii, ExtractionConfig(octaves=2)):
        for k, size in enumerate(m.filter_sizes):
            for i in range(m.responses.shape[1]):
                for j in range(m.responses.shape[2]):
                    want, sign = hessian_response_at(levels, j * m.stride, i * m.stride, size)
                    assert m.responses[k, i, j] == pytest.approx(want, abs=1e-9)
                    assert m.laplacian_signs[k, i, j] == sign


def gather_hessian_grid(ii, stride, size):
    """Clipped-gather reference: every grid cell through `box_level_sums`,
    with the exterior masked to (0.0, +1) afterwards."""
    xs = np.arange(0, ii.width, stride, dtype=np.int64)
    ys = np.arange(0, ii.height, stride, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys)
    lobe = size // 3
    border = (size - 1) // 2
    half = (lobe - 1) // 2
    inside = (
        (gx >= border)
        & (gx <= ii.width - 1 - border)
        & (gy >= border)
        & (gy <= ii.height - 1 - border)
    )
    dxx = box_level_sums(ii, gx - border, gy - lobe + 1, gx + border, gy + lobe - 1) - 3 * box_level_sums(
        ii, gx - half, gy - lobe + 1, gx + half, gy + lobe - 1
    )
    dyy = box_level_sums(ii, gx - lobe + 1, gy - border, gx + lobe - 1, gy + border) - 3 * box_level_sums(
        ii, gx - lobe + 1, gy - half, gx + lobe - 1, gy + half
    )
    dxy = (
        box_level_sums(ii, gx + 1, gy - lobe, gx + lobe, gy - 1)
        + box_level_sums(ii, gx - lobe, gy + 1, gx - 1, gy + lobe)
        - box_level_sums(ii, gx - lobe, gy - lobe, gx - 1, gy - 1)
        - box_level_sums(ii, gx + 1, gy + 1, gx + lobe, gy + lobe)
    )
    inv_area = 1.0 / (255.0 * size * size)
    dxx = dxx * inv_area
    dyy = dyy * inv_area
    dxy = dxy * inv_area
    responses = np.where(inside, dxx * dyy - (0.9 * dxy) ** 2, 0.0)
    signs = np.where(inside & (dxx + dyy < 0), -1, 1).astype(np.int8)
    return responses, signs


@pytest.mark.parametrize(
    "levels",
    [
        np.random.default_rng(1).integers(0, 256, size=(9, 9)),
        np.random.default_rng(2).integers(0, 256, size=(10, 200)),
        np.random.default_rng(3).integers(0, 256, size=(200, 10)),
        np.random.default_rng(4).integers(0, 256, size=(97, 333)),
        np.full((64, 48), 200),
        blob_texture(256, 256, seed=3).pixels[:, :, 0],
    ],
    ids=["noise9x9", "noise10x200", "noise200x10", "noise97x333", "flat", "texture256"],
)
def test_response_maps_bit_identical_to_clipped_gather(levels):
    # Covers empty interiors (every octave-4 size on 9x9), strides larger
    # than the interior, and odd sizes; octave-k maps must not depend on
    # how many octaves were requested.
    ii = integral_of(gray_raster(levels))
    for octaves in range(1, 5):
        maps = build_response_maps(ii, ExtractionConfig(octaves=octaves))
        assert len(maps) == octaves
        for m in maps:
            assert m.responses.dtype == np.float64 and m.laplacian_signs.dtype == np.int8
            for k, size in enumerate(m.filter_sizes):
                want_resp, want_signs = gather_hessian_grid(ii, m.stride, size)
                assert m.responses[k].shape == want_resp.shape
                assert m.responses[k].tobytes() == want_resp.tobytes()
                assert m.laplacian_signs[k].tobytes() == want_signs.tobytes()


def test_octave_layers_repeat_the_previous_octaves_odd_layers():
    for octave in range(2, 5):
        assert filter_sizes(octave, 4)[:2] == filter_sizes(octave - 1, 4)[1::2]


@pytest.mark.parametrize(
    "height, width",
    [(12, 40000), (37, 300), (300, 11), (201, 157)],
    ids=["12x40000", "37x300", "300x11", "201x157"],
)
def test_banded_layers_bit_identical_to_clipped_gather(monkeypatch, height, width):
    # 12x40000 has one-row bands at BAND_CELLS; 1000 cells gives 201x157
    # six-row bands with one row left over, and 1 cell one-row bands
    # everywhere.  Reused layers must be the previous octave's, every other cell.
    levels = np.random.default_rng(height * width).integers(0, 256, size=(height, width))
    ii = integral_of(gray_raster(levels))
    want = {}
    for band_cells in (BAND_CELLS, 1000, 1):
        monkeypatch.setattr(features, "BAND_CELLS", band_cells)
        maps = build_response_maps(ii, ExtractionConfig(octaves=4))
        for m in maps:
            for k, size in enumerate(m.filter_sizes):
                if (m.stride, size) not in want:
                    want[m.stride, size] = gather_hessian_grid(ii, m.stride, size)
                want_resp, want_signs = want[m.stride, size]
                assert m.responses[k].tobytes() == want_resp.tobytes(), (band_cells, m.stride, size)
                assert m.laplacian_signs[k].tobytes() == want_signs.tobytes(), (band_cells, m.stride, size)
        for prev, m in zip(maps, maps[1:]):
            assert m.responses[:2].tobytes() == prev.responses[1::2, ::2, ::2].tobytes()
            assert m.laplacian_signs[:2].tobytes() == prev.laplacian_signs[1::2, ::2, ::2].tobytes()


def test_response_maps_exact_when_the_table_wraps_int32():
    # Box sums cancel any term that depends on the row alone or the column
    # alone, so this table gives the same maps as the plain one.  Every entry
    # is near 2**60: an int32 copy wraps on each one, and float64 would round.
    levels = np.random.default_rng(5).integers(0, 256, size=(211, 203))
    ii = integral_of(gray_raster(levels))
    rng = np.random.default_rng(6)
    h, w = ii.padded.shape
    rows = rng.integers(-(2**45), 2**45, size=(h, 1))
    cols = rng.integers(-(2**45), 2**45, size=(1, w))
    shifted = IntegralImage(ii.padded + rows + cols + 2**60)
    config = ExtractionConfig(octaves=4)
    for m, s in zip(build_response_maps(ii, config), build_response_maps(shifted, config)):
        assert np.any(m.responses[-1] != 0.0)
        assert s.responses.tobytes() == m.responses.tobytes()
        assert s.laplacian_signs.tobytes() == m.laplacian_signs.tobytes()


def test_hessian_oracle_rejects_unit_floats(rng):
    gray = to_grayscale(random_raster(rng, 16, 16))
    with pytest.raises(TypeError):
        hessian_response_at(gray.unit, 8, 8, 9)


def test_matched_interval_map_peaks_at_blob_center():
    # sigma 2.0 corresponds to filter size 15 = octave 1, interval 2
    img = blob_image(64, 64, [(32, 32)], 2.0)
    layer = build_response_maps(integral_of(img))[0].responses[1]
    i, j = np.unravel_index(np.argmax(layer), layer.shape)
    assert abs(j - 32) <= 1 and abs(i - 32) <= 1


def test_checkerboard_saddle_negative_response():
    f = np.full((64, 64), 40, dtype=np.uint8)
    f[:32, :32] = 200
    f[32:, 32:] = 200
    maps = build_response_maps(integral_of(gray_raster(f)))
    assert maps[0].responses[0, 32, 32] < 0.0


def test_laplacian_sign_tracks_blob_polarity():
    bright = blob_image(64, 64, [(32, 32)], 3.0, amp=120, bg=40)
    dark = blob_image(64, 64, [(32, 32)], 3.0, amp=-120, bg=200)
    for img, want in ((bright, -1), (dark, 1)):
        pts, _ = extract_features(img)
        assert pts and pts[0].laplacian_sign == want


def test_detect_constant_image_empty():
    img = gray_raster(np.full((64, 64), 99))
    maps = build_response_maps(integral_of(img))
    assert detect_interest_points(maps, 4e-4) == []


def test_detect_single_blob():
    img = blob_image(128, 128, [(64, 64)], 3.0)
    pts, _ = extract_features(img)
    assert len(pts) == 1
    assert math.hypot(pts[0].x - 64, pts[0].y - 64) <= 2.0


def test_detect_two_blobs_80px_apart():
    img = blob_image(160, 160, [(40, 80), (120, 80)], 3.0)
    pts, _ = extract_features(img)
    assert len(pts) == 2
    found = sorted((p.x, p.y) for p in pts)
    assert math.hypot(found[0][0] - 40, found[0][1] - 80) <= 2.0
    assert math.hypot(found[1][0] - 120, found[1][1] - 80) <= 2.0


def test_detection_requires_three_intervals():
    img = blob_image(64, 64, [(32, 32)], 3.0)
    m = build_response_maps(integral_of(img))[0]
    with pytest.raises(ValueError, match="3 intervals"):
        ResponseMap(m.stride, m.filter_sizes[:2], m.responses[:2], m.laplacian_signs[:2])


def test_response_map_layers_must_match_filter_sizes():
    m = build_response_maps(integral_of(blob_image(64, 64, [(32, 32)], 3.0)))[0]
    for responses, signs in [
        (m.responses[:3], m.laplacian_signs[:3]),
        (m.responses, m.laplacian_signs[:, 1:]),
        (m.responses[0], m.laplacian_signs[0]),
    ]:
        with pytest.raises(ValueError, match="shape"):
            ResponseMap(m.stride, m.filter_sizes, responses, signs)


def test_nms_soundness_by_reinspection():
    """Every returned point maps to a stored-map cell that strictly exceeds
    its 26 neighbors and the threshold."""
    img = blob_texture(128, 128, 10, seed=3)
    ii = integral_of(img)
    cfg = ExtractionConfig()
    maps = build_response_maps(ii, cfg)
    pts = detect_interest_points(maps, cfg.threshold)
    assert pts
    for p in pts:
        hits = 0
        for m in maps:
            stack = m.responses
            stride = m.stride
            n, gh, gw = stack.shape
            for k in range(1, n - 1):
                i = round(p.y / stride)
                j = round(p.x / stride)
                if not (1 <= i < gh - 1 and 1 <= j < gw - 1):
                    continue
                if stack[k, i, j] != p.response:
                    continue
                if abs(j * stride - p.x) > 0.5 * stride or abs(i * stride - p.y) > 0.5 * stride:
                    continue
                neighborhood = stack[k - 1 : k + 2, i - 1 : i + 2, j - 1 : j + 2]
                others = np.delete(neighborhood.ravel(), 13)
                assert np.all(p.response > others)
                assert p.response > cfg.threshold
                hits += 1
        assert hits >= 1


def reference_refine(m, k, i, j):
    """Per-candidate reference: one quadratic step, one 3x3 solve."""
    c = m.responses[k - 1 : k + 2, i - 1 : i + 2, j - 1 : j + 2]
    dx = (c[1, 1, 2] - c[1, 1, 0]) / 2.0
    dy = (c[1, 2, 1] - c[1, 0, 1]) / 2.0
    ds = (c[2, 1, 1] - c[0, 1, 1]) / 2.0
    v = c[1, 1, 1]
    dxx = c[1, 1, 2] - 2 * v + c[1, 1, 0]
    dyy = c[1, 2, 1] - 2 * v + c[1, 0, 1]
    dss = c[2, 1, 1] - 2 * v + c[0, 1, 1]
    dxy = (c[1, 2, 2] - c[1, 2, 0] - c[1, 0, 2] + c[1, 0, 0]) / 4.0
    dxs = (c[2, 1, 2] - c[2, 1, 0] - c[0, 1, 2] + c[0, 1, 0]) / 4.0
    dys = (c[2, 2, 1] - c[2, 0, 1] - c[0, 2, 1] + c[0, 0, 1]) / 4.0
    hess = np.array([[dxx, dxy, dxs], [dxy, dyy, dys], [dxs, dys, dss]])
    grad = np.array([dx, dy, ds])
    try:
        offset = -np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs(offset)) > 0.5:
        return None
    step = m.filter_sizes[k + 1] - m.filter_sizes[k]
    size = m.filter_sizes[k] + offset[2] * step
    return InterestPoint(
        x=float((j + offset[0]) * m.stride),
        y=float((i + offset[1]) * m.stride),
        scale=float(1.2 * size / 9),
        response=float(v),
        laplacian_sign=int(m.laplacian_signs[k, i, j]),
    )


def dense_nms_reference(maps, threshold):
    """Dense reference: every middle-layer cell compared with its 26
    neighbours, then a per-candidate refinement and the library's order."""
    points = []
    for m in maps:
        stack = m.responses
        n, gh, gw = stack.shape
        if gh < 3 or gw < 3:
            continue
        for k in range(1, n - 1):
            core = stack[k, 1:-1, 1:-1]
            mask = core > threshold
            for dk in (-1, 0, 1):
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        if dk or di or dj:
                            mask &= core > stack[k + dk, 1 + di : gh - 1 + di, 1 + dj : gw - 1 + dj]
            for i, j in np.argwhere(mask) + 1:
                pt = reference_refine(m, k, int(i), int(j))
                if pt is not None:
                    points.append(pt)
    points.sort(key=lambda p: (-p.response, p.y, p.x, p.scale))
    return points


def tied_maps(rng, octaves, h, w):
    """Response maps of small integers, so equal neighbours are common."""
    maps = []
    for octave in range(1, octaves + 1):
        stride = 1 << (octave - 1)
        shape = (-(-h // stride), -(-w // stride))
        layers = [
            (
                rng.integers(0, 6, size=shape).astype(np.float64),
                np.where(rng.random(shape) < 0.5, -1, 1).astype(np.int8),
            )
            for _ in range(4)
        ]
        responses, signs = (np.stack(a) for a in zip(*layers))
        maps.append(ResponseMap(stride, tuple(filter_sizes(octave, 4)), responses, signs))
    return maps


def test_sparse_nms_equals_dense_reference(rng):
    for octaves, (h, w) in [(1, (3, 3)), (2, (5, 40)), (3, (33, 31)), (4, (64, 48))]:
        for threshold in (0.0, 2.0, 4.0, 5.0):
            maps = tied_maps(rng, octaves, h, w)
            assert detect_interest_points(maps, threshold) == dense_nms_reference(maps, threshold)
    for img in (noise_frame(seed=9, side=112), blob_texture(128, 96, 9)):
        maps = build_response_maps(integral_of(img), ExtractionConfig(octaves=4))
        want = dense_nms_reference(maps, 4e-4)
        assert want and detect_interest_points(maps, 4e-4) == want


def test_singular_candidate_beside_regular_one():
    """A singular Hessian in a layer's stack falls back to one solve per
    candidate: the regular point survives, the singular one is dropped."""
    layers = np.zeros((4, 9, 9))
    for j in (2, 6):  # a candidate at (i, j) = (2, j) of layer 1
        layers[1, 2, j] = 10.0
        layers[1, [1, 3, 2, 2], [j, j, j - 1, j + 1]] = 9.0
        layers[[0, 2], 2, j] = 9.0
    # At j = 2 the xy corners 9/5/5/9 give dxx = dyy = -2 and dxy = 2, so the
    # Hessian's first two rows are dependent.
    layers[1, [1, 1, 3, 3], [1, 3, 1, 3]] = [9.0, 5.0, 5.0, 9.0]
    maps = [ResponseMap(1, tuple(filter_sizes(1, 4)), layers, np.ones((4, 9, 9), dtype=np.int8))]
    assert reference_refine(maps[0], 1, 2, 2) is None
    got = detect_interest_points(maps, 1.0)
    assert [(p.x, p.y, p.response) for p in got] == [(6.0, 2.0, 10.0)]
    assert got == dense_nms_reference(maps, 1.0)


def test_points_sorted_by_response_then_position():
    pts, _ = extract_features(blob_texture(192, 192, 16, seed=5))
    keys = [(-p.response, p.y, p.x, p.scale) for p in pts]
    assert keys == sorted(keys)


def ramp_image(horizontal=True):
    base = np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1))
    return gray_raster(base if horizontal else base.T)


def point_at(x, y, scale):
    return InterestPoint(x=float(x), y=float(y), scale=float(scale), response=1.0, laplacian_sign=1)


def point_arrays(pts):
    """x, y, scale and orientation of the points as float64 arrays."""
    return (np.array([getattr(p, f) for p in pts], dtype=np.float64) for f in ("x", "y", "scale", "orientation"))


def orientation_at(ii, x, y, scale):
    return float(assign_orientation(ii, np.array([x], float), np.array([y], float), np.array([scale], float))[0])


def test_orientation_of_horizontal_ramp():
    ii = integral_of(ramp_image(horizontal=True))
    delta = (orientation_at(ii, 32, 32, 2.0) + math.pi) % (2 * math.pi) - math.pi
    assert abs(delta) <= math.pi / 6


def test_orientation_of_vertical_ramp():
    ii = integral_of(ramp_image(horizontal=False))
    assert abs(orientation_at(ii, 32, 32, 2.0) - math.pi / 2) <= math.pi / 6


def test_orientation_flat_patch_is_zero():
    ii = integral_of(gray_raster(np.full((64, 64), 77)))
    assert orientation_at(ii, 32, 32, 2.0) == 0.0


def orientation_oracle(levels, x, y, s):
    """Plain-Python re-derivation of the dominant-direction algorithm.

    Box sums come from direct integer pixel summation (no prefix tables).
    SURF's constants: Haar size 4s on a radius-6s disc, Gaussian sigma 2.5s,
    a pi/3 window sliding by pi/32.
    """
    size = 2 * max(1, int(math.floor(4.0 * s / 2.0 + 0.5)))
    half = size // 2
    samples = []
    r = 6
    ilevels = levels.astype(int)
    for j in range(-r, r + 1):
        for i in range(-r, r + 1):
            if i * i + j * j > r * r:
                continue
            px = int(math.floor(x + i * s + 0.5))
            py = int(math.floor(y + j * s + 0.5))
            right = slice_box_sum(ilevels, px, py - half, px + half - 1, py + half - 1)
            left = slice_box_sum(ilevels, px - half, py - half, px - 1, py + half - 1)
            lower = slice_box_sum(ilevels, px - half, py, px + half - 1, py + half - 1)
            upper = slice_box_sum(ilevels, px - half, py - half, px + half - 1, py - 1)
            w = math.exp(-(i * i + j * j) / (2 * 2.5**2))
            samples.append((w * ((right - left) / 255.0), w * ((lower - upper) / 255.0)))
    best = (0.0, 0.0, -1.0)
    k = 0
    while k * (math.pi / 32) < 2 * math.pi:
        a = k * (math.pi / 32)
        sx = sy = 0.0
        for gx, gy in samples:
            ang = math.atan2(gy, gx) % (2 * math.pi)
            if (ang - a) % (2 * math.pi) < math.pi / 3:
                sx += gx
                sy += gy
        m = sx * sx + sy * sy
        if m > best[2]:
            best = (sx, sy, m)
        k += 1
    if best[2] <= 0.0:
        return 0.0
    return math.atan2(best[1], best[0]) % (2 * math.pi)


def test_orientation_matches_independent_accumulation(rng):
    img = blob_texture(96, 96, 8, seed=11)
    ii = integral_of(img)
    levels = to_grayscale(img).levels
    for _ in range(6):
        x = float(rng.uniform(30, 66))
        y = float(rng.uniform(30, 66))
        s = float(rng.uniform(1.5, 3.5))
        got = orientation_at(ii, x, y, s)
        want = orientation_oracle(levels, x, y, s)
        assert got == pytest.approx(want, abs=1e-8)


def test_window_mask_equals_mod_form(rng):
    two_pi = 2.0 * math.pi
    starts = np.arange(0.0, two_pi, math.pi / 32)
    edges = np.concatenate([starts, starts + math.pi / 3, starts + math.pi / 3 - two_pi])
    # Each edge and up to 8 ulps either side, where the mod's rounding decides.
    near = (edges[:, None] + np.arange(-8, 9) * np.spacing(edges)[:, None]).ravel()
    near = np.concatenate([near, [0.0, np.nextafter(two_pi, 0.0)]])
    near = near[(near >= 0.0) & (near < two_pi)]  # sample angles lie in [0, 2 pi)
    drawn = np.mod(np.arctan2(rng.normal(size=4000), rng.normal(size=4000)), two_pi)
    haar = np.mod(np.arctan2(rng.integers(-9, 10, 4000) / 255.0, rng.integers(-9, 10, 4000) / 255.0), two_pi)
    for angles in (near, drawn, haar):
        angles = angles.reshape(1, -1)
        want = np.mod(angles[:, None, :] - starts[:, None], two_pi) < math.pi / 3
        got = _window_mask(angles)
        assert got.dtype == np.float64
        assert np.array_equal(got, want.astype(np.float64))


def test_haar_equals_four_clipped_boxes():
    """Eight clamped corners give the same bits as four clipped box sums,
    for boxes inside, across and wholly outside every edge and corner."""
    rng = np.random.default_rng(20)
    for _ in range(300):
        w = int(rng.integers(9, 98))
        h = int(rng.integers(9, 62))
        ii = build_integral(to_grayscale(gray_raster(rng.integers(0, 256, (h, w)))))
        n, m = int(rng.integers(1, 2 * BLOCK)), int(rng.integers(1, 120))
        xs = rng.integers(-40, w + 40, (n, m))
        ys = rng.integers(-40, h + 40, (n, m))
        size = 2 * rng.integers(1, 31, (n, 1))
        got, want = _haar(ii, xs, ys, size), reference_haar(ii, xs, ys, size)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_descriptor_flat_patch_all_zero():
    ii = integral_of(gray_raster(np.full((96, 96), 50)))
    d = extract_descriptor(ii, *(np.array([v], dtype=np.float64) for v in (48, 48, 2.0, 0.0)))
    assert d.shape == (1, 64)
    assert np.all(d == 0.0)


def test_descriptor_norm_is_unit_on_texture():
    img = blob_texture(128, 128, 12, seed=2)
    _, descs = extract_features(img)
    assert descs
    for d in descs:
        assert np.linalg.norm(d.components) == pytest.approx(1.0, abs=1e-6)


def test_descriptor_shape_and_sign_copied():
    img = blob_image(96, 96, [(48, 48)], 3.0)
    pts, descs = extract_features(img)
    assert descs[0].components.shape == (64,)
    assert descs[0].laplacian_sign == pts[0].laplacian_sign


def test_descriptor_gain_invariance():
    """Same patches (identical keypoints) under luminance gain 1.5, clamped."""
    img = blob_texture(192, 192, 14, seed=4, background=85, amplitude=(45.0, 65.0))
    pts, descs = extract_features(img)
    assert len(pts) >= 5
    gained = extract_descriptor(integral_of(apply_gain_offset(img, 1.5, 0.0)), *point_arrays(pts))
    for gd, d in zip(gained, descs):
        assert float(np.linalg.norm(gd - d.components)) < 0.05


def test_brightness_affine_invariance(rng):
    img = blob_texture(192, 192, 14, seed=6, background=100, amplitude=(35.0, 55.0))
    pts, descs = extract_features(img)
    coords = np.array([[p.x, p.y] for p in pts])
    for gain, offset in ((0.7, 15.0), (1.4, -15.0), (1.2, 8.0)):
        mod = apply_gain_offset(img, gain, offset)
        mpts, mdescs = extract_features(mod)
        checked = 0
        for mi, mp in enumerate(mpts):
            d = np.hypot(coords[:, 0] - mp.x, coords[:, 1] - mp.y)
            oi = int(np.argmin(d))
            if d[oi] <= 2.0:
                dist = float(np.linalg.norm(mdescs[mi].components - descs[oi].components))
                assert dist < 0.1
                checked += 1
        assert checked >= 5


def reference_haar(ii, xs, ys, size):
    """Right-minus-left and bottom-minus-top Haar responses at integer samples."""
    half = size // 2
    right = box_level_sums(ii, xs, ys - half, xs + half - 1, ys + half - 1)
    left = box_level_sums(ii, xs - half, ys - half, xs - 1, ys + half - 1)
    lower = box_level_sums(ii, xs - half, ys, xs + half - 1, ys + half - 1)
    upper = box_level_sums(ii, xs - half, ys - half, xs + half - 1, ys - 1)
    return (right - left) / 255.0, (lower - upper) / 255.0


def reference_even_size(target):
    return 2 * max(1, int(math.floor(target / 2.0 + 0.5)))


def reference_orientation(ii, ip):
    """Per-point reference: the one-point-at-a-time orientation loop body."""
    s = ip.scale
    size = reference_even_size(4.0 * s)
    grid = np.arange(-6, 7)
    ui, vi = np.meshgrid(grid, grid)
    disc = ui * ui + vi * vi <= 36
    ui = ui[disc]
    vi = vi[disc]
    px = np.floor(ip.x + ui * s + 0.5).astype(np.int64)
    py = np.floor(ip.y + vi * s + 0.5).astype(np.int64)
    weight = np.exp(-(ui * ui + vi * vi) / (2.0 * 2.5**2))
    hx, hy = reference_haar(ii, px, py, size)
    gx = weight * hx
    gy = weight * hy
    angles = np.mod(np.arctan2(gy, gx), 2.0 * math.pi)
    starts = np.arange(0.0, 2.0 * math.pi, math.pi / 32)
    in_window = np.mod(angles[None, :] - starts[:, None], 2.0 * math.pi) < math.pi / 3
    sum_x = in_window @ gx
    sum_y = in_window @ gy
    mag2 = sum_x * sum_x + sum_y * sum_y
    best = int(np.argmax(mag2))
    if mag2[best] == 0.0:
        return 0.0
    return math.atan2(sum_y[best], sum_x[best]) % (2.0 * math.pi)


def reference_descriptor(ii, ip, upright):
    """Per-point reference: the one-point-at-a-time descriptor loop body."""
    s = ip.scale
    theta = 0.0 if upright else ip.orientation
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    size = reference_even_size(2.0 * s)
    idx = np.arange(20) - 9.5
    u, v = np.meshgrid(idx, idx)
    rx = (u * cos_t - v * sin_t) * s
    ry = (u * sin_t + v * cos_t) * s
    px = np.floor(ip.x + rx + 0.5).astype(np.int64)
    py = np.floor(ip.y + ry + 0.5).astype(np.int64)
    dx0, dy0 = reference_haar(ii, px, py, size)
    weight = np.exp(-(u * u + v * v) / (2.0 * 3.3**2))
    dx = weight * (dx0 * cos_t + dy0 * sin_t)
    dy = weight * (-dx0 * sin_t + dy0 * cos_t)
    blocks_dx = dx.reshape(4, 5, 4, 5)
    blocks_dy = dy.reshape(4, 5, 4, 5)
    vec = np.stack(
        [
            blocks_dx.sum(axis=(1, 3)),
            blocks_dy.sum(axis=(1, 3)),
            np.abs(blocks_dx).sum(axis=(1, 3)),
            np.abs(blocks_dy).sum(axis=(1, 3)),
        ],
        axis=-1,
    ).ravel()
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec = vec / norm
    return vec


def assert_batched_equals_reference(ii, pts):
    """Orientation and descriptors agree byte for byte with the per-point
    reference, oriented and upright, for the whole batch and for each point
    computed alone."""
    x, y, s, _ = point_arrays(pts)
    alone = [slice(i, i + 1) for i in range(len(pts))]
    want_theta = np.array([reference_orientation(ii, p) for p in pts], dtype=np.float64)
    assert assign_orientation(ii, x, y, s).tobytes() == want_theta.tobytes()
    for i in alone:
        assert assign_orientation(ii, x[i], y[i], s[i]).tobytes() == want_theta[i].tobytes()
    oriented = [dataclasses.replace(p, orientation=t) for p, t in zip(pts, want_theta.tolist())]
    for upright in (False, True):
        want = np.array([reference_descriptor(ii, p, upright) for p in oriented]).reshape(-1, 64)
        theta = np.zeros(len(pts)) if upright else want_theta
        assert extract_descriptor(ii, x, y, s, theta).tobytes() == want.tobytes()
        for i in alone:
            assert extract_descriptor(ii, x[i], y[i], s[i], theta[i]).tobytes() == want[i].tobytes()


@pytest.mark.parametrize(
    "img, octaves, min_points",
    [(blob_texture(256, 256, 20, seed=2), octaves, 10) for octaves in (1, 2, 3, 4)]
    + [(noise_frame(), 3, 701)],
    ids=["texture-oct1", "texture-oct2", "texture-oct3", "texture-oct4", "noise256"],
)
def test_extraction_bit_identical_to_per_point_reference(img, octaves, min_points):
    ii = integral_of(img)
    for upright in (False, True):
        cfg = ExtractionConfig(octaves=octaves, upright=upright)
        pts, descs = extract_features(img, cfg)
        assert len(pts) >= min_points
        detected = detect_interest_points(build_response_maps(ii, cfg), cfg.threshold)
        assert [dataclasses.replace(p, orientation=0.0) for p in pts] == detected
        want_theta = [0.0 if upright else reference_orientation(ii, p) for p in detected]
        got_theta = np.array([p.orientation for p in pts], dtype=np.float64)
        assert got_theta.tobytes() == np.array(want_theta, dtype=np.float64).tobytes()
        want = [reference_descriptor(ii, p, upright) for p in pts]
        got = np.array([d.components for d in descs]).reshape(-1, 64)
        assert got.tobytes() == np.array(want).reshape(-1, 64).tobytes()
        assert [d.laplacian_sign for d in descs] == [p.laplacian_sign for p in pts]


def test_border_clipped_points_bit_identical_to_reference():
    # Haar boxes that reach past every edge and corner, at several scales.
    img = blob_texture(96, 80, 8, seed=7)
    ii = integral_of(img)
    pts = [
        point_at(x, y, s)
        for x in (0.0, 1.4, 5.5, 47.0, 90.6, 95.0)
        for y in (0.0, 2.5, 40.2, 77.7, 79.0)
        for s in (1.2, 2.6, 7.9)
    ]
    assert_batched_equals_reference(ii, pts)


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_block_boundaries_bit_identical_to_reference(n):
    img = noise_frame(seed=2, side=128)
    ii = integral_of(img)
    pts, _ = extract_features(img)
    assert len(pts) >= n
    assert_batched_equals_reference(ii, pts[:n])


def test_extract_features_constant_image_empty():
    pts, descs = extract_features(gray_raster(np.full((64, 64), 123)))
    assert pts == [] and descs == []


def test_extract_features_texture_has_enough_points():
    pts, descs = extract_features(blob_texture(256, 256, 20, seed=1))
    assert len(pts) >= 10
    assert len(pts) == len(descs)


def test_extract_features_propagates_too_small():
    with pytest.raises(ImageTooSmall):
        extract_features(gray_raster(np.full((4, 4), 10)))


def test_pipeline_equals_manual_stage_composition(rng):
    cfg = ExtractionConfig()
    for seed in range(10):
        img = blob_texture(64, 64, 5, seed=100 + seed, margin=0.12)
        got_pts, got_descs = extract_features(img, cfg)
        gray = to_grayscale(img)
        ii = build_integral(gray)
        maps = build_response_maps(ii, cfg)
        pts = detect_interest_points(maps, cfg.threshold)
        x, y, s, _ = point_arrays(pts)
        theta = assign_orientation(ii, x, y, s)
        descs = extract_descriptor(ii, x, y, s, theta)
        assert got_pts == [dataclasses.replace(p, orientation=t) for p, t in zip(pts, theta.tolist())]
        assert len(got_descs) == len(descs)
        for a, b, p in zip(got_descs, descs, pts):
            assert np.array_equal(a.components, b)
            assert a.laplacian_sign == p.laplacian_sign


def test_extraction_is_deterministic():
    img = blob_texture(160, 160, 12, seed=9)
    p1, d1 = extract_features(img)
    p2, d2 = extract_features(img)
    assert p1 == p2
    for a, b in zip(d1, d2):
        assert np.array_equal(a.components, b.components)


def test_upright_config_skips_orientation():
    img = blob_texture(128, 128, 10, seed=8)
    pts, _ = extract_features(img, ExtractionConfig(upright=True))
    assert pts and all(p.orientation == 0.0 for p in pts)


def test_rotation_repeatability():
    img = blob_texture(256, 256, 20, seed=1)
    pts, _ = extract_features(img)
    rot = warp_similarity(img, 15.0, 1.0)
    rpts, _ = extract_features(rot)
    coords = np.array([[p.x, p.y] for p in rpts])
    back = similarity_map(coords, 256, 256, -15.0, 1.0)
    orig = np.array([[p.x, p.y] for p in pts])
    repeated = sum(
        1 for q in back if np.min(np.hypot(orig[:, 0] - q[0], orig[:, 1] - q[1])) <= 2.0
    )
    assert repeated / len(rpts) >= 0.6

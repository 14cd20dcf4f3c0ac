"""Response maps, detection, orientation, and descriptors against direct oracles."""

import decimal
import functools
import math
import tracemalloc

import numpy as np
import pytest

from arfex import features
from arfex.errors import ImageTooSmall
from arfex.features import (
    BAND_CELLS,
    BLOCK,
    CELL_BLOCK,
    ORIENTATION_BLOCK,
    ExtractionConfig,
    Features,
    _extract,
    _haar,
    _layer_cells,
    _sectors,
    _window_sums,
    assign_orientation,
    build_response_maps,
    detect_interest_points,
    extract_descriptor,
    extract_features,
    filter_sizes,
)
from arfex.image import RasterImage, build_integral, to_grayscale
from boxes import box_level_sums
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


def wrap_of(img):
    """The int32 wrap of the padded table: the one table `extract_features`
    hands to every stage."""
    return integral_of(img).astype(np.int32)


def octaves(maps):
    """Each octave of `build_response_maps`' list as (stride, filter sizes,
    responses), the stride and sizes following from its place in the list."""
    return [(1 << o, filter_sizes(o + 1, 4), responses) for o, responses in enumerate(maps)]


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
    ii = integral_of(gray_raster(np.full((50, 70), 99)))
    maps = build_response_maps(ii)
    assert len(maps) == 3
    for stride, sizes, responses in octaves(maps):
        gh = -(-50 // stride)
        gw = -(-70 // stride)
        assert responses.shape == (2, gh, gw) and responses.dtype == np.float64
        assert all(size % 2 == 1 for size in sizes)
    assert [r.shape for r in maps] == [(2, 50, 70), (2, 25, 35), (2, 13, 18)]
    wrap = ii.astype(np.int32)
    assert np.array_equal(wrap, ii)
    assert [r.tobytes() for r in build_response_maps(wrap)] == [r.tobytes() for r in maps]


def map_stacks(table, stride, sizes, responses):
    """(4, gh, gw) responses and signs of one octave: its dense layers 1 and
    2, with layers 0 and 3 and every sign read from `table` by
    `_layer_cells` over the whole grid."""
    _, gh, gw = responses.shape
    i, j = np.indices((gh, gw))
    cells = [_layer_cells(table, stride, size, i, j) for size in sizes]
    return np.stack([cells[0][0], *responses, cells[3][0]]), np.stack([c[1] for c in cells])


def test_constant_image_all_responses_zero():
    table = wrap_of(gray_raster(np.full((48, 48), 123)))
    for stride, sizes, responses in octaves(build_response_maps(table)):
        assert np.all(responses == 0.0)
        stack, signs = map_stacks(table, stride, sizes, responses)
        assert np.all(stack == 0.0)
        assert np.all(signs == 1)


def test_response_maps_equal_direct_box_filter_oracle(rng):
    img = random_raster(rng, 40, 36)
    table = wrap_of(img)
    levels = to_grayscale(img)
    for stride, sizes, responses in octaves(build_response_maps(table, ExtractionConfig(octaves=2))):
        _, gh, gw = responses.shape
        i, j = np.indices((gh, gw))
        for k, size in enumerate(sizes):
            cells, signs = _layer_cells(table, stride, size, i, j)
            for y in range(gh):
                for x in range(gw):
                    want, sign = hessian_response_at(levels, x * stride, y * stride, size)
                    assert cells[y, x] == pytest.approx(want, abs=1e-9)
                    assert signs[y, x] == sign
                    if k in (1, 2):
                        assert responses[k - 1, y, x] == pytest.approx(want, abs=1e-9)


def gather_hessian_grid(ii, stride, size):
    """Clipped-gather reference: every grid cell through `box_level_sums`,
    with the exterior masked to (0.0, +1) afterwards."""
    height, width = ii.shape[0] - 1, ii.shape[1] - 1
    xs = np.arange(0, width, stride, dtype=np.int64)
    ys = np.arange(0, height, stride, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys)
    lobe = size // 3
    border = (size - 1) // 2
    half = (lobe - 1) // 2
    inside = (
        (gx >= border)
        & (gx <= width - 1 - border)
        & (gy >= border)
        & (gy <= height - 1 - border)
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


def assert_map_equals_gather(ii, stride, sizes, responses, want):
    """One octave's dense layers, and all four layers read cell by cell from
    the int32 wrap of the int64 table ii and from ii itself, bit for bit the
    clipped-gather reference; `want` caches the reference by (stride,
    size)."""
    _, gh, gw = responses.shape
    i, j = np.indices((gh, gw))
    for k, size in enumerate(sizes):
        if (stride, size) not in want:
            want[stride, size] = gather_hessian_grid(ii, stride, size)
        want_resp, want_signs = want[stride, size]
        if k in (1, 2):
            assert responses[k - 1].tobytes() == want_resp.tobytes(), (stride, size)
        for table in (ii.astype(np.int32), ii):
            cells, signs = _layer_cells(table, stride, size, i, j)
            assert cells.shape == want_resp.shape and cells.tobytes() == want_resp.tobytes(), (stride, size)
            assert signs.dtype == np.int8 and signs.tobytes() == want_signs.tobytes(), (stride, size)


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
    wrap = ii.astype(np.int32)
    want = {}
    for count in range(1, 5):
        maps = build_response_maps(wrap, ExtractionConfig(octaves=count))
        assert len(maps) == count
        from_int64 = build_response_maps(ii, ExtractionConfig(octaves=count))
        assert [r.tobytes() for r in from_int64] == [r.tobytes() for r in maps]
        for stride, sizes, responses in octaves(maps):
            assert responses.dtype == np.float64
            assert_map_equals_gather(ii, stride, sizes, responses, want)


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
    # everywhere.  Cell reads run in blocks of CELL_BLOCK, 7 and 61 cells,
    # which end at uneven places in every layer.
    levels = np.random.default_rng(height * width).integers(0, 256, size=(height, width))
    ii = integral_of(gray_raster(levels))
    wrap = ii.astype(np.int32)
    want = {}
    for band_cells, cell_block in ((BAND_CELLS, CELL_BLOCK), (1000, 7), (1, 61)):
        monkeypatch.setattr(features, "BAND_CELLS", band_cells)
        monkeypatch.setattr(features, "CELL_BLOCK", cell_block)
        maps = octaves(build_response_maps(wrap, ExtractionConfig(octaves=4)))
        for stride, sizes, responses in maps:
            assert_map_equals_gather(ii, stride, sizes, responses, want)
        # Octave o+1's layer 1 sits on the even cells of octave o's layer 3,
        # at the same filter size.
        for (stride, sizes, _), (_, _, responses) in zip(maps, maps[1:]):
            _, gh, gw = responses.shape
            i, j = np.indices((gh, gw))
            cells, _ = _layer_cells(wrap, stride, sizes[3], 2 * i, 2 * j)
            assert cells.tobytes() == responses[0].tobytes()


def test_response_maps_exact_when_the_table_wraps_int32():
    # Box sums cancel any term that depends on the row alone or the column
    # alone, so this table gives the same maps as the plain one.  Every entry
    # is near 2**60: an int32 copy wraps on each one, and float64 would round.
    levels = np.random.default_rng(5).integers(0, 256, size=(211, 203))
    ii = integral_of(gray_raster(levels))
    rng = np.random.default_rng(6)
    h, w = ii.shape
    rows = rng.integers(-(2**45), 2**45, size=(h, 1))
    cols = rng.integers(-(2**45), 2**45, size=(1, w))
    shifted = ii + rows + cols + 2**60
    plain, wrapped = ii.astype(np.int32), shifted.astype(np.int32)
    config = ExtractionConfig(octaves=4)
    plain_maps, shifted_maps = build_response_maps(plain, config), build_response_maps(wrapped, config)
    for (stride, sizes, m), s in zip(octaves(plain_maps), shifted_maps):
        assert np.any(m[-1] != 0.0)
        assert s.tobytes() == m.tobytes()
        want = map_stacks(plain, stride, sizes, m)
        for table in (wrapped, shifted):  # the int32 wrap, and int64 arithmetic that wraps mod 2**64
            got = map_stacks(table, stride, sizes, s)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    got = detect_interest_points(wrapped, shifted_maps, 0.0)
    assert got.tobytes() == detect_interest_points(plain, plain_maps, 0.0).tobytes()


def test_hessian_oracle_rejects_unit_floats(rng):
    levels = to_grayscale(random_raster(rng, 16, 16))
    with pytest.raises(TypeError):
        hessian_response_at(levels / 255.0, 8, 8, 9)


def test_matched_interval_map_peaks_at_blob_center():
    # sigma 2.0 corresponds to filter size 15 = octave 1, interval 2, the
    # first dense layer
    img = blob_image(64, 64, [(32, 32)], 2.0)
    layer = build_response_maps(wrap_of(img))[0][0]
    i, j = np.unravel_index(np.argmax(layer), layer.shape)
    assert abs(j - 32) <= 1 and abs(i - 32) <= 1


def test_checkerboard_saddle_negative_response():
    f = np.full((64, 64), 40, dtype=np.uint8)
    f[:32, :32] = 200
    f[32:, 32:] = 200
    table = wrap_of(gray_raster(f))
    stride, sizes, responses = octaves(build_response_maps(table))[0]
    stack, _ = map_stacks(table, stride, sizes, responses)
    assert np.all(stack[:, 32, 32] < 0.0)


def test_laplacian_sign_tracks_blob_polarity():
    bright = blob_image(64, 64, [(32, 32)], 3.0, amp=120, bg=40)
    dark = blob_image(64, 64, [(32, 32)], 3.0, amp=-120, bg=200)
    for img, want in ((bright, -1), (dark, 1)):
        pts, _ = extract_features(img)
        assert pts and pts[0].laplacian_sign == want


def test_detect_constant_image_empty():
    table = wrap_of(gray_raster(np.full((64, 64), 99)))
    got = detect_interest_points(table, build_response_maps(table), 4e-4)
    assert got.dtype == np.float64 and got.shape == (0, 5)


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


def test_response_map_needs_four_filter_sizes(monkeypatch):
    """Each octave's scale space is filtered at its four filter sizes, and
    only those: layers 1 and 2 filled densely, layers 0 and 3 and the signs
    read by cell."""
    read = []
    fill, cells = features._hessian_grid, features._layer_cells
    monkeypatch.setattr(features, "_hessian_grid", lambda *args: read.append(args[1:3]) or fill(*args))
    monkeypatch.setattr(features, "_layer_cells", lambda *args: read.append(args[1:3]) or cells(*args))
    monkeypatch.setattr(features, "CELL_COST", 0)  # every outer layer read cell by cell
    table = wrap_of(blob_texture(128, 128, 10, seed=3))
    maps = build_response_maps(table, ExtractionConfig(octaves=4))
    for octave in range(1, 5):
        sizes = filter_sizes(octave, 4)
        assert len(sizes) == 4 and read[2 * octave - 2 : 2 * octave] == [(1 << (octave - 1), s) for s in sizes[1:3]]
    read.clear()
    assert len(detect_interest_points(table, maps, 0.0))
    want = {(1 << (octave - 1), size) for octave in range(1, 5) for size in filter_sizes(octave, 4)}
    assert set(read) == want


def test_response_map_layers_must_fit_the_table():
    table = wrap_of(blob_image(64, 64, [(32, 32)], 3.0))
    first, second = build_response_maps(table, ExtractionConfig(octaves=2))
    for t, maps in [
        (table, [first[:1]]),
        (table, [np.zeros((3, 64, 64))]),
        (table, [first[:, 1:]]),
        (table, [first[0]]),
        (table[1:], [first]),
        (table, [first, first]),  # octave 1's layers in octave 2's place, at stride 2
    ]:
        with pytest.raises(ValueError, match="shape"):
            detect_interest_points(t, maps, 0.0)
    assert len(detect_interest_points(table, [first, second], 0.0))
    with pytest.raises(ValueError, match="2-D"):
        detect_interest_points(table.ravel(), [first], 0.0)


def test_nms_soundness_by_reinspection():
    """Every returned point maps to a cell of the four-layer stack that
    strictly exceeds its 26 neighbors and the threshold."""
    img = blob_texture(128, 128, 10, seed=3)
    table = wrap_of(img)
    cfg = ExtractionConfig()
    maps = build_response_maps(table, cfg)
    pts = detect_interest_points(table, maps, cfg.threshold)
    assert len(pts)
    for x, y, _, response, sign in pts.tolist():
        hits = 0
        for stride, sizes, responses in octaves(maps):
            stack, signs = map_stacks(table, stride, sizes, responses)
            n, gh, gw = stack.shape
            for k in range(1, n - 1):
                i = round(y / stride)
                j = round(x / stride)
                if not (1 <= i < gh - 1 and 1 <= j < gw - 1):
                    continue
                if stack[k, i, j] != response:
                    continue
                if abs(j * stride - x) > 0.5 * stride or abs(i * stride - y) > 0.5 * stride:
                    continue
                neighborhood = stack[k - 1 : k + 2, i - 1 : i + 2, j - 1 : j + 2]
                others = np.delete(neighborhood.ravel(), 13)
                assert np.all(response > others)
                assert response > cfg.threshold
                assert sign == signs[k, i, j]
                hits += 1
        assert hits >= 1


def sorted_table(rows):
    """Detection rows (x, y, scale, response, sign) as detection returns
    them: an (N, 5) table in its order, here by a stable Python sort."""
    rows = sorted(rows, key=lambda r: (-r[3], r[1], r[0], r[2]))
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


def reference_refine(stacks, stride, sizes, k, i, j):
    """Per-candidate reference: one quadratic step on the four-layer `stacks`
    of the octave of `stride` and filter `sizes`, solved in Python floats as
    -adj(H) g / det H after scaling the nine derivatives by the power of two
    that puts the largest in [0.5, 1); the point's detection row, or None."""
    responses, signs = stacks
    c = responses[k - 1 : k + 2, i - 1 : i + 2, j - 1 : j + 2].tolist()
    v = c[1][1][1]
    derivatives = [
        (c[1][1][2] - c[1][1][0]) / 2.0,
        (c[1][2][1] - c[1][0][1]) / 2.0,
        (c[2][1][1] - c[0][1][1]) / 2.0,
        c[1][1][2] - 2 * v + c[1][1][0],
        c[1][2][1] - 2 * v + c[1][0][1],
        c[2][1][1] - 2 * v + c[0][1][1],
        (c[1][2][2] - c[1][2][0] - c[1][0][2] + c[1][0][0]) / 4.0,
        (c[2][1][2] - c[2][1][0] - c[0][1][2] + c[0][1][0]) / 4.0,
        (c[2][2][1] - c[2][0][1] - c[0][2][1] + c[0][0][1]) / 4.0,
    ]
    _, e = math.frexp(max(abs(d) for d in derivatives))
    dx, dy, ds, dxx, dyy, dss, dxy, dxs, dys = (math.ldexp(d, -e) for d in derivatives)
    hess = [[dxx, dxy, dxs], [dxy, dyy, dys], [dxs, dys, dss]]
    # cof[r][q], the (r, q) cofactor, from the cyclic rows and columns after r and q.
    cof = [
        [
            hess[(r + 1) % 3][(q + 1) % 3] * hess[(r + 2) % 3][(q + 2) % 3]
            - hess[(r + 1) % 3][(q + 2) % 3] * hess[(r + 2) % 3][(q + 1) % 3]
            for q in range(3)
        ]
        for r in range(3)
    ]
    det = hess[0][0] * cof[0][0] + hess[0][1] * cof[0][1] + hess[0][2] * cof[0][2]
    if det == 0.0:
        return None
    offset = [-(cof[0][r] * dx + cof[1][r] * dy + cof[2][r] * ds) / det for r in range(3)]
    if not all(abs(o) <= 0.5 for o in offset):
        return None
    size = sizes[k] + offset[2] * (sizes[k + 1] - sizes[k])
    return (j + offset[0]) * stride, (i + offset[1]) * stride, 1.2 * size / 9, v, int(signs[k, i, j])


def dense_nms_reference(table, maps, threshold, beats=np.greater):
    """Dense reference: every middle-layer cell of each octave's four-layer
    stack compared with its 26 neighbours (`beats`, strictly greater in
    the library), then a per-candidate refinement and the library's order."""
    points = []
    for stride, sizes, responses in octaves(maps):
        stacks = map_stacks(table, stride, sizes, responses)
        stack = stacks[0]
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
                            mask &= beats(core, stack[k + dk, 1 + di : gh - 1 + di, 1 + dj : gw - 1 + dj])
            for i, j in np.argwhere(mask) + 1:
                pt = reference_refine(stacks, stride, sizes, k, int(i), int(j))
                if pt is not None:
                    points.append(pt)
    return sorted_table(points)


def tied_maps(seed, count, h, w):
    """The table of an h x w noise image, and `count` octaves over it whose
    dense layers are made by hand: each cell copies a random cell of its
    3x3x3 neighbourhood in the four-layer stack, or lies one ulp above or
    below it, so a tie decides many of the 26 comparisons, outer layers
    included."""
    rng = np.random.default_rng(seed)
    table = build_integral(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    maps = []
    for octave in range(1, count + 1):
        stride = 1 << (octave - 1)
        responses = np.zeros((2, -(-h // stride), -(-w // stride)))
        stack, _ = map_stacks(table, stride, filter_sizes(octave, 4), responses)
        _, gh, gw = stack.shape
        i, j = np.indices((gh, gw))
        for k in (1, 2):
            dk, di, dj = rng.integers(-1, 2, size=(3, gh, gw))
            copied = stack[k + dk, np.clip(i + di, 0, gh - 1), np.clip(j + dj, 0, gw - 1)]
            nudge = rng.integers(-1, 2, size=(gh, gw))  # one ulp down, none or one up
            stack[k] = np.where(nudge == 0, copied, np.nextafter(copied, np.where(nudge < 0, -np.inf, np.inf)))
        responses[:] = stack[1:3]
        maps.append(responses)
    return table, maps


def test_sparse_nms_equals_dense_reference():
    for count, (h, w) in [(1, (3, 3)), (2, (5, 40)), (3, (33, 31)), (4, (64, 48))]:
        table, maps = tied_maps(count, count, h, w)
        for threshold in (0.0, 1e-3, 4e-3):
            want = dense_nms_reference(table, maps, threshold)
            assert point_bits(detect_interest_points(table, maps, threshold)) == point_bits(want)
    # Ties decide some of these points: `>=` in place of `>` finds others.
    table, maps = tied_maps(4, 4, 64, 48)
    assert point_bits(dense_nms_reference(table, maps, 0.0)) != point_bits(
        dense_nms_reference(table, maps, 0.0, beats=np.greater_equal)
    )
    for img in (noise_frame(seed=9, side=112), blob_texture(128, 96, 9)):
        table = wrap_of(img)
        maps = build_response_maps(table, ExtractionConfig(octaves=4))
        want = dense_nms_reference(table, maps, 4e-4)
        assert len(want) and point_bits(detect_interest_points(table, maps, 4e-4)) == point_bits(want)


def gather_nms_reference(table, maps, threshold):
    """The NMS the compacting pass replaced: every cell above threshold of
    each octave's four-layer stack compared with all 26 neighbours by
    three-array gathers, then the library's refinement of the gathered
    3x3x3 neighbourhoods, and the library's order."""
    points = []
    for stride, sizes, responses in octaves(maps):
        stack, signs = map_stacks(table, stride, sizes, responses)
        n, gh, gw = stack.shape
        if gh < 3 or gw < 3:
            continue
        d = np.array([-1, 0, 1])
        for k in range(1, n - 1):
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
            i, j, v = ci[keep], cj[keep], v[keep]
            cube = stack[k + d[:, None, None], i[:, None, None, None] + d[:, None], j[:, None, None, None] + d]
            offset = features._refine(cube)
            ok = np.max(np.abs(offset), axis=1) <= 0.5
            size = sizes[k] + offset[ok, 2] * (sizes[k + 1] - sizes[k])
            points += zip(
                ((j[ok] + offset[ok, 0]) * stride).tolist(),
                ((i[ok] + offset[ok, 1]) * stride).tolist(),
                (1.2 * size / 9).tolist(),
                v[ok].tolist(),
                signs[k, i[ok], j[ok]].tolist(),
            )
    return sorted_table(points)


def point_bits(table):
    """Every field of each row of a detection table, as hex."""
    return [tuple(v.hex() for v in row) for row in table.tolist()]


COMPACTING_IMAGES = [
    blob_image(64, 64, [(32, 32)], 3.0),
    blob_image(120, 100, [(30, 30), (80, 40), (60, 75)], 4.0),
    blob_texture(160, 128, 12, seed=4),
    warp_similarity(blob_texture(160, 128, 12, seed=4), 20.0, 0.9),
    noise_frame(seed=9, side=112),
    noise_frame(seed=3, side=256),
    random_raster(np.random.default_rng(6), 97, 61),
]


@pytest.mark.parametrize("threshold", [0.0, 1e-4, ExtractionConfig().threshold])
def test_compacting_nms_bit_identical_to_gather_reference(threshold):
    for img in COMPACTING_IMAGES:
        table = wrap_of(img)
        maps = build_response_maps(table, ExtractionConfig(octaves=4))
        want = gather_nms_reference(table, maps, threshold)
        assert len(want)
        assert point_bits(detect_interest_points(table, maps, threshold)) == point_bits(want)
    for count, (h, w) in [(1, (3, 3)), (3, (33, 31)), (4, (64, 48))]:
        table, maps = tied_maps(count, count, h, w)
        want = gather_nms_reference(table, maps, threshold)
        assert point_bits(detect_interest_points(table, maps, threshold)) == point_bits(want)


def test_outer_layer_read_by_cell_or_dense_fill_gives_the_same_bits(monkeypatch):
    """CELL_COST 0 reads every outer layer cell by cell; a huge one fills
    every outer layer that has survivors to compare."""
    fills = []
    dense_fill = features._hessian_grid
    monkeypatch.setattr(features, "_hessian_grid", lambda *args: fills.append(args[2]) or dense_fill(*args))
    for img in COMPACTING_IMAGES[2:]:
        for count in (1, 4):
            table = wrap_of(img)
            maps = build_response_maps(table, ExtractionConfig(octaves=count))
            got = []
            for cost in (0, 10**12):
                monkeypatch.setattr(features, "CELL_COST", cost)
                fills.clear()
                got.append(point_bits(detect_interest_points(table, maps, 0.0)))
                assert bool(fills) == (cost > 0)
            assert got[0] and got[0] == got[1]


def test_refine_drops_only_the_singular_neighbourhood():
    """A singular Hessian gives its own neighbourhood a non-finite offset:
    the regular one keeps its offset, whatever else shares the stack."""
    regular = np.zeros((3, 3, 3))
    regular[1] = 9.0 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    regular[1, 1, 1] = 10.0
    regular[2, 1, 1] = 9.0
    singular = regular.copy()
    # Corners 9/5/5/9 give dxx = dyy = -2 and dxy = 2, so the Hessian's
    # first two rows are dependent.
    singular[1, [0, 0, 2, 2], [0, 2, 0, 2]] = [9.0, 5.0, 5.0, 9.0]
    alone = features._refine(regular[None])
    assert np.array_equal(alone, [[0.0, 0.0, 4.5 / 11.0]])
    for e in (-1070, -600, 600):  # the same cube scaled exactly: subnormal, tiny and huge responses
        assert features._refine(np.ldexp(regular, e)[None]).tobytes() == alone.tobytes()
    assert np.isnan(features._refine(singular[None])).all()
    for cube, row in ((np.stack([singular, regular]), 1), (np.stack([regular, singular, regular]), 0)):
        got = features._refine(cube)
        assert got[row].tobytes() == alone[0].tobytes()
        assert np.isnan(got[1 - row]).all() and (row == 1 or got[2].tobytes() == alone[0].tobytes())


def test_singular_candidate_beside_regular_one():
    """Through detection: of two candidates of one layer, the singular one
    is dropped and the regular one kept."""
    layers = np.zeros((2, 9, 9))  # layers 1 and 2; the zero table gives 0.0 in layers 0 and 3
    for j in (2, 6):  # a candidate at (i, j) = (2, j) of layer 1
        layers[0, 2, j] = 10.0
        layers[0, [1, 3, 2, 2], [j, j, j - 1, j + 1]] = 9.0
        layers[1, 2, j] = 9.0
    layers[0, [1, 1, 3, 3], [1, 3, 1, 3]] = [9.0, 5.0, 5.0, 9.0]
    table, sizes = np.zeros((10, 10), dtype=np.int32), filter_sizes(1, 4)
    assert reference_refine(map_stacks(table, 1, sizes, layers), 1, sizes, 1, 2, 2) is None
    got = detect_interest_points(table, [layers], 1.0)
    assert got[:, [0, 1, 3]].tolist() == [[6.0, 2.0, 10.0]]
    assert point_bits(got) == point_bits(dense_nms_reference(table, [layers], 1.0))


def test_points_sorted_by_response_then_position():
    pts, _ = extract_features(blob_texture(192, 192, 16, seed=5))
    keys = [(-p.response, p.y, p.x, p.scale) for p in pts]
    assert keys == sorted(keys)


def ramp_image(horizontal=True):
    base = np.tile(np.arange(64, dtype=np.uint8) * 3, (64, 1))
    return gray_raster(base if horizontal else base.T)


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
    levels = to_grayscale(img)
    for _ in range(6):
        x = float(rng.uniform(30, 66))
        y = float(rng.uniform(30, 66))
        s = float(rng.uniform(1.5, 3.5))
        got = orientation_at(ii, x, y, s)
        want = orientation_oracle(levels, x, y, s)
        assert got == pytest.approx(want, abs=1e-8)


def test_axis_and_diagonal_samples_land_in_the_sector_their_angle_starts():
    """A sample exactly on an axis or a diagonal has true angle k pi/4, the
    lower edge of sector 24k, and lands there at any magnitude."""
    steps = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for magnitude in (1 / 255, 3 / 255, 0.02, 1.0, 7.5, 8191.0):
        gx = np.array([u for u, _ in steps]) * magnitude
        gy = np.array([v for _, v in steps]) * magnitude
        assert _sectors(gx, gy).tolist() == [0, 24, 48, 72, 96, 120, 144, 168]


def test_sectors_cover_the_circle_without_running_past_the_last():
    # Just below the +x axis the angle rounds up to 2 pi, which is the last
    # sector's, as is a sample clearly below the axis; above it is sector 0.
    gx = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
    gy = np.array([-1e-300, -1e-3, 1e-300, 1e-3, -1e-3])
    assert _sectors(gx, gy).tolist() == [191, 191, 0, 95, 96]
    # The mod form of the definition, on signed zeros, tiny and Haar-like ratios.
    rng = np.random.default_rng(11)
    gx = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300], rng.integers(-40, 41, 20000) / 255.0])
    gy = np.concatenate([[0.0, 0.0, -0.0, -0.0, -1.0, 1.0], rng.integers(-40, 41, 20000) / 255.0])
    want = np.minimum((np.mod(np.arctan2(gy, gx), 2.0 * math.pi) * (96 / math.pi)).astype(np.int64), 191)
    assert np.array_equal(_sectors(gx, gy), want)
    # Samples drawn over the circle land in the sector of their true angle,
    # away from its edges by more than rounding.
    angle = np.random.default_rng(12).uniform(0.0, 2.0 * math.pi, 20000)
    sector = np.floor(angle / (math.pi / 96))
    away = np.abs(angle / (math.pi / 96) - np.round(angle / (math.pi / 96))) > 1e-9
    got = _sectors(np.cos(angle) * 3.0, np.sin(angle) * 3.0)
    assert got.min() >= 0 and got.max() <= 191
    assert np.array_equal(got[away], sector[away])


def test_window_tree_equals_the_direct_sum_of_32_sectors():
    rng = np.random.default_rng(13)
    sums = rng.normal(size=(3, 5, features.SECTORS)) * rng.uniform(0.0, 4.0, (3, 5, 1))
    got = _window_sums(sums)
    assert got.shape == (3, 5, 64)
    sectors = (3 * np.arange(64)[:, None] + np.arange(32)) % features.SECTORS  # window w: 3w .. 3w+31
    want = sums[..., sectors].sum(axis=-1)
    scale = np.abs(sums)[..., sectors].sum(axis=-1)
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


@functools.lru_cache(maxsize=None)
def gaussian_factor(u, sigma):
    """exp(-u^2 / 2 sigma^2) correctly rounded, from 50-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=50)):
        u, sigma = decimal.Decimal(str(u)), decimal.Decimal(str(sigma))
        return float((-(u * u) / (2 * sigma * sigma)).exp())


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


def pairwise_sum(values):
    """Adjacent pairs added level by level, for a power-of-two count."""
    while len(values) > 1:
        values = [values[i] + values[i + 1] for i in range(0, len(values), 2)]
    return values[0]


def reference_orientation(ii, x, y, s):
    """Per-point reference: each sample added to its pi/96 sector in sample
    order, then each pi/3 window's 32 sectors summed pairwise."""
    size = reference_even_size(4.0 * s)
    grid = np.arange(-6, 7)
    ui, vi = np.meshgrid(grid, grid)
    disc = ui * ui + vi * vi <= 36
    ui = ui[disc]
    vi = vi[disc]
    px = np.floor(x + ui * s + 0.5).astype(np.int64)
    py = np.floor(y + vi * s + 0.5).astype(np.int64)
    weight = np.array([gaussian_factor(u, 2.5) * gaussian_factor(v, 2.5) for u, v in zip(ui.tolist(), vi.tolist())])
    hx, hy = reference_haar(ii, px, py, size)
    gx = weight * hx
    gy = weight * hy
    angles = np.mod(np.arctan2(gy, gx), 2.0 * math.pi)
    sum_x, sum_y = [0.0] * 192, [0.0] * 192
    for a, sx, sy in zip(angles.tolist(), gx.tolist(), gy.tolist()):
        k = min(int(a * (96 / math.pi)), 191)
        sum_x[k] += sx
        sum_y[k] += sy
    best = (-1.0, 0.0, 0.0)
    for w in range(64):
        sectors = [(3 * w + i) % 192 for i in range(32)]
        sx = pairwise_sum([sum_x[k] for k in sectors])
        sy = pairwise_sum([sum_y[k] for k in sectors])
        if sx * sx + sy * sy > best[0]:
            best = (sx * sx + sy * sy, sx, sy)
    if best[0] == 0.0:
        return 0.0
    return math.atan2(best[2], best[1]) % (2.0 * math.pi)


def reference_descriptor(ii, x, y, s, theta):
    """Per-point reference: each subregion's 25 samples summed on their own,
    the vector divided by the root of its dot product with itself."""
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    size = reference_even_size(2.0 * s)
    idx = np.arange(20) - 9.5
    u, v = np.meshgrid(idx, idx)
    rx = (u * cos_t - v * sin_t) * s
    ry = (u * sin_t + v * cos_t) * s
    px = np.floor(x + rx + 0.5).astype(np.int64)
    py = np.floor(y + ry + 0.5).astype(np.int64)
    dx0, dy0 = reference_haar(ii, px, py, size)
    weight = np.array([[gaussian_factor(a, 3.3) * gaussian_factor(b, 3.3) for a in idx] for b in idx])
    dx = weight * (dx0 * cos_t + dy0 * sin_t)
    dy = weight * (-dx0 * sin_t + dy0 * cos_t)
    vec = []
    for i in range(4):
        for j in range(4):
            bx, by = (d[5 * i : 5 * i + 5, 5 * j : 5 * j + 5].ravel() for d in (dx, dy))
            vec += [bx.sum(), by.sum(), np.abs(bx).sum(), np.abs(by).sum()]
    vec = np.array(vec)
    norm = np.sqrt(np.einsum("j,j->", vec, vec))
    if norm > 0.0:
        vec = vec / norm
    return vec


def reference_orientations(ii, x, y, s):
    """`reference_orientation` of each point (x[i], y[i], s[i]), shape (N,)."""
    return np.array([reference_orientation(ii, *p) for p in zip(x.tolist(), y.tolist(), s.tolist())], dtype=np.float64)


def reference_descriptors(ii, x, y, s, theta):
    """`reference_descriptor` of each point at theta[i], shape (N, 64)."""
    points = zip(x.tolist(), y.tolist(), s.tolist(), theta.tolist())
    return np.array([reference_descriptor(ii, *p) for p in points]).reshape(-1, 64)


def assert_batched_equals_reference(ii, x, y, s):
    """Orientation and descriptors agree byte for byte with the per-point
    reference, oriented and upright, for the whole batch and for each point
    computed alone."""
    alone = [slice(i, i + 1) for i in range(len(x))]
    want_theta = reference_orientations(ii, x, y, s)
    assert assign_orientation(ii, x, y, s).tobytes() == want_theta.tobytes()
    for i in alone:
        assert assign_orientation(ii, x[i], y[i], s[i]).tobytes() == want_theta[i].tobytes()
    for upright in (False, True):
        theta = np.zeros(len(x)) if upright else want_theta
        want = reference_descriptors(ii, x, y, s, theta)
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
        f = _extract(img, cfg)
        assert len(f.xy) >= min_points
        detected = detect_interest_points(ii, build_response_maps(ii, cfg), cfg.threshold)
        assert np.column_stack([f.xy, f.scale, f.response, f.sign]).tobytes() == detected.tobytes()
        x, y, s = detected[:, :3].T
        theta = np.zeros(len(x)) if upright else reference_orientations(ii, x, y, s)
        assert f.orientation.tobytes() == theta.tobytes()
        assert f.desc.tobytes() == reference_descriptors(ii, x, y, s, theta).tobytes()


def test_border_clipped_points_bit_identical_to_reference():
    # Haar boxes that reach past every edge and corner, at several scales.
    img = blob_texture(96, 80, 8, seed=7)
    ii = integral_of(img)
    pts = [
        (x, y, s)
        for x in (0.0, 1.4, 5.5, 47.0, 90.6, 95.0)
        for y in (0.0, 2.5, 40.2, 77.7, 79.0)
        for s in (1.2, 2.6, 7.9)
    ]
    assert_batched_equals_reference(ii, *np.array(pts, dtype=np.float64).T)


@pytest.mark.parametrize(
    "n",
    [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
    + [ORIENTATION_BLOCK - 1, ORIENTATION_BLOCK, ORIENTATION_BLOCK + 1, 2 * ORIENTATION_BLOCK + 1],
)
def test_block_boundaries_bit_identical_to_reference(n):
    img = noise_frame(seed=2, side=128)
    f = _extract(img)
    assert len(f.xy) >= n
    assert_batched_equals_reference(integral_of(img), f.xy[:n, 0], f.xy[:n, 1], f.scale[:n])


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


def test_extraction_memory_is_bounded():
    # RGB noise at 1024x1024, dense with points.  Octave 1's two dense
    # float64 layers (16 bytes per pixel), one int32 table (4, where the
    # int64 table and its int32 wrap took 12), the higher octaves, a
    # dense-filled outer layer (8) and the gray levels stay under 40 bytes
    # per pixel; four dense layers of octave 1 and a sign stack per layer
    # would need about 62.
    side = 1024
    img = RasterImage(np.random.default_rng(0).integers(0, 256, (side, side, 3), dtype=np.uint8))
    tracemalloc.start()
    try:
        pts, _ = extract_features(img)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) > 1000
    assert peak < 40 * side * side


def field_bytes(f):
    """Every field of a features table, as (name, dtype, shape, bytes)."""
    return [(k, str(a.dtype), a.shape, a.tobytes()) for k, a in vars(f).items()]


def test_pipeline_equals_manual_stage_composition(rng):
    cfg = ExtractionConfig()
    for seed in range(10):
        img = blob_texture(64, 64, 5, seed=100 + seed, margin=0.12)
        ii = build_integral(to_grayscale(img))
        pts = detect_interest_points(ii, build_response_maps(ii, cfg), cfg.threshold)
        x, y, s, response, sign = pts.T
        theta = assign_orientation(ii, x, y, s)
        want = Features(pts[:, :2], s, response, theta, sign, extract_descriptor(ii, x, y, s, theta))
        assert field_bytes(_extract(img, cfg)) == field_bytes(want)


def test_extract_features_lists_are_the_table_row_for_row():
    """The one place per-point objects are built: row i of `_extract`'s
    table is points[i] and descriptors[i], bit for bit, and the Laplacian
    sign is the int +1 or -1 on both."""
    for img, cfg in [
        (blob_texture(160, 128, 12, seed=4), ExtractionConfig()),
        (noise_frame(seed=9, side=112), ExtractionConfig(octaves=4, threshold=1e-4, upright=True)),
    ]:
        f = _extract(img, cfg)
        points, descriptors = extract_features(img, cfg)
        assert len(points) == len(descriptors) == len(f.xy) > 0
        fields = np.array([(p.x, p.y, p.scale, p.response, p.orientation) for p in points])
        assert fields.tobytes() == np.column_stack([f.xy, f.scale, f.response, f.orientation]).tobytes()
        assert {type(v) for p in points for v in (p.x, p.y, p.scale, p.response, p.orientation)} == {float}
        assert np.array([d.components for d in descriptors]).tobytes() == f.desc.tobytes()
        signs = [(p.laplacian_sign, d.laplacian_sign) for p, d in zip(points, descriptors)]
        assert {type(v) for pair in signs for v in pair} == {int} and {v for pair in signs for v in pair} == {1, -1}
        assert [p for p, _ in signs] == [d for _, d in signs] == f.sign.tolist()


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

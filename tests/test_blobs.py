"""Scanline blob detection against 4-connected flood-fill labeling."""

from fractions import Fraction

import numpy as np
import pytest

from arfex import blobs as blobs_module
from arfex.blobs import (
    Blob,
    Blobs,
    binarize,
    detect_blobs,
    merge_lineblobs,
    scan_lineblobs,
)
from oracles import flood_fill_labels, partition_from_labels


def mask_from_strings(rows):
    return np.array([[c == "#" for c in row] for row in rows])


def blob_partition(blobs):
    out = set()
    for b in blobs:
        pixels = set()
        for row, x_start, x_end, _ in b.member_runs.tolist():
            pixels.update((x, row) for x in range(x_start, x_end + 1))
        out.add(frozenset(pixels))
    return out


def blob_fields(blobs):
    """Every field of every blob, member runs as lists, for comparison."""
    return [(b.pixel_count, b.bbox, b.centroid, b.member_runs.tolist()) for b in blobs]


def test_binarize_boundary_is_foreground_for_white():
    g = np.array([[128]], dtype=np.uint8)
    assert binarize(g, 128, "white")[0, 0]
    assert not binarize(g, 128, "black")[0, 0]


def test_binarize_all_zero_white_is_empty():
    g = np.zeros((4, 4), dtype=np.uint8)
    assert not binarize(g, 128, "white").any()


def test_binarize_row_example():
    g = np.array([[100, 140, 160]], dtype=np.uint8)
    assert binarize(g, 128, "white").tolist() == [[False, True, True]]


def test_binarize_rejects_bad_arguments():
    g = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        binarize(g, 300, "white")
    with pytest.raises(ValueError):
        binarize(g, 128, "gray")


def test_lineblobs_basic_runs():
    runs = scan_lineblobs([[0, 1, 1, 0, 1]])
    assert runs[:, :3].tolist() == [[0, 1, 2], [0, 4, 4]]
    assert runs[:, 3].tolist() == [0, 1]


def test_lineblobs_empty_row():
    assert scan_lineblobs([[0, 0, 0]]).shape == (0, 4)


def test_lineblobs_full_row():
    runs = scan_lineblobs([[1] * 5])
    assert runs[:, 1:3].tolist() == [[0, 4]]


def test_plus_shape_is_one_blob():
    mask = mask_from_strings([".#.", "###", ".#."])
    blobs = detect_blobs(mask)
    assert len(blobs) == 1
    assert blobs[0].pixel_count == 5
    assert blobs[0].bbox == (0, 0, 2, 2)
    assert blobs[0].centroid == (1.0, 1.0)


def test_two_disjoint_squares():
    mask = mask_from_strings(["##..##", "##..##"])
    blobs = detect_blobs(mask)
    assert len(blobs) == 2
    assert all(b.pixel_count == 4 for b in blobs)
    # ties broken by (y_min, x_min): left square first
    assert blobs[0].bbox[0] == 0 and blobs[1].bbox[0] == 4


def test_diagonal_contact_stays_separate():
    mask = mask_from_strings(["##..", "..##"])
    blobs = detect_blobs(mask)
    assert len(blobs) == 2
    assert blob_partition(blobs) == partition_from_labels(flood_fill_labels(mask))


def test_single_column_overlap_merges():
    mask = mask_from_strings(["###...", "..####"])
    blobs = detect_blobs(mask)
    assert len(blobs) == 1
    assert blobs[0].pixel_count == 7


def test_partition_equals_flood_fill_on_random_masks(rng):
    for _ in range(50):
        mask = rng.random((32, 32)) < 0.4
        blobs = detect_blobs(mask)
        assert blob_partition(blobs) == partition_from_labels(flood_fill_labels(mask))


def test_no_pixel_lost_or_duplicated(rng):
    mask = rng.random((40, 40)) < 0.5
    blobs = detect_blobs(mask)
    assert sum(b.pixel_count for b in blobs) == int(mask.sum())


def test_merge_is_scan_order_independent(rng):
    mask = rng.random((24, 24)) < 0.45
    top_down = scan_lineblobs(mask)
    bottom_up = np.zeros((0, 4), dtype=np.int64)
    for r in range(mask.shape[0] - 1, -1, -1):
        runs = scan_lineblobs(mask[r : r + 1])
        runs[:, 0] = r
        runs[:, 3] += len(bottom_up)
        bottom_up = np.concatenate([bottom_up, runs])
    assert blob_partition(merge_lineblobs(top_down)) == blob_partition(merge_lineblobs(bottom_up))


def test_min_pixels_filter():
    mask = mask_from_strings(["##....#", "##....."])
    assert len(detect_blobs(mask)) == 2
    kept = detect_blobs(mask, min_pixels=2)
    assert len(kept) == 1
    assert kept[0].pixel_count == 4


def test_blobs_sorted_by_size_then_position(rng):
    mask = rng.random((30, 30)) < 0.42
    blobs = detect_blobs(mask)
    keys = [(-b.pixel_count, b.bbox[1], b.bbox[0]) for b in blobs]
    assert keys == sorted(keys)


def test_centroid_inside_bbox(rng):
    mask = rng.random((20, 20)) < 0.5
    for b in detect_blobs(mask):
        x0, y0, x1, y1 = b.bbox
        cx, cy = b.centroid
        assert x0 <= cx <= x1
        assert y0 <= cy <= y1


def assert_matches_flood_fill(mask, min_pixels=1):
    """Blobs equal the flood-fill components, with exact size, bbox and centroid."""
    blobs = detect_blobs(mask, min_pixels=min_pixels)
    want = {p for p in partition_from_labels(flood_fill_labels(mask)) if len(p) >= min_pixels}
    assert blob_partition(blobs) == want
    assert sum(b.pixel_count for b in blobs) == sum(len(p) for p in want)
    for b in blobs:
        runs = b.member_runs.tolist()
        xs = [x for _, x_start, x_end, _ in runs for x in range(x_start, x_end + 1)]
        ys = [row for row, x_start, x_end, _ in runs for _ in range(x_start, x_end + 1)]
        assert b.pixel_count == len(xs)
        assert b.bbox == (min(xs), min(ys), max(xs), max(ys))
        # The centroid is the correctly rounded mean, bit for bit.
        assert b.centroid == (float(Fraction(sum(xs), len(xs))), float(Fraction(sum(ys), len(ys))))
    assert blob_fields(blobs) == blob_fields(merge_lineblobs(scan_lineblobs(mask), min_pixels=min_pixels))
    return blobs


def serpentine(h, w):
    """One component: full rows joined by single pixels at alternating ends."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def test_empty_mask_has_no_blobs():
    assert len(assert_matches_flood_fill(np.zeros((6, 7), dtype=bool))) == 0


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_zero_sized_mask_has_no_blobs(shape):
    assert len(assert_matches_flood_fill(np.zeros(shape, dtype=bool))) == 0
    assert scan_lineblobs(np.zeros(shape, dtype=bool)).shape == (0, 4)


def test_all_foreground_is_one_blob():
    blobs = assert_matches_flood_fill(np.ones((5, 8), dtype=bool))
    assert len(blobs) == 1
    assert blobs[0].pixel_count == 40
    assert blobs[0].bbox == (0, 0, 7, 4)
    assert blobs[0].centroid == (3.5, 2.0)
    assert blobs[0].member_runs.tolist() == [[y, 0, 7, y] for y in range(5)]


def test_single_row_mask():
    blobs = assert_matches_flood_fill(mask_from_strings(["##.###..#"]))
    assert [b.pixel_count for b in blobs] == [3, 2, 1]


def test_single_column_mask():
    blobs = assert_matches_flood_fill(mask_from_strings(["#", "#", ".", "#", "#", "#", "."]))
    assert [b.bbox for b in blobs] == [(0, 3, 0, 5), (0, 0, 0, 1)]


@pytest.mark.parametrize("transpose", [False, True])
def test_serpentine_is_one_blob(transpose):
    # Transposed, every row holds many runs that join only at the far ends,
    # so labels have to travel against the run order.
    mask = serpentine(31, 12)
    mask = mask.T if transpose else mask
    blobs = assert_matches_flood_fill(mask)
    assert len(blobs) == 1
    assert blobs[0].pixel_count == int(mask.sum())


def test_min_pixels_can_drop_every_blob(rng):
    mask = rng.random((16, 16)) < 0.4
    assert len(assert_matches_flood_fill(mask, min_pixels=mask.size + 1)) == 0
    assert len(merge_lineblobs(scan_lineblobs(mask), min_pixels=mask.size + 1)) == 0


def test_min_pixels_matches_flood_fill_on_random_masks(rng):
    for min_pixels in (2, 5, 20):
        assert_matches_flood_fill(rng.random((24, 24)) < 0.45, min_pixels=min_pixels)


def test_detect_equals_scan_then_merge_field_for_field(rng):
    for _ in range(20):
        mask = rng.random((20, 28)) < 0.45
        runs = scan_lineblobs(mask)
        blobs = blob_fields(detect_blobs(mask))
        assert blobs == blob_fields(merge_lineblobs(runs))
        shuffled = runs[rng.permutation(len(runs))]
        assert blob_fields(merge_lineblobs(shuffled)) == blobs


def test_merge_rejects_overlapping_or_inverted_runs():
    with pytest.raises(ValueError):
        merge_lineblobs([[0, 0, 3, 0], [0, 2, 5, 1]])
    with pytest.raises(ValueError):
        merge_lineblobs([[0, 4, 3, 0]])


@pytest.mark.parametrize(
    "runs", [[0, 1, 2, 0], [[0, 1, 2]], np.zeros((2, 5), dtype=int), np.zeros((1, 2, 4), dtype=int), [[0, 1, 2.5, 0]]]
)
def test_merge_rejects_tables_not_n_by_4_integers(runs):
    with pytest.raises(ValueError, match="table"):
        merge_lineblobs(runs)


def test_size_and_row_ties_broken_by_x_min_not_first_run():
    # Both blobs have 12 pixels and start on row 0; the right one's first
    # run lies right of the left one's, but its bbox reaches column 0.
    mask = mask_from_strings([".######.#", ".######.#", "........#", "#########"])
    blobs = assert_matches_flood_fill(mask)
    assert [(b.pixel_count, b.bbox) for b in blobs] == [(12, (0, 0, 8, 3)), (12, (1, 0, 6, 1))]


def test_member_runs_are_views_of_one_read_only_table(rng):
    mask = rng.random((40, 40)) < 0.45
    blobs = detect_blobs(mask)
    table = blobs[0].member_runs.base
    assert table is blobs.runs and not table.flags.writeable and table.shape == (len(scan_lineblobs(mask)), 4)
    # Every run sits in exactly one blob's range of the table.
    assert sorted(r for start, stop in blobs.run_range.tolist() for r in range(start, stop)) == list(range(len(table)))
    for b in blobs:
        runs = b.member_runs
        assert runs.base is table and np.shares_memory(runs, table)
        assert not runs.flags.writeable
        keys = runs[:, :2].tolist()
        assert keys == sorted(keys)
    assert sum(len(b.member_runs) for b in blobs) == len(scan_lineblobs(mask))
    with pytest.raises(ValueError):
        blobs[0].member_runs[0, 0] = 5


def test_member_run_counts_build_no_lineblob(rng):
    mask = rng.random((40, 40)) < 0.45
    n_runs = len(scan_lineblobs(mask))
    blobs = detect_blobs(mask)
    assert sum(len(b.member_runs) for b in blobs) == n_runs
    # Member runs are integer rows of one table, not per-run objects.
    for b in blobs:
        assert isinstance(b.member_runs, np.ndarray)
        assert b.member_runs.dtype == np.int64 and b.member_runs.shape == (len(b.member_runs), 4)
    assert sum(1 for b in blobs for _ in b.member_runs) == n_runs


def test_member_runs_index_slice_and_iterate_in_row_order(rng):
    mask = rng.random((30, 30)) < 0.5
    runs = scan_lineblobs(mask).tolist()
    for b in detect_blobs(mask):
        members = b.member_runs
        keys = {(row, x_start) for row, x_start, _, _ in members.tolist()}
        want = sorted((r for r in runs if (r[0], r[1]) in keys), key=lambda r: (r[0], r[1]))
        assert [r.tolist() for r in members] == want
        assert len(members) == len(want)
        assert [members[i].tolist() for i in range(len(want))] == want
        assert [members[-i].tolist() for i in range(1, len(want) + 1)] == want[::-1]
        assert members[1:3].tolist() == want[1:3] and members[::-1].tolist() == want[::-1]
        with pytest.raises(IndexError):
            members[len(want)]
        with pytest.raises(IndexError):
            members[-len(want) - 1]


def test_labels_are_row_major_run_index_or_given_labels(rng):
    mask = rng.random((24, 24)) < 0.45
    runs = scan_lineblobs(mask)
    index = {(row, x_start): k for k, (row, x_start, _, _) in enumerate(runs.tolist())}
    for b in detect_blobs(mask):
        members = b.member_runs.tolist()
        assert [label for *_, label in members] == [index[(row, x_start)] for row, x_start, _, _ in members]
    relabeled = runs.copy()
    relabeled[:, 3] = 1000 - 3 * np.arange(len(runs))
    shuffled = relabeled[rng.permutation(len(relabeled))]
    merged = merge_lineblobs(shuffled)
    assert sorted((r for b in merged for r in b.member_runs.tolist()), key=lambda r: r[3]) == sorted(
        relabeled.tolist(), key=lambda r: r[3]
    )
    assert blob_partition(merged) == blob_partition(detect_blobs(mask))
    assert blob_fields(merged) != blob_fields(detect_blobs(mask))  # same runs, other labels


def test_blobs_equal_across_separately_built_results(rng):
    mask = rng.random((28, 28)) < 0.45
    a, b = detect_blobs(mask), detect_blobs(mask)
    assert blob_fields(a) == blob_fields(b)
    other = mask.copy()
    other[0, 0] = not other[0, 0]
    assert blob_fields(detect_blobs(other)) != blob_fields(a)


def test_built_runs_equal_constructed_runs(rng):
    mask = rng.random((12, 15)) < 0.5
    want = []
    for y, row in enumerate(mask.tolist()):
        x = 0
        while x < len(row):
            if row[x]:
                start = x
                while x + 1 < len(row) and row[x + 1]:
                    x += 1
                want.append([y, start, x, len(want)])
            x += 1
    runs = scan_lineblobs(mask)
    assert runs.dtype == np.int64 and runs.tolist() == want
    got = sorted((r for b in detect_blobs(mask) for r in b.member_runs.tolist()), key=lambda r: r[3])
    assert got == want


TABLE_FIELDS = ("pixel_count", "bbox", "centroid", "run_range", "runs")


def table_arrays(t):
    """Every array of a blob table, as (name, dtype, shape, bytes)."""
    return [(k, str(a.dtype), a.shape, a.tobytes()) for k, a in ((k, getattr(t, k)) for k in TABLE_FIELDS)]


def test_blob_table_arrays_are_read_only_with_documented_layout(rng):
    mask = rng.random((30, 30)) < 0.45
    t = detect_blobs(mask)
    n = len(t)
    assert isinstance(t, Blobs) and n > 1
    want = {
        "pixel_count": (np.int64, (n,)),
        "bbox": (np.int64, (n, 4)),
        "centroid": (np.float64, (n, 2)),
        "run_range": (np.int64, (n, 2)),
        "runs": (np.int64, (len(scan_lineblobs(mask)), 4)),
    }
    for k, (dtype, shape) in want.items():
        a = getattr(t, k)
        assert a.dtype == dtype and a.shape == shape, k
        assert not a.flags.writeable and (a.base is None or not a.base.flags.writeable), k
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    for i, b in enumerate(t):
        assert (b.pixel_count, b.bbox, b.centroid) == (t.pixel_count[i], tuple(t.bbox[i]), tuple(t.centroid[i]))
        start, stop = t.run_range[i]
        assert np.array_equal(b.member_runs, t.runs[start:stop])


def test_blob_table_is_a_sequence_of_blobs(rng):
    mask = rng.random((25, 25)) < 0.45
    t = detect_blobs(mask)
    n = len(t)
    by_index = [t[i] for i in range(n)]
    assert blob_fields(t) == blob_fields(by_index)
    assert blob_fields(t[-i] for i in range(1, n + 1)) == blob_fields(by_index[::-1])
    assert blob_fields(reversed(t)) == blob_fields(by_index[::-1])
    for i in (n, -n - 1, 10**6):
        with pytest.raises(IndexError):
            t[i]
    with pytest.raises(TypeError):
        t[1.0]
    for b in t:
        assert type(b) is Blob
        assert type(b.pixel_count) is int
        assert type(b.bbox) is tuple and all(type(v) is int for v in b.bbox)
        assert type(b.centroid) is tuple and all(type(v) is float for v in b.centroid)


def test_blob_table_keeps_its_blobs_as_a_list_would(rng):
    t = detect_blobs(rng.random((25, 25)) < 0.45)
    listed = list(t)
    n = len(t)
    assert all(t[i] is b and t[i - n] is b for i, b in enumerate(listed))
    for i in (0, n // 2, n - 1):
        b = t[i]
        assert b in t and t.index(b) == i and t.count(b) == 1
    stranger = Blob(t[0].pixel_count, t[0].bbox, t[0].centroid, t[0].member_runs)
    assert stranger not in t and t.count(stranger) == 0
    with pytest.raises(ValueError):
        t.index(stranger)
    for s in (slice(None, 5), slice(-3, None), slice(None, None, -2), slice(n, n + 4)):
        got = t[s]
        assert type(got) is list and len(got) == len(listed[s])
        assert all(a is b for a, b in zip(got, listed[s]))
    t[0].pixel_count = -1  # a field set on a blob stays set
    assert t[0].pixel_count == -1 and next(iter(t)).pixel_count == -1
    assert t.pixel_count[0] > 0  # the table's arrays do not follow


@pytest.mark.parametrize("shape, min_pixels", [((6, 7), 1), ((0, 4), 1), ((9, 9), 82)])
def test_blob_table_of_nothing_has_length_zero(rng, shape, min_pixels):
    mask = rng.random(shape) < 0.5 if min_pixels > 1 else np.zeros(shape, dtype=bool)
    for t in (detect_blobs(mask, min_pixels), merge_lineblobs(scan_lineblobs(mask), min_pixels)):
        assert len(t) == 0 and list(t) == []
        assert t.pixel_count.shape == (0,) and t.bbox.shape == (0, 4) and t.centroid.shape == (0, 2)
        assert t.run_range.shape == (0, 2) and t.run_range.dtype == np.int64
        assert t.runs.shape == (len(scan_lineblobs(mask)), 4)
        with pytest.raises(IndexError):
            t[0]


def test_merge_of_shuffled_runs_equals_detect_as_a_table(rng):
    for _ in range(10):
        mask = rng.random((22, 26)) < 0.45
        runs = scan_lineblobs(mask)
        want = detect_blobs(mask)
        got = merge_lineblobs(runs[rng.permutation(len(runs))])
        assert table_arrays(got) == table_arrays(want)
        assert blob_fields(got) == blob_fields(want)


def test_detect_blobs_builds_no_blob(monkeypatch, rng):
    built = []

    class CountingBlob(Blob):
        __slots__ = ()

        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(blobs_module, "Blob", CountingBlob)
    mask = rng.random((120, 160)) < 0.5
    t = detect_blobs(mask)
    merge_lineblobs(scan_lineblobs(mask))
    assert len(t) > 1000 and built == []
    t[-1]  # builds every row's blob once
    assert len(built) == len(t)
    assert sum(1 for _ in t) == len(t) and t[0] is t[0] and len(built) == len(t)

"""Scanline blob detection against 4-connected flood-fill labeling."""

import dataclasses
import gc
from fractions import Fraction

import numpy as np
import pytest

from arfex.blobs import (
    LineBlob,
    binarize,
    detect_blobs,
    merge_lineblobs,
    scan_lineblobs,
)
from arfex.image import GrayImage
from oracles import flood_fill_labels, partition_from_labels


def mask_from_strings(rows):
    return np.array([[c == "#" for c in row] for row in rows])


def blob_partition(blobs):
    out = set()
    for b in blobs:
        pixels = set()
        for r in b.member_runs:
            pixels.update((x, r.row) for x in range(r.x_start, r.x_end + 1))
        out.add(frozenset(pixels))
    return out


def test_binarize_boundary_is_foreground_for_white():
    g = GrayImage(np.array([[128]], dtype=np.uint8))
    assert binarize(g, 128, "white")[0, 0]
    assert not binarize(g, 128, "black")[0, 0]


def test_binarize_all_zero_white_is_empty():
    g = GrayImage(np.zeros((4, 4), dtype=np.uint8))
    assert not binarize(g, 128, "white").any()


def test_binarize_row_example():
    g = GrayImage(np.array([[100, 140, 160]], dtype=np.uint8))
    assert binarize(g, 128, "white").tolist() == [[False, True, True]]


def test_binarize_rejects_bad_arguments():
    g = GrayImage(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        binarize(g, 300, "white")
    with pytest.raises(ValueError):
        binarize(g, 128, "gray")


def test_lineblobs_basic_runs():
    runs = scan_lineblobs([[0, 1, 1, 0, 1]])
    assert [(r.row, r.x_start, r.x_end) for r in runs] == [(0, 1, 2), (0, 4, 4)]
    assert [r.label for r in runs] == [0, 1]


def test_lineblobs_empty_row():
    assert scan_lineblobs([[0, 0, 0]]) == []


def test_lineblobs_full_row():
    runs = scan_lineblobs([[1] * 5])
    assert [(r.x_start, r.x_end) for r in runs] == [(0, 4)]


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
    bottom_up = []
    for r in range(mask.shape[0] - 1, -1, -1):
        base = len(bottom_up)
        bottom_up += [LineBlob(r, run.x_start, run.x_end, base + run.label) for run in scan_lineblobs(mask[r : r + 1])]
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
        xs = [x for r in b.member_runs for x in range(r.x_start, r.x_end + 1)]
        ys = [r.row for r in b.member_runs for _ in range(r.x_start, r.x_end + 1)]
        assert b.pixel_count == len(xs)
        assert b.bbox == (min(xs), min(ys), max(xs), max(ys))
        # The centroid is the correctly rounded mean, bit for bit.
        assert b.centroid == (float(Fraction(sum(xs), len(xs))), float(Fraction(sum(ys), len(ys))))
    assert blobs == merge_lineblobs(scan_lineblobs(mask), min_pixels=min_pixels)
    return blobs


def serpentine(h, w):
    """One component: full rows joined by single pixels at alternating ends."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def test_empty_mask_has_no_blobs():
    assert assert_matches_flood_fill(np.zeros((6, 7), dtype=bool)) == []


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_zero_sized_mask_has_no_blobs(shape):
    assert assert_matches_flood_fill(np.zeros(shape, dtype=bool)) == []
    assert scan_lineblobs(np.zeros(shape, dtype=bool)) == []


def test_all_foreground_is_one_blob():
    blobs = assert_matches_flood_fill(np.ones((5, 8), dtype=bool))
    assert len(blobs) == 1
    assert blobs[0].pixel_count == 40
    assert blobs[0].bbox == (0, 0, 7, 4)
    assert blobs[0].centroid == (3.5, 2.0)
    assert [(r.row, r.x_start, r.x_end, r.label) for r in blobs[0].member_runs] == [
        (y, 0, 7, y) for y in range(5)
    ]


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
    assert assert_matches_flood_fill(mask, min_pixels=mask.size + 1) == []
    assert merge_lineblobs(scan_lineblobs(mask), min_pixels=mask.size + 1) == []


def test_min_pixels_matches_flood_fill_on_random_masks(rng):
    for min_pixels in (2, 5, 20):
        assert_matches_flood_fill(rng.random((24, 24)) < 0.45, min_pixels=min_pixels)


def test_detect_equals_scan_then_merge_field_for_field(rng):
    for _ in range(20):
        mask = rng.random((20, 28)) < 0.45
        runs = scan_lineblobs(mask)
        blobs = detect_blobs(mask)
        assert blobs == merge_lineblobs(runs)
        shuffled = [runs[i] for i in rng.permutation(len(runs))]
        assert merge_lineblobs(shuffled) == blobs


def test_merge_rejects_overlapping_or_inverted_runs():
    with pytest.raises(ValueError):
        merge_lineblobs([LineBlob(0, 0, 3, 0), LineBlob(0, 2, 5, 1)])
    with pytest.raises(ValueError):
        merge_lineblobs([LineBlob(0, 4, 3, 0)])


def test_size_and_row_ties_broken_by_x_min_not_first_run():
    # Both blobs have 12 pixels and start on row 0; the right one's first
    # run lies right of the left one's, but its bbox reaches column 0.
    mask = mask_from_strings([".######.#", ".######.#", "........#", "#########"])
    blobs = assert_matches_flood_fill(mask)
    assert [(b.pixel_count, b.bbox) for b in blobs] == [(12, (0, 0, 8, 3)), (12, (1, 0, 6, 1))]


def live_lineblobs():
    """Number of `LineBlob` objects alive in the process."""
    gc.collect()
    return sum(type(o) is LineBlob for o in gc.get_objects())


def test_member_run_counts_build_no_lineblob(rng):
    mask = rng.random((40, 40)) < 0.45
    n_runs = len(scan_lineblobs(mask))
    before = live_lineblobs()
    blobs = detect_blobs(mask)
    assert sum(len(b.member_runs) for b in blobs) == n_runs
    assert live_lineblobs() == before
    # The first access builds the runs of the whole result at once.
    assert list(blobs[-1].member_runs)
    assert live_lineblobs() == before + n_runs
    assert sum(1 for b in blobs for r in b.member_runs) == n_runs
    assert live_lineblobs() == before + n_runs


def test_member_runs_index_slice_and_iterate_in_row_order(rng):
    mask = rng.random((30, 30)) < 0.5
    runs = scan_lineblobs(mask)
    for b in detect_blobs(mask):
        members = b.member_runs
        want = sorted(
            (r for r in runs if (r.row, r.x_start) in {(m.row, m.x_start) for m in members}),
            key=lambda r: (r.row, r.x_start),
        )
        assert list(members) == want
        assert len(members) == len(want)
        assert [members[i] for i in range(len(want))] == want
        assert [members[-i] for i in range(1, len(want) + 1)] == want[::-1]
        assert members[1:3] == want[1:3] and members[::-1] == want[::-1]
        assert members == want and members == tuple(want)
        with pytest.raises(IndexError):
            members[len(want)]
        with pytest.raises(IndexError):
            members[-len(want) - 1]


def test_labels_are_row_major_run_index_or_given_labels(rng):
    mask = rng.random((24, 24)) < 0.45
    runs = scan_lineblobs(mask)
    index = {(r.row, r.x_start): k for k, r in enumerate(runs)}
    for b in detect_blobs(mask):
        assert [r.label for r in b.member_runs] == [index[(r.row, r.x_start)] for r in b.member_runs]
    relabeled = [LineBlob(r.row, r.x_start, r.x_end, 1000 - 3 * k) for k, r in enumerate(runs)]
    shuffled = [relabeled[i] for i in rng.permutation(len(relabeled))]
    merged = merge_lineblobs(shuffled)
    assert sorted((r for b in merged for r in b.member_runs), key=lambda r: r.label) == sorted(
        relabeled, key=lambda r: r.label
    )
    assert blob_partition(merged) == blob_partition(detect_blobs(mask))
    assert merged != detect_blobs(mask)  # same runs, other labels


def test_blobs_equal_across_separately_built_results(rng):
    mask = rng.random((28, 28)) < 0.45
    a, b = detect_blobs(mask), detect_blobs(mask)
    assert a == b
    assert [x.member_runs for x in a] == [list(x.member_runs) for x in b]
    other = mask.copy()
    other[0, 0] = not other[0, 0]
    assert detect_blobs(other) != a


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
                want.append(LineBlob(y, start, x, len(want)))
            x += 1
    runs = scan_lineblobs(mask)
    assert runs == want
    assert [hash(r) for r in runs] == [hash(r) for r in want]
    assert repr(runs) == repr(want)
    got = sorted((r for b in detect_blobs(mask) for r in b.member_runs), key=lambda r: r.label)
    assert got == want and repr(got) == repr(want)
    with pytest.raises(dataclasses.FrozenInstanceError):
        runs[0].row = 5

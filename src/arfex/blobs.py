"""Scanline blob detection: per-row foreground runs merged across rows.

Runs on adjacent rows whose column intervals share at least one column are
merged transitively, which is exactly 4-connected labeling.  The whole
labeling works on run arrays: one diff finds every run, a searchsorted
links runs on adjacent rows, min-label propagation joins linked runs into
components, and segment reductions give each component's statistics.

Runs are rows of an (n, 4) int64 run table: row, x_start, x_end (inclusive)
and label.  `scan_lineblobs` gives the table of a mask in row-major order,
labelled 0..n-1, from one pass over the flattened mask.

A labelling result is one read-only `Blobs` table, blob i in row i of each
array: `pixel_count` (n,), `bbox` (n, 4) as x_min, y_min, x_max, y_max,
`centroid` (n, 2) as x, y, and `run_range` (n, 2), the [start, stop) rows
of `runs` that hold its runs.  `runs` is the one run table, grouped blob by
blob, each group in (row, x_start) order.  Labelling builds no per-blob
object: the first index or iteration of the table builds and keeps the
`Blob` of every row, and each `member_runs` is the view of its group, so
its length costs O(1).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import starmap

import numpy as np


@dataclass(eq=False, slots=True)
class Blob:
    """Merged region: size, tight bounding box, centroid, member runs."""

    pixel_count: int
    bbox: tuple[int, int, int, int]  # (x_min, y_min, x_max, y_max)
    centroid: tuple[float, float]
    member_runs: np.ndarray  # (k, 4) read-only run-table rows, in (row, x_start) order


@dataclass(frozen=True, eq=False)
class Blobs(Sequence):
    """Labelled blobs as one read-only table, a sequence of `Blob`.

    Row i of each array is blob i, in descending pixel count, then
    (y_min, x_min), then first run.  `len(t)` builds no `Blob`.  The first
    index or iteration builds the `Blob` of every row at once and keeps
    them, so `t[i]` is the same object each time and `t[a:b]`, `in`,
    `index` and `count` behave as on a list of them.
    """

    pixel_count: np.ndarray  # (n,) int64
    bbox: np.ndarray  # (n, 4) int64: x_min, y_min, x_max, y_max
    centroid: np.ndarray  # (n, 2) float64: x, y
    run_range: np.ndarray  # (n, 2) int64: [start, stop) rows of `runs`
    runs: np.ndarray  # (m, 4) int64 run table, grouped blob by blob

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @cached_property
    def _blobs(self) -> list[Blob]:
        return list(
            map(
                Blob,
                self.pixel_count.tolist(),
                map(tuple, self.bbox.tolist()),
                map(tuple, self.centroid.tolist()),
                map(self.runs.__getitem__, starmap(slice, self.run_range.tolist())),
            )
        )

    def __len__(self) -> int:
        return len(self.pixel_count)

    def __getitem__(self, i):
        return self._blobs[i]

    def __iter__(self) -> Iterator[Blob]:
        return iter(self._blobs)


def binarize(levels: np.ndarray, threshold: int, polarity: str = "white") -> np.ndarray:
    """Boolean foreground mask of an 8-bit level array (`image.to_grayscale`).

    White polarity: level >= threshold is foreground; black: level < threshold.
    """
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold must be in [0, 255], got {threshold}")
    if polarity == "white":
        return levels >= threshold
    if polarity == "black":
        return levels < threshold
    raise ValueError(f"polarity must be 'white' or 'black', got {polarity!r}")


def scan_lineblobs(mask: np.ndarray) -> np.ndarray:
    """Run table of every maximal run of a 2-D mask, row-major, labelled 0..n-1."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    flat = padded.ravel()
    # Edge p lies between flat[p] and flat[p + 1].  Every padded row begins
    # and ends background, so edges pair up within a row: an even edge is
    # just before a run's first pixel, an odd one at its last.
    start, end = np.flatnonzero(flat[1:] != flat[:-1]).reshape(-1, 2).T
    rows, starts = np.divmod(start, w + 2)
    return np.stack([rows, starts, end - rows * (w + 2) - 1, np.arange(rows.size)], axis=1)


def _components(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Root of each run's component: the smallest index of a run in it.

    Runs must be sorted by (row, x_start) and disjoint within a row.  With
    row-major keys row * stride + x, the runs a run overlaps on the next row
    form one index range [lo, hi), found by searchsorted over end and start
    keys.
    """
    n = rows.size
    stride = int(ends.max() - starts.min()) + 1
    row_key = rows * stride
    lo = np.searchsorted(row_key + ends, row_key + stride + starts, side="left")
    hi = np.searchsorted(row_key + starts, row_key + stride + ends, side="right")
    counts = hi - lo
    a = np.repeat(np.arange(n), counts)
    b = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(a.size)
    # Min-label propagation: hook each linked pair of roots onto the smaller
    # one, then pointer-jump until every run points straight at its root.
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        if (ra == rb).all():
            return root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = root[root]
        while (jumped != root).any():
            root, jumped = jumped, jumped[jumped]


def _label_runs(table: np.ndarray, min_pixels: int) -> Blobs:
    """Blobs from a fresh int64 run table sorted by (row, x_start), disjoint
    within a row.

    Blobs below min_pixels are dropped; the rest are ordered by descending
    size, then (y_min, x_min), then first run.
    """
    if len(table) == 0:
        empty = np.zeros((0, 4), dtype=np.int64)
        return Blobs(empty[:, 0], empty, np.zeros((0, 2)), empty[:, :2], table)
    root = _components(*table.T[:3])
    # Groups in order of their root, members in (row, x_start) order.  The
    # sort key is each run's group number in root order, in the smallest
    # dtype that holds it, so the stable sort can be a radix sort.
    group = np.cumsum(root == np.arange(root.size))[root] - 1
    group = group.astype(np.min_scalar_type(group.max()))
    order = np.argsort(group, kind="stable")
    table = table[order]
    rows, starts, ends, _ = table.T
    members = np.bincount(group)
    stop = np.cumsum(members)
    first = stop - members
    length = ends - starts + 1
    count = np.add.reduceat(length, first)
    # Run-weighted sums are integers, so each centroid is one correctly
    # rounded division, independent of summation order.
    cx = np.add.reduceat(length * (starts + ends), first) * 0.5 / count
    cy = np.add.reduceat(length * rows, first) / count
    stats = np.stack(
        [
            count,
            np.minimum.reduceat(starts, first),
            rows[first],
            np.maximum.reduceat(ends, first),
            rows[stop - 1],
            first,
            stop,
        ],
        axis=1,
    )
    rank = np.lexsort((stats[:, 1], stats[:, 2], -count))
    rank = rank[count[rank] >= min_pixels]
    ranked = stats[rank]
    ranked.flags.writeable = False  # the base of the table's column views
    return Blobs(ranked[:, 0], ranked[:, 1:5], np.stack([cx[rank], cy[rank]], axis=1), ranked[:, 5:], table)


def merge_lineblobs(runs: np.ndarray, min_pixels: int = 1) -> Blobs:
    """Union column-overlapping runs on adjacent rows into blobs.

    `runs` is an (n, 4) run table in any row order (it is sorted
    internally), so a bottom-to-top scan produces the same partition.  Runs
    must be non-empty and must not overlap on one row, as holds for maximal
    runs (ValueError otherwise).  Blobs smaller than min_pixels are dropped;
    the table's rows are sorted by descending pixel count, ties by (y_min,
    x_min).  Its `runs` are the given rows, labels included, in (row,
    x_start) order within each blob.
    """
    table = np.asarray(runs)
    if table.ndim != 2 or table.shape[1] != 4 or table.dtype.kind not in "iu":
        raise ValueError(
            f"runs must be an (n, 4) integer table of row, x_start, x_end, label; got {table.dtype} {table.shape}"
        )
    table = table[np.lexsort((table[:, 1], table[:, 0]))].astype(np.int64)
    rows, starts, ends, _ = table.T
    if np.any(ends < starts) or np.any((rows[1:] == rows[:-1]) & (starts[1:] <= ends[:-1])):
        raise ValueError("runs must be non-empty and must not overlap on one row")
    return _label_runs(table, min_pixels)


def detect_blobs(mask: np.ndarray, min_pixels: int = 1) -> Blobs:
    """Scan and merge in one call: equal to merge_lineblobs(scan_lineblobs(mask))."""
    return _label_runs(scan_lineblobs(mask), min_pixels)

"""Scanline blob detection: per-row foreground runs merged across rows.

Runs on adjacent rows whose column intervals share at least one column are
merged transitively, which is exactly 4-connected labeling.  The whole
labeling works on run arrays: one diff finds every run, a searchsorted
links runs on adjacent rows, min-label propagation joins linked runs into
components, and segment reductions give each component's statistics.

A result's runs live in one shared `RunTable`: row, x_start, x_end and
label arrays in blob-grouped order.  Each `Blob` holds a `MemberRuns` view
of its [lo, hi) range of that table, whose length costs O(1).  `LineBlob`
objects are built only when a caller indexes or iterates the runs, and then
for the whole table at once.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .image import GrayImage


@dataclass(frozen=True, slots=True)
class LineBlob:
    """Maximal foreground run on one scanline, inclusive column span."""

    row: int
    x_start: int
    x_end: int
    label: int


class RunTable:
    """Runs of one labelling result as arrays, grouped blob by blob."""

    def __init__(self, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray, labels: np.ndarray):
        self.columns = (rows, starts, ends, labels)

    @cached_property
    def lineblobs(self) -> list[LineBlob]:
        """One `LineBlob` per run, built on first access."""
        return _runs_to_lineblobs(*self.columns)


class MemberRuns(Sequence):
    """Read-only sequence of the `LineBlob`s in rows [lo, hi) of a `RunTable`.

    Equal to another `MemberRuns`, or to a list or tuple, holding equal runs.
    """

    __slots__ = ("_table", "_lo", "_hi")

    def __init__(self, table: RunTable, lo: int, hi: int):
        self._table, self._lo, self._hi = table, lo, hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._table.lineblobs[self._lo : self._hi][index]
        return self._table.lineblobs[self._lo + range(len(self))[index]]

    def __iter__(self):
        return iter(self._table.lineblobs[self._lo : self._hi])

    def __eq__(self, other):
        if isinstance(other, MemberRuns):
            return len(self) == len(other) and all(
                np.array_equal(mine[self._lo : self._hi], theirs[other._lo : other._hi])
                for mine, theirs in zip(self._table.columns, other._table.columns)
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"MemberRuns({list(self)!r})"


@dataclass
class Blob:
    """Merged region: size, tight bounding box, centroid, member runs."""

    pixel_count: int
    bbox: tuple[int, int, int, int]  # (x_min, y_min, x_max, y_max)
    centroid: tuple[float, float]
    member_runs: MemberRuns  # in (row, x_start) order


def binarize(gray: GrayImage, threshold: int, polarity: str = "white") -> np.ndarray:
    """Boolean foreground mask.

    White polarity: level >= threshold is foreground; black: level < threshold.
    """
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold must be in [0, 255], got {threshold}")
    if polarity == "white":
        return gray.levels >= threshold
    if polarity == "black":
        return gray.levels < threshold
    raise ValueError(f"polarity must be 'white' or 'black', got {polarity!r}")


def _mask_runs(mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, x_start, x_end) of every maximal run of a 2-D mask, row-major."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1] - 1
    return rows, starts, ends


def _runs_to_lineblobs(rows, starts, ends, labels) -> list[LineBlob]:
    # The frozen dataclass __init__ is one Python frame per run.  Setting
    # each slot across all runs through its member descriptor, mapped in C,
    # builds equal objects about three times faster.
    runs = list(map(object.__new__, repeat(LineBlob, len(rows))))
    for name, values in zip(("row", "x_start", "x_end", "label"), (rows, starts, ends, labels)):
        deque(map(getattr(LineBlob, name).__set__, runs, values.tolist()), maxlen=0)
    return runs


def scan_lineblobs(mask: np.ndarray) -> list[LineBlob]:
    """Runs for every row of a mask, top to bottom, labels fresh across the image."""
    rows, starts, ends = _mask_runs(mask)
    return _runs_to_lineblobs(rows, starts, ends, np.arange(rows.size))


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


def _label_runs(rows, starts, ends, labels, min_pixels: int) -> list[Blob]:
    """Blobs from run arrays sorted by (row, x_start), disjoint within a row.

    `labels` become the runs' `LineBlob.label`.  Blobs below min_pixels are
    dropped; the rest are ordered by descending size, then (y_min, x_min),
    then first run.
    """
    if rows.size == 0:
        return []
    root = _components(rows, starts, ends)
    # Groups in order of their root, members in (row, x_start) order.
    order = np.argsort(root, kind="stable")
    table = RunTable(rows[order], starts[order], ends[order], labels[order])
    rows, starts, ends, _ = table.columns
    roots = np.flatnonzero(root == np.arange(root.size))
    first = np.searchsorted(root[order], roots)
    stop = np.append(first[1:], root.size)
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
    count, *bbox, lo, hi = stats[rank].T.tolist()
    return list(
        map(
            Blob,
            count,
            zip(*bbox),
            zip(cx[rank].tolist(), cy[rank].tolist()),
            map(MemberRuns, repeat(table), lo, hi),
        )
    )


def merge_lineblobs(runs: list[LineBlob], min_pixels: int = 1) -> list[Blob]:
    """Union column-overlapping runs on adjacent rows into blobs.

    Scan order of `runs` does not matter (they are sorted internally), so a
    bottom-to-top scan produces the same partition.  Runs must be non-empty
    and must not overlap on one row, as holds for maximal runs (ValueError
    otherwise).  Blobs smaller than min_pixels are dropped; output sorted by
    descending pixel count, ties by (y_min, x_min).  Member runs are equal
    to the given runs, labels included, in (row, x_start) order.
    """
    fields = np.array([(r.row, r.x_start, r.x_end, r.label) for r in runs], dtype=np.int64).reshape(-1, 4)
    rows, starts, ends, labels = fields[np.lexsort((fields[:, 1], fields[:, 0]))].T
    if np.any(ends < starts) or np.any((rows[1:] == rows[:-1]) & (starts[1:] <= ends[:-1])):
        raise ValueError("runs must be non-empty and must not overlap on one row")
    return _label_runs(rows, starts, ends, labels, min_pixels)


def detect_blobs(mask: np.ndarray, min_pixels: int = 1) -> list[Blob]:
    """Scan and merge in one call: equal to merge_lineblobs(scan_lineblobs(mask))."""
    rows, starts, ends = _mask_runs(mask)
    return _label_runs(rows, starts, ends, np.arange(rows.size), min_pixels)

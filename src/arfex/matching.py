"""Descriptor matching: Laplacian-sign prefilter + nearest-neighbor ratio test.

One core, `match_sets`, matches a query's descriptor matrix against every
record of a `TargetSet` at once: the records' `features.Features` `desc`
rows and `sign`s, concatenated in record order.  Matches come back as index
arrays, not per-match objects.

The answer is defined by the exact distance
`sqrt(einsum("ij,ij->i", t - q, t - q))` between a query row q and each
same-sign target row t, with Lowe's ratio test (IJCV 2004) on the nearest
and second-nearest, ties broken by the lowest target index.

Screen.  For each block of block_rows(M) query rows against the M target
rows, one GEMM gives the approximate squared distances
a = |q|^2 + |t|^2 - 2 q.t; opposite-sign entries are set to inf.  Per (row, record), m2 is the second-smallest a.
The exact distance is recomputed only for the same-sign targets with
a <= m2 + 2*delta, where delta = SCREEN_REL * (|q| + max |t|)^2 + SCREEN_ABS.

Why the result is exact.  Both a and the exact squared distance e are
within about gamma_64 * (|q| + |t|)^2 ~ 7.2e-15 * (|q| + |t|)^2 of the true
squared distance (the dot-product error bound, whatever the BLAS summation
order), plus an absolute error far below SCREEN_ABS where products
underflow; so |a - e| <= delta with more than two orders of magnitude to
spare.  The exact second-smallest e of a record is at most m2 + delta, since
the two targets with the smallest a both have e <= m2 + delta.  So every
target whose exact distance is at most the record's second-nearest distance
(ties and the rounding of sqrt included) has a <= m2 + 2*delta, and the
decision runs on exact values of a superset of the top two.  A row with a
non-finite a (norms near 1e154 overflow the GEMM) is recomputed in full.
The exact distances are the same bits as a per-row loop gives: `einsum`
reduces each contiguous 64-vector alone, whichever rows sit beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import DESCRIPTOR_LENGTH, Features


# A lone same-sign candidate has no second neighbour for the ratio test; it is
# accepted below this absolute distance instead.
LONE_CANDIDATE_MAX_DISTANCE = 0.5

# Query-row x target-row elements per GEMM screen.  A block has
# SCREEN_ELEMENTS // M query rows against M target rows, so its temporaries
# (about 80 bytes per element, 3.8 MB a block) do not grow with the database.
# 64 rows against the benchmark's 724-row database stay below the memory peak
# of extracting a 730-point query's features; 128 rows exceed it.
SCREEN_ELEMENTS = 64 * 724
SCREEN_REL = 4e-12  # delta per (|q| + max |t|)^2; about 280x the worst-case error
SCREEN_ABS = 1e-300  # delta floor, above the error of underflowed products


@dataclass(frozen=True, eq=False)
class TargetSet:
    """The descriptors of R records as one matrix.

    `desc` and `signs` are the concatenations of the records' `Features.desc`
    and `Features.sign`: rows offsets[r]:offsets[r + 1] are record r's, in
    record order.  `starts` are the offsets of the non-empty records, and
    `segment[j]` is the index into `starts` of row j's record.
    """

    desc: np.ndarray  # (M, 64) float64
    signs: np.ndarray  # (M,) int8 Laplacian signs
    offsets: np.ndarray  # (R + 1,)
    record: np.ndarray  # (M,) record of each row
    starts: np.ndarray
    segment: np.ndarray  # (M,)
    sq: np.ndarray  # (M,) squared norms
    max_norm: float

    @classmethod
    def build(cls, records: list[Features]) -> "TargetSet":
        counts = np.array([len(r.desc) for r in records], dtype=np.intp)
        desc = np.concatenate([np.zeros((0, DESCRIPTOR_LENGTH)), *(r.desc for r in records)])
        signs = np.concatenate([np.zeros(0, dtype=np.int8), *(r.sign for r in records)])
        sq = np.einsum("ij,ij->i", desc, desc)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return cls(
            desc=desc,
            signs=signs,
            offsets=offsets,
            record=np.repeat(np.arange(len(records)), counts),
            starts=offsets[:-1][counts > 0],
            segment=np.repeat(np.arange(int(np.count_nonzero(counts))), counts[counts > 0]),
            sq=sq,
            max_norm=float(np.sqrt(sq.max())) if len(sq) else 0.0,
        )


def block_rows(m: int) -> int:
    """Query rows per screen against m target rows."""
    return max(1, SCREEN_ELEMENTS // m)


def match_sets(
    qdesc: np.ndarray, qsigns: np.ndarray, targets: TargetSet, ratio: float = 0.7
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Match query rows (N, 64) with signs (N,) against every record.

    Per query row and record: candidates are the record's targets with the
    same Laplacian sign; the nearest is kept iff d1 < ratio * d2, or, with
    exactly one candidate, iff d1 < LONE_CANDIDATE_MAX_DISTANCE.  d1 = d2
    (duplicate targets) is rejected as ambiguous.  Returns the arrays
    (record, query row, target row of `targets.desc`, distance) of the kept
    matches, sorted by record, then distance, query row and target row.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if not len(qdesc) or not len(targets.desc):
        none = np.zeros(0, dtype=np.intp)
        return none, none, none, np.zeros(0)
    rows = block_rows(len(targets.desc))
    parts = [
        _match_block(qdesc[b : b + rows], qsigns[b : b + rows], b, targets, ratio)
        for b in range(0, len(qdesc), rows)
    ]
    record, query, target, dist = (np.concatenate(c) for c in zip(*parts))
    order = np.lexsort((target, query, dist, record))
    return record[order], query[order], target[order], dist[order]


def _match_block(q, qsigns, base, t: TargetSet, ratio):
    qq = np.einsum("ij,ij->i", q, q)
    same = np.equal.outer(qsigns, t.signs)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow sends the row to `full`
        approx = q @ t.desc.T
        approx *= -2.0
        approx += qq[:, None]
        approx += t.sq
        full = ~np.isfinite(approx).all(axis=1)
        approx[~same] = np.inf
        delta = SCREEN_REL * (np.sqrt(qq) + t.max_norm) ** 2 + SCREEN_ABS
        limit = _second_smallest(approx, t) + 2.0 * delta[:, None]
        cand = (approx <= limit[:, t.segment]) | full[:, None]
    cand &= same

    qi, tj = np.nonzero(cand)
    diff = t.desc[tj]
    diff -= q[qi]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    group = qi * len(t.starts) + t.segment[tj]  # one group per (row, record)
    order = np.lexsort((tj, dist, group))
    qi, tj, dist, group = qi[order], tj[order], dist[order], group[order]
    first = np.flatnonzero(np.diff(group, prepend=-1))
    lone = np.diff(np.r_[first, len(group)]) == 1
    d1 = dist[first]
    d2 = dist[np.minimum(first + 1, len(dist) - 1)]  # read only where not lone
    keep = first[np.where(lone, d1 < LONE_CANDIDATE_MAX_DISTANCE, d1 < ratio * d2)]
    return t.record[tj[keep]], qi[keep] + base, tj[keep], dist[keep]


def _second_smallest(approx: np.ndarray, t: TargetSet) -> np.ndarray:
    """Second-smallest entry (counting repeats) of each row in each non-empty
    record, as a (rows, len(t.starts)) array; inf for a one-row record."""
    m1 = np.minimum.reduceat(approx, t.starts, axis=1)
    at_min = approx == m1[:, t.segment]
    ties = np.add.reduceat(at_min, t.starts, axis=1, dtype=np.intp)
    above = np.minimum.reduceat(np.where(at_min, np.inf, approx), t.starts, axis=1)
    return np.where(ties > 1, m1, above)


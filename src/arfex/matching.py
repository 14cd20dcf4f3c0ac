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
a = |q|^2 + |t|^2 - 2 q.t; opposite-sign entries are set to inf.  Per
(row, record), a1 and a2 are the smallest and second-smallest a, counting
repeats, and delta = SCREEN_REL * (|q| + max |t|)^2 + SCREEN_ABS.  Most
groups have their ratio test decided on the screen (below); only the others
get exact distances, for the same-sign targets with a <= a2 + 2*delta.

Why the result is exact.  Both a and the exact squared distance e are
within about gamma_64 * (|q| + |t|)^2 ~ 7.2e-15 * (|q| + |t|)^2 of the true
squared distance (the dot-product error bound, whatever the BLAS summation
order), plus an absolute error far below SCREEN_ABS where products
underflow; so |a - e| <= delta with more than two orders of magnitude to
spare.  The exact second-smallest e of a record is at most a2 + delta, since
the two targets with the smallest a both have e <= a2 + delta.  So every
target whose exact distance is at most the record's second-nearest distance
(ties and the rounding of sqrt included) has a <= a2 + 2*delta, and the
decision runs on exact values of a superset of the top two.  A row with a
non-finite a (norms near 1e154 overflow the GEMM) is recomputed in full.
The exact distances are the same bits as a per-row loop gives: `einsum`
reduces each contiguous 64-vector alone, whichever rows sit beside it.

Decided on the screen.  Every exact squared distance e of a row is within
delta of its a, so the k-th smallest e of a group is within delta of the
k-th smallest a: the exact squared first and second lie in
[a1 - delta, a1 + delta] and [a2 - delta, a2 + delta].  `_settled` runs the
exact test's own float steps, sqrt and then d1 < ratio * d2 (or
d1 < LONE_CANDIDATE_MAX_DISTANCE for a lone candidate, a2 = inf), on the
bounds: the group is taken when the test passes with d1 from a1 + delta and
d2 from a2 - delta (clipped at 0), and dropped when it fails with d1 from
a1 - delta and d2 from a2 + delta.  Rounded sqrt and rounded multiplication
never decrease as their argument grows, so the exact test, run on values
between the bounds, gives the same verdict; no relative margin is needed for
those steps.  The sums a -+ delta round by at most 2^-53 of a, and |a| is at
most about (|q| + max |t|)^2, so that rounding is below 3e-5 delta, inside
the spare that delta holds over the true error.  A taken group has
a1 + delta < a2 - delta (ratio <= 1), so every other target's e exceeds the
nearest's: the one target at a1 is the unique exact nearest, the only row
whose exact distance is computed.  A record with no same-sign target has
a1 = inf and is dropped.  A row with a non-finite a (the `full` rows) is
left undecided, as is any group the bounds do not settle.

The group pick needs no sort.  `np.nonzero` lists the candidates in
row-major order and `segment` does not decrease along target rows, so each
(row, record) group is one contiguous run.  Its d1 is `np.fmin.reduceat` of
the run's distances, which, like a sort, orders NaN after every number; its
d2 is d1 when d1 occurs more than once, else the fmin of the rest: the
second distance of the run sorted, counting repeats.  A tie at d1 gives
d2 = d1 and is rejected, so an accepted group holds exactly one row at d1,
the row that sorting by (distance, target row) puts first.
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
# do not grow with the database: about 20 bytes per element (0.94 MB a block
# at 64 x 724, tracemalloc), the screen's float64 arrays and bool masks plus
# 512 bytes per exact row, of which the screen leaves about one per query row
# at ratio 0.7.  That is a fifth of the 4.6 MB peak of extracting a 762-point
# 256x256 query's features.
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
        a1, a2 = _two_smallest(approx, t)
        take, drop = _settled(a1, a2, delta[:, None], ratio)
        take[full] = drop[full] = False
        # A taken group's limit admits its unique nearest only, a dropped one's nothing.
        limit = np.where(take, a1, np.where(drop, -np.inf, a2 + 2.0 * delta[:, None]))
        cand = (approx <= limit[:, t.segment]) | full[:, None]
        cand &= same
        qi, tj = np.nonzero(cand)
        diff = t.desc[tj]
        diff -= q[qi]  # inf - inf is NaN, and NaN distances order last below
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    # One group per (row, record), its candidates contiguous (module docstring).
    segment = t.segment[tj]
    group = qi * len(t.starts) + segment
    first = np.flatnonzero(np.diff(group, prepend=-1))
    size = np.diff(np.append(first, len(group)))
    d1 = np.fmin.reduceat(dist, first)  # NaN orders last: NaN only if the whole group is
    at_d1 = dist == np.repeat(d1, size)
    ties = np.add.reduceat(at_d1, first, dtype=np.intp)
    d2 = np.where(ties > 1, d1, np.fmin.reduceat(np.where(at_d1, np.nan, dist), first))  # read where not lone
    accept = np.where(size == 1, d1 < LONE_CANDIDATE_MAX_DISTANCE, d1 < ratio * d2)
    accept |= take[qi[first], segment[first]]
    keep = np.flatnonzero(at_d1 & np.repeat(accept, size))  # one row per accepted group
    return t.record[tj[keep]], qi[keep] + base, tj[keep], dist[keep]


def _two_smallest(approx: np.ndarray, t: TargetSet) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and second-smallest entry (counting repeats) of each row in
    each non-empty record, as two (rows, len(t.starts)) arrays; the second is
    inf for a one-row record."""
    m1 = np.minimum.reduceat(approx, t.starts, axis=1)
    at_min = approx == m1[:, t.segment]
    ties = np.add.reduceat(at_min, t.starts, axis=1, dtype=np.intp)
    above = np.minimum.reduceat(np.where(at_min, np.inf, approx), t.starts, axis=1)
    return m1, np.where(ties > 1, m1, above)


def _settled(a1, a2, delta, ratio):
    """(take, drop): the (row, record) groups whose ratio test the screen
    decides, from the two smallest screen values a1 <= a2 of each group
    (module docstring).  The exact squared first and second lie in
    [a - delta, a + delta]; the test runs the exact test's own float steps
    on those bounds.  Rows where a screen value is not finite are for the
    caller to leave undecided."""
    lo1, lo2 = (np.sqrt(np.maximum(a - delta, 0.0)) for a in (a1, a2))
    hi1, hi2 = np.sqrt(a1 + delta), np.sqrt(a2 + delta)
    lone = a2 == np.inf
    take = np.where(lone, hi1 < LONE_CANDIDATE_MAX_DISTANCE, hi1 < ratio * lo2)
    drop = np.where(lone, lo1 >= LONE_CANDIDATE_MAX_DISTANCE, lo1 >= ratio * hi2)
    return take, drop

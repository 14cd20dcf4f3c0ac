"""Descriptor matching: Laplacian-sign prefilter + nearest-neighbor ratio test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import Descriptor


@dataclass(frozen=True)
class Match:
    query_index: int
    target_index: int
    distance: float


# A lone same-sign candidate has no second neighbour for the ratio test; it is
# accepted below this absolute distance instead.
LONE_CANDIDATE_MAX_DISTANCE = 0.5


def distance(a: Descriptor, b: Descriptor) -> float:
    """Euclidean distance between two 64-component descriptors."""
    return float(np.linalg.norm(a.components - b.components))


def match_descriptors(
    query: list[Descriptor],
    target: list[Descriptor],
    ratio: float = 0.7,
) -> list[Match]:
    """One-directional nearest-neighbor matching with the ratio test.

    Per query descriptor: candidates are the targets with the same Laplacian
    sign; the nearest candidate is kept iff d1 < ratio * d2, or, with exactly
    one candidate, iff d1 < LONE_CANDIDATE_MAX_DISTANCE.  d1 = d2 = 0
    (duplicate targets) is rejected as ambiguous.  At most one match per
    query index; output sorted by ascending distance, ties by
    (query_index, target_index).
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if not query or not target:
        return []
    tmat = np.stack([d.components for d in target])
    tsigns = np.array([d.laplacian_sign for d in target])
    matches: list[Match] = []
    for qi, q in enumerate(query):
        cand = np.flatnonzero(tsigns == q.laplacian_sign)
        if cand.size == 0:
            continue
        diff = tmat[cand] - q.components
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if cand.size == 1:
            d1 = float(dists[0])
            if d1 < LONE_CANDIDATE_MAX_DISTANCE:
                matches.append(Match(qi, int(cand[0]), d1))
            continue
        order = np.argsort(dists, kind="stable")
        d1 = float(dists[order[0]])
        d2 = float(dists[order[1]])
        if d1 < ratio * d2:
            matches.append(Match(qi, int(cand[order[0]]), d1))
    matches.sort(key=lambda m: (m.distance, m.query_index, m.target_index))
    return matches

"""Ratio-test matching against exhaustive brute-force search and against the
per-row loop the screened matcher replaced."""

from typing import NamedTuple
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arfex import matching
from arfex.features import Descriptor, Features, InterestPoint
from arfex.matching import (
    LONE_CANDIDATE_MAX_DISTANCE,
    SCREEN_ELEMENTS,
    TargetSet,
    block_rows,
    match_sets,
)
from oracles import brute_force_matches


class Match(NamedTuple):
    """One kept match of the per-row reference, in the form tests compare."""

    query_index: int
    target_index: int
    distance: float


def features_of(descs):
    """A features table of the descriptors, at points that only carry their signs."""
    return Features.from_points([InterestPoint(0.0, 0.0, 1.0, 0.0, d.laplacian_sign) for d in descs], descs)


def descriptors_of(features):
    """The descriptor list of a features table, as the reference takes it."""
    return [Descriptor(components=row, laplacian_sign=int(s)) for row, s in zip(features.desc, features.sign)]


def reference_match(query, target, ratio=0.7):
    """The per-row matcher, one query descriptor at a time: the bit-for-bit
    reference of the screened core."""
    if not query or not target:
        return []
    tmat = np.stack([d.components for d in target])
    tsigns = np.array([d.laplacian_sign for d in target])
    matches = []
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


def match_one(query, target, ratio=0.7):
    """`match_sets` of a query against one record, as `Match`es: at most one
    per query index, sorted by distance, then query and target index."""
    q = features_of(query)
    _, qi, tj, dist = match_sets(q.desc, q.sign, TargetSet.build([features_of(target)]), ratio)
    return list(map(Match, qi.tolist(), tj.tolist(), dist.tolist()))


def bits(matches):
    return [(m.query_index, m.target_index, m.distance.hex()) for m in matches]


def desc(components, sign=1):
    v = np.zeros(64)
    v[: len(components)] = components
    return Descriptor(components=v, laplacian_sign=sign)


def unit_desc(axis, sign=1):
    v = np.zeros(64)
    v[axis] = 1.0
    return Descriptor(components=v, laplacian_sign=sign)


def random_descs(rng, n, sign_choices=(1, -1)):
    out = []
    for _ in range(n):
        v = rng.normal(size=64)
        v /= np.linalg.norm(v)
        out.append(Descriptor(components=v, laplacian_sign=int(rng.choice(sign_choices))))
    return out


def test_identical_unique_sets_match_at_zero(rng):
    descs = random_descs(rng, 5, sign_choices=(1,))
    matches = match_one(descs, list(descs))
    assert len(matches) == 5
    assert all(m.distance == 0.0 for m in matches)
    assert sorted(m.query_index for m in matches) == list(range(5))
    assert all(m.query_index == m.target_index for m in matches)


def test_ratio_accepts_distinctive_candidate():
    # candidates at 0.2 and 0.9: 0.22 < 0.7 -> kept
    q = [desc([1.0])]
    t = [desc([1.0, 0.2]), desc([1.0, 0.9])]
    matches = match_one(q, t)
    assert len(matches) == 1
    assert matches[0].target_index == 0
    assert matches[0].distance == pytest.approx(0.2, abs=1e-12)


def test_ratio_rejects_ambiguous_candidate():
    # candidates at 0.5 and 0.6: 0.83 > 0.7 -> rejected
    q = [desc([1.0])]
    t = [desc([1.0, 0.5]), desc([1.0, 0.6])]
    assert match_one(q, t) == []


def test_sign_filter_excludes_opposite_sign():
    q = [desc([1.0], sign=1)]
    t = [
        desc([1.0, 0.01], sign=-1),  # closest but opposite sign
        desc([1.0, 0.4], sign=1),
        desc([1.0, 1.0], sign=1),
    ]
    matches = match_one(q, t)
    assert len(matches) == 1
    assert matches[0].target_index == 1
    assert matches[0].distance == pytest.approx(0.4, abs=1e-12)


def test_single_candidate_absolute_fallback():
    q = [desc([1.0])]
    near = [desc([1.0, 0.3])]
    far = [desc([1.0, 0.8])]
    assert len(match_one(q, near)) == 1
    assert match_one(q, far) == []


def test_duplicate_targets_at_zero_are_ambiguous(rng):
    d = random_descs(rng, 1, sign_choices=(1,))[0]
    assert match_one([d], [d, d]) == []


def test_empty_sides_give_no_matches(rng):
    descs = random_descs(rng, 3)
    assert match_one([], descs) == []
    assert match_one(descs, []) == []


def test_matches_identical_to_brute_force_oracle(rng):
    query = random_descs(rng, 200)
    target = random_descs(rng, 200)
    got = [(m.query_index, m.target_index, m.distance) for m in match_one(query, target)]
    want = brute_force_matches(query, target)
    assert got == want


def test_no_match_joins_opposite_signs(rng):
    query = random_descs(rng, 60)
    target = random_descs(rng, 60)
    for m in match_one(query, target):
        assert query[m.query_index].laplacian_sign == target[m.target_index].laplacian_sign


def test_at_most_one_match_per_query(rng):
    query = random_descs(rng, 80)
    target = random_descs(rng, 80)
    matches = match_one(query, target)
    qs = [m.query_index for m in matches]
    assert len(qs) == len(set(qs))


def test_lowering_ratio_never_adds_matches(rng):
    query = random_descs(rng, 100)
    target = random_descs(rng, 100)
    loose = {(m.query_index, m.target_index) for m in match_one(query, target, ratio=0.9)}
    for ratio in (0.7, 0.5, 0.3):
        tight = {
            (m.query_index, m.target_index)
            for m in match_one(query, target, ratio=ratio)
        }
        assert tight <= loose
        loose = tight


def test_output_ordering_is_canonical(rng):
    query = random_descs(rng, 50)
    target = random_descs(rng, 50)
    matches = match_one(query, target)
    keys = [(m.distance, m.query_index, m.target_index) for m in matches]
    assert keys == sorted(keys)


def test_config_validation():
    d = unit_desc(0)
    with pytest.raises(ValueError):
        match_one([d], [d], ratio=0.0)
    with pytest.raises(ValueError):
        match_one([d], [d], ratio=1.5)


# --- the screened core against the per-row reference -------------------------

NORMS = (1.0, 1e150, 1e200, 1e-200)
SIGN_SETS = ((1, -1), (1,), (-1,))


@st.composite
def descriptor_lists(draw, max_size=10, sizes=None):
    """Random unit descriptors at one norm, with the cases where exactness is
    delicate: duplicates, 1-ulp neighbours, all-zero rows and one sign."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.sampled_from(sizes) if sizes else st.integers(0, max_size))
    norm = draw(st.sampled_from(NORMS))
    signs = draw(st.sampled_from(SIGN_SETS))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, 64))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= norm
    for i in range(1, n):
        kind = draw(st.sampled_from(("random", "duplicate", "ulp", "zero", "near")))
        j = int(rng.integers(i))
        if kind == "duplicate":
            rows[i] = rows[j]
        elif kind == "ulp":
            rows[i] = rows[j]
            k = int(rng.integers(64))
            rows[i, k] = np.nextafter(rows[j, k], np.inf)
        elif kind == "zero":
            rows[i] = 0.0
        elif kind == "near":
            rows[i] = rows[j] + rng.normal(size=64) * norm * 10.0 ** -int(rng.integers(1, 17))
    return [Descriptor(components=r, laplacian_sign=int(rng.choice(signs))) for r in rows]


def mixed_query(rows, target, rng):
    """Half of the rows replaced by a target, as it is or with noise from
    1 down to 1e-17 of its largest component."""
    out = []
    for d in rows:
        if target and rng.random() < 0.5:
            t = target[int(rng.integers(len(target)))]
            v = t.components.copy()
            if rng.random() < 0.7:
                v += rng.normal(size=64) * 10.0 ** -float(rng.uniform(0, 17)) * np.abs(v).max()
            d = Descriptor(components=v, laplacian_sign=t.laplacian_sign)
        out.append(d)
    return out


RATIOS = st.sampled_from((0.7, 1.0, 0.5)) | st.floats(0.01, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(descriptor_lists(), descriptor_lists(), RATIOS, st.integers(0, 2**32 - 1))
def test_core_bit_identical_to_per_row_reference(target, query, ratio, seed):
    query = mixed_query(query, target, np.random.default_rng(seed))
    assert bits(match_one(query, target, ratio)) == bits(reference_match(query, target, ratio))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    descriptor_lists(max_size=40),
    descriptor_lists(sizes=(63, 64, 65, 127, 128, 129)),
    RATIOS,
    st.integers(0, 2**32 - 1),
)
def test_query_blocks_bit_identical_to_per_row_reference(target, query, ratio, seed):
    # blocks of 64 query rows at any target count, so the sizes cross block edges
    query = mixed_query(query, target, np.random.default_rng(seed))
    with patch.object(matching, "SCREEN_ELEMENTS", 64 * max(1, len(target))):
        assert bits(match_one(query, target, ratio)) == bits(reference_match(query, target, ratio))


def test_block_rows_shrink_as_the_database_grows():
    assert block_rows(724) == 64
    assert block_rows(362) == 128
    assert block_rows(1) == SCREEN_ELEMENTS
    assert block_rows(SCREEN_ELEMENTS) == block_rows(100 * SCREEN_ELEMENTS) == 1


def test_blocks_at_benchmark_size_bit_identical_to_per_row_reference():
    # 724 target rows give blocks of 64, so 129 query rows make three blocks
    rng = np.random.default_rng(17)
    target = random_descs(rng, 724)
    query = mixed_query(random_descs(rng, 128), target, rng) + [target[5]]  # row 128 matches
    got = match_one(query, target)
    assert bits(got) == bits(reference_match(query, target))
    assert {m.query_index // 64 for m in got} == {0, 1, 2}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(descriptor_lists(max_size=4), max_size=6),
    descriptor_lists(max_size=20),
    RATIOS,
    st.integers(0, 2**32 - 1),
)
def test_records_bit_identical_to_per_record_reference(records, query, ratio, seed):
    flat = [d for r in records for d in r]
    query = mixed_query(query, flat, np.random.default_rng(seed))
    targets = TargetSet.build([features_of(r) for r in records])
    q = features_of(query)
    got_record, qi, tj, dist = match_sets(q.desc, q.sign, targets, ratio)
    local = tj - targets.offsets[got_record]
    got = list(zip(got_record.tolist(), qi.tolist(), local.tolist(), map(float.hex, dist.tolist())))
    want = [(r, *m) for r, rec in enumerate(records) for m in bits(reference_match(query, rec, ratio))]
    assert got == want


def test_lone_candidates_across_records():
    # each one-row record, and the one same-sign row of a mixed record, is a lone candidate
    near, far = desc([1.0, 0.3]), desc([1.0, 0.8])
    records = [[near], [far], [desc([1.0, 0.1], sign=-1), near]]
    targets = TargetSet.build([features_of(r) for r in records])
    q = [desc([1.0])]
    qf = features_of(q)
    record, qi, tj, dist = match_sets(qf.desc, qf.sign, targets)
    assert record.tolist() == [0, 2]
    assert (tj - targets.offsets[record]).tolist() == [0, 1]
    assert dist.tolist() == [reference_match(q, [near])[0].distance] * 2


def test_overflowing_norms_fall_back_to_full_rows():
    # |q|^2 overflows, so the screen has no finite value in the row; the exact
    # distances (1e150, 1e154, inf) still decide
    q = [desc([1e160])]
    t = [desc([1e160, 1e150]), desc([1e160, 1e154]), desc([-1e160])]
    assert bits(match_one(q, t)) == bits(reference_match(q, t))
    assert [m.target_index for m in match_one(q, t)] == [0]

"""Ratio-test matching against exhaustive brute-force search and against the
per-row loop the screened matcher replaced."""

import warnings
from typing import NamedTuple
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arfex import matching
from arfex.features import Descriptor, Features
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
    n = len(descs)
    desc = np.array([d.components for d in descs], dtype=np.float64).reshape(n, 64)
    return Features(np.zeros((n, 2)), np.ones(n), np.zeros(n), np.zeros(n), [d.laplacian_sign for d in descs], desc)


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


# --- the group pick against the lexsort it replaced ---------------------------


def lexsort_match_block(q, qsigns, base, t, ratio):
    """`_match_block` with the group pick it replaced: one three-key lexsort
    orders each (row, record) group by distance, then target row, and the
    first two of a group are d1 and d2."""
    qq = np.einsum("ij,ij->i", q, q)
    same = np.equal.outer(qsigns, t.signs)
    with np.errstate(over="ignore", invalid="ignore"):
        approx = q @ t.desc.T
        approx *= -2.0
        approx += qq[:, None]
        approx += t.sq
        full = ~np.isfinite(approx).all(axis=1)
        approx[~same] = np.inf
        delta = matching.SCREEN_REL * (np.sqrt(qq) + t.max_norm) ** 2 + matching.SCREEN_ABS
        limit = matching._two_smallest(approx, t)[1] + 2.0 * delta[:, None]
        cand = (approx <= limit[:, t.segment]) | full[:, None]
    cand &= same

    qi, tj = np.nonzero(cand)
    diff = t.desc[tj]
    diff -= q[qi]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    group = qi * len(t.starts) + t.segment[tj]
    order = np.lexsort((tj, dist, group))
    qi, tj, dist, group = qi[order], tj[order], dist[order], group[order]
    first = np.flatnonzero(np.diff(group, prepend=-1))
    lone = np.diff(np.r_[first, len(group)]) == 1
    d1 = dist[first]
    d2 = dist[np.minimum(first + 1, len(dist) - 1)]
    keep = first[np.where(lone, d1 < LONE_CANDIDATE_MAX_DISTANCE, d1 < ratio * d2)]
    return t.record[tj[keep]], qi[keep] + base, tj[keep], dist[keep]


def table_of(desc, signs):
    n = len(desc)
    return Features(np.zeros((n, 2)), np.ones(n), np.zeros(n), np.zeros(n), signs, desc)


def unit_rows(rng, n):
    rows = rng.normal(size=(n, 64))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def spoil(rng, rows, share):
    """NaN, +inf or -inf in one component of about `share` of the rows."""
    for i in np.flatnonzero(rng.random(len(rows)) < share):
        rows[i, rng.integers(64)] = rng.choice([np.nan, np.inf, -np.inf])


@pytest.mark.parametrize("seed", range(40))
def test_group_pick_bit_identical_to_lexsort_reference(seed):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(int(rng.integers(0, 7))):
        n = int(rng.integers(0, 9))  # empty and one-row records among them
        rows = unit_rows(rng, n)
        for i in range(1, n):
            if rng.random() < 0.3:
                rows[i] = rows[rng.integers(i)]  # a duplicated target row: a tie at d1 or d2
        spoil(rng, rows, 0.1 if seed % 2 else 0.0)
        records.append(table_of(rows, rng.choice([1, -1], n) if seed % 3 else np.ones(n)))
    flat = np.concatenate([np.zeros((0, 64)), *(r.desc for r in records)])
    query = unit_rows(rng, int(rng.integers(0, 30)))
    for i in range(len(query)):
        if len(flat) and rng.random() < 0.6:
            query[i] = flat[rng.integers(len(flat))] + rng.normal(size=64) * 10.0 ** -rng.uniform(0, 17)
    spoil(rng, query, 0.1 if seed % 2 else 0.0)
    qsigns = rng.choice([1, -1], len(query)).astype(np.int8)
    targets = TargetSet.build(records)
    for ratio in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        got = match_sets(query, qsigns, targets, ratio)
        with np.errstate(invalid="ignore"), patch.object(matching, "_match_block", lexsort_match_block):
            want = match_sets(query, qsigns, targets, ratio)  # the reference warns at inf - inf
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_group_pick_orders_non_finite_distances_like_the_lexsort():
    # Query row 0 against three records meets distances (NaN, 0.1, 1.0, inf),
    # (NaN, 0.2, inf) and (1.0, 1.0, NaN): NaN orders after every number and
    # inf before NaN, so the first two keep their nearest and the tie in the
    # third is ambiguous.  Row 1 meets only NaN and keeps nothing.
    def rows(*cells):
        out = np.zeros((len(cells), 64))
        for r, (k, v) in enumerate(cells):
            out[r, k] = v
        return out

    records = [
        rows((2, np.nan), (0, 0.1), (0, 1.0), (5, np.inf)),
        rows((2, np.nan), (0, 0.2), (5, np.inf)),
        rows((0, 1.0), (0, 1.0), (2, np.nan)),
    ]
    targets = TargetSet.build([table_of(r, np.ones(len(r))) for r in records])
    q = rows((0, 0.0), (3, np.nan))
    signs = np.ones(2, dtype=np.int8)
    got = match_sets(q, signs, targets)
    with patch.object(matching, "_match_block", lexsort_match_block):
        want = match_sets(q, signs, targets)
    assert [a.tolist() for a in got[:3]] == [[0, 1], [0, 0], [1, 5]]
    assert got[3].tolist() == pytest.approx([0.1, 0.2])
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_same_sign_infinities_match_without_a_warning():
    # inf - inf in one component makes a NaN distance, which orders last:
    # query row 0 meets NaN and two equal infs and keeps nothing, row 1 keeps
    # its near target, and row 2 (-inf against -inf) meets NaN and infs only.
    rows = np.zeros((4, 64))
    rows[0, 5] = np.inf
    rows[1, 0] = 1.0
    rows[2, 1] = 1.0
    rows[3, 7] = -np.inf
    q = np.zeros((3, 64))
    q[0, 5] = np.inf
    q[1, 0] = 1.0 + 1e-3
    q[2, 7] = -np.inf
    targets = TargetSet.build([table_of(rows, np.ones(4))])
    signs = np.ones(3, dtype=np.int8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = match_sets(q, signs, targets)
    assert [a.tolist() for a in got[:3]] == [[0], [1], [1]]
    assert got[3].tolist() == pytest.approx([1e-3])
    with np.errstate(invalid="ignore"), patch.object(matching, "_match_block", lexsort_match_block):
        want = match_sets(q, signs, targets)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


# --- the ratio test settled on the screen -------------------------------------


def lexsort_match_sets(q, signs, targets, ratio):
    with np.errstate(invalid="ignore"), patch.object(matching, "_match_block", lexsort_match_block):
        return match_sets(q, signs, targets, ratio)


def assert_same_bits_as_lexsort(q, signs, records, ratio):
    """match_sets against the lexsort reference, bit for bit; returns the kept
    (query row, target row) pairs."""
    targets = TargetSet.build([table_of(r, s) for r, s in records])
    got = match_sets(q, signs, targets, ratio)
    want = lexsort_match_sets(q, signs, targets, ratio)
    assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))
    return list(zip(got[1].tolist(), got[2].tolist()))


def offset_rows(rng, n, cells):
    """n copies of one random unit row, each with its own (component, value)
    cells set; the base is zero in those components, so each copy differs
    from the base by exactly its cells."""
    base = unit_rows(rng, 1)[0]
    base[[k for k, _ in cells]] = 0.0
    rows = np.repeat(base[None], n, axis=0)
    for i, (k, v) in enumerate(cells[:n]):
        rows[i, k] = v
    return base, rows


def at_and_off_the_origin(base, rows):
    """(query, targets, SCREEN_REL) cases: the query at the origin, where the
    screen of rows with one dyadic component each is exact, so SCREEN_REL
    0 leaves delta at SCREEN_ABS and the screen decides at the very edge;
    and the query at `base`, under the default SCREEN_REL."""
    origin = (np.zeros((1, 64)), rows - base)
    return [(*origin, matching.SCREEN_REL), (*origin, 0.0), (base[None], rows, matching.SCREEN_REL)]


@pytest.mark.parametrize("scale", [1.0, 2.0**-300, 2.0**300])
def test_ratio_exactly_at_and_within_1e_12_of_d1_over_d2(scale):
    # The two nearest sit at exactly 0.75 and 1 (times scale) from the query,
    # so d1 < ratio * d2 turns at ratio 0.75, where it is false.
    rng = np.random.default_rng(5)
    base, rows = offset_rows(rng, 3, [(0, 0.75 * scale), (1, 1.0 * scale), (2, 3.0 * scale)])
    for q, targets, rel in at_and_off_the_origin(base, rows):
        outcomes = []
        for ratio in (0.75, 0.75 * (1 - 1e-12), 0.75 * (1 + 1e-12), np.nextafter(0.75, 0), np.nextafter(0.75, 1)):
            with patch.object(matching, "SCREEN_REL", rel):
                outcomes.append(assert_same_bits_as_lexsort(q, np.ones(1, np.int8), [(targets, np.ones(3))], float(ratio)))
        assert outcomes == [[], [], [(0, 0)], [], [(0, 0)]]


def test_lone_candidate_at_half_and_one_ulp_either_side():
    rng = np.random.default_rng(6)
    kept = []
    for x in (np.nextafter(0.5, 0), 0.5, np.nextafter(0.5, 1)):
        base, rows = offset_rows(rng, 2, [(0, x), (1, 0.01)])  # row 1 has the other sign
        for q, targets, rel in at_and_off_the_origin(base, rows):
            with patch.object(matching, "SCREEN_REL", rel):
                kept.append(assert_same_bits_as_lexsort(q, np.ones(1, np.int8), [(targets, np.array([1, -1]))], 0.7))
    assert kept == [[(0, 0)]] * 3 + [[]] * 6


def test_duplicated_nearest_and_overflowing_rows_on_the_screen():
    rng = np.random.default_rng(7)
    near = unit_rows(rng, 1)[0]
    far = unit_rows(rng, 2)
    q = np.stack([near + 1e-3, near, near + 1e-9])
    # the nearest duplicated: a tie at d1; then the second duplicated: d1 stands alone
    tie = np.stack([near, near, *far])
    second = np.stack([near, far[0], far[0], far[1]])
    huge = np.zeros((3, 64))
    huge[:, 0] = 1e160
    huge[1, 1], huge[2, 1] = 1e150, 1e154  # |row|^2 overflows the GEMM
    qh = np.zeros((1, 64))
    qh[0, 0] = 1e160
    for ratio in (0.5, 0.7, 1.0):
        assert assert_same_bits_as_lexsort(q, np.ones(3, np.int8), [(tie, np.ones(4))], ratio) == []
        kept = assert_same_bits_as_lexsort(q, np.ones(3, np.int8), [(second, np.ones(4))], ratio)
        assert kept == [(1, 0), (2, 0), (0, 0)]
        both = [(tie, np.ones(4)), (second, np.ones(4)), (huge, np.ones(3))]
        assert_same_bits_as_lexsort(np.concatenate([q, qh]), np.ones(4, np.int8), both, ratio)
    assert assert_same_bits_as_lexsort(qh, np.ones(1, np.int8), [(huge, np.ones(3))], 0.7) == [(0, 0)]


def test_seeded_run_takes_drops_and_leaves_groups_undecided(monkeypatch):
    seen = []
    settled = matching._settled

    def recording(*args):
        take, drop = settled(*args)
        seen.append((take.copy(), drop.copy()))  # the caller clears full rows in place
        return take, drop

    monkeypatch.setattr(matching, "_settled", recording)
    rng = np.random.default_rng(8)
    records = []
    for _ in range(5):
        rows = unit_rows(rng, 12)
        rows[1] = rows[0]  # a tie: a copy of it is undecided on the screen
        signs = rng.choice([1, -1], 12)
        signs[1] = signs[0]
        records.append((rows, signs))
    flat = np.concatenate([r for r, _ in records])
    signs = np.concatenate([s for _, s in records]).astype(np.int8)
    pick = rng.integers(len(flat), size=40)
    q = np.concatenate([flat[pick] + rng.normal(size=(40, 64)) * 1e-3, unit_rows(rng, 20)])
    qsigns = np.concatenate([signs[pick], rng.choice([1, -1], 20)]).astype(np.int8)
    for ratio in (0.5, 0.7, 0.9):
        assert_same_bits_as_lexsort(q, qsigns, records, ratio)
        assert_same_bits_as_lexsort(flat[:3], signs[:3], records, ratio)
    take = np.concatenate([t.ravel() for t, _ in seen])
    drop = np.concatenate([d.ravel() for _, d in seen])
    assert not (take & drop).any()
    assert take.any() and drop.any() and (~take & ~drop).any()

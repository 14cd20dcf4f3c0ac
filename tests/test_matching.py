"""Ratio-test matching against exhaustive brute-force search."""

import math

import numpy as np
import pytest

from arfex.features import Descriptor
from arfex.matching import Match, distance, match_descriptors
from oracles import brute_force_matches


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


def test_distance_to_self_is_zero():
    d = unit_desc(3)
    assert distance(d, d) == 0.0


def test_distance_orthogonal_unit_vectors():
    assert distance(unit_desc(0), unit_desc(1)) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_distance_matches_componentwise_oracle(rng):
    a, b = random_descs(rng, 2)
    want = math.sqrt(sum((x - y) ** 2 for x, y in zip(a.components, b.components)))
    assert distance(a, b) == pytest.approx(want, abs=1e-9)


def test_identical_unique_sets_match_at_zero(rng):
    descs = random_descs(rng, 5, sign_choices=(1,))
    matches = match_descriptors(descs, list(descs))
    assert len(matches) == 5
    assert all(m.distance == 0.0 for m in matches)
    assert sorted(m.query_index for m in matches) == list(range(5))
    assert all(m.query_index == m.target_index for m in matches)


def test_ratio_accepts_distinctive_candidate():
    # candidates at 0.2 and 0.9: 0.22 < 0.7 -> kept
    q = [desc([1.0])]
    t = [desc([1.0, 0.2]), desc([1.0, 0.9])]
    matches = match_descriptors(q, t)
    assert len(matches) == 1
    assert matches[0].target_index == 0
    assert matches[0].distance == pytest.approx(0.2, abs=1e-12)


def test_ratio_rejects_ambiguous_candidate():
    # candidates at 0.5 and 0.6: 0.83 > 0.7 -> rejected
    q = [desc([1.0])]
    t = [desc([1.0, 0.5]), desc([1.0, 0.6])]
    assert match_descriptors(q, t) == []


def test_sign_filter_excludes_opposite_sign():
    q = [desc([1.0], sign=1)]
    t = [
        desc([1.0, 0.01], sign=-1),  # closest but opposite sign
        desc([1.0, 0.4], sign=1),
        desc([1.0, 1.0], sign=1),
    ]
    matches = match_descriptors(q, t)
    assert len(matches) == 1
    assert matches[0].target_index == 1
    assert matches[0].distance == pytest.approx(0.4, abs=1e-12)


def test_single_candidate_absolute_fallback():
    q = [desc([1.0])]
    near = [desc([1.0, 0.3])]
    far = [desc([1.0, 0.8])]
    assert len(match_descriptors(q, near)) == 1
    assert match_descriptors(q, far) == []


def test_duplicate_targets_at_zero_are_ambiguous(rng):
    d = random_descs(rng, 1, sign_choices=(1,))[0]
    assert match_descriptors([d], [d, d]) == []


def test_empty_sides_give_no_matches(rng):
    descs = random_descs(rng, 3)
    assert match_descriptors([], descs) == []
    assert match_descriptors(descs, []) == []


def test_matches_identical_to_brute_force_oracle(rng):
    query = random_descs(rng, 200)
    target = random_descs(rng, 200)
    got = [(m.query_index, m.target_index, m.distance) for m in match_descriptors(query, target)]
    want = brute_force_matches(query, target)
    assert got == want


def test_no_match_joins_opposite_signs(rng):
    query = random_descs(rng, 60)
    target = random_descs(rng, 60)
    for m in match_descriptors(query, target):
        assert query[m.query_index].laplacian_sign == target[m.target_index].laplacian_sign


def test_at_most_one_match_per_query(rng):
    query = random_descs(rng, 80)
    target = random_descs(rng, 80)
    matches = match_descriptors(query, target)
    qs = [m.query_index for m in matches]
    assert len(qs) == len(set(qs))


def test_lowering_ratio_never_adds_matches(rng):
    query = random_descs(rng, 100)
    target = random_descs(rng, 100)
    loose = {(m.query_index, m.target_index) for m in match_descriptors(query, target, ratio=0.9)}
    for ratio in (0.7, 0.5, 0.3):
        tight = {
            (m.query_index, m.target_index)
            for m in match_descriptors(query, target, ratio=ratio)
        }
        assert tight <= loose
        loose = tight


def test_output_ordering_is_canonical(rng):
    query = random_descs(rng, 50)
    target = random_descs(rng, 50)
    matches = match_descriptors(query, target)
    keys = [(m.distance, m.query_index, m.target_index) for m in matches]
    assert keys == sorted(keys)


def test_config_validation():
    d = unit_desc(0)
    with pytest.raises(ValueError):
        match_descriptors([d], [d], ratio=0.0)
    with pytest.raises(ValueError):
        match_descriptors([d], [d], ratio=1.5)

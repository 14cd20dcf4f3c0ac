"""Object database: indexing, querying, ranking, and JSON persistence."""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from arfex import draw
from arfex.errors import ArfexError, DuplicateId, InsufficientMatches, NoFeatures, ParseError, VersionMismatch
from arfex.features import ExtractionConfig, Features, extract_features
from arfex.geometry import ransac_verify
from arfex.store import (
    Database,
    MAX_IMAGE_SIDE,
    UNRECOGNIZED,
    db_from_json,
    db_to_json,
    features_to_json,
    index_image,
    load_db,
    query_image,
    save_db,
)
from synthetic import add_noise, blob_texture, noise_image, warp_similarity
from conftest import gray_raster
from test_matching import descriptors_of, reference_match

FIELDS = [f.name for f in dataclasses.fields(Features)]


def feature_bytes(features):
    """Every field of a features table, as (name, dtype, shape, bytes)."""
    return [(k, str(a.dtype), a.shape, a.tobytes()) for k, a in ((k, getattr(features, k)) for k in FIELDS)]


@pytest.fixture(scope="module")
def small_db():
    db = Database()
    for k in range(3):
        img = blob_texture(192, 192, 16, seed=50 + k)
        db = index_image(db, img, f"obj{k}", f"Object {k}", f"about object {k}")
    return db


def test_index_appends_record(small_db):
    assert len(small_db.records) == 3
    assert [r.object_id for r in small_db.records] == ["obj0", "obj1", "obj2"]
    for rec in small_db.records:
        assert len(rec.features.xy) >= 1
        assert {len(getattr(rec.features, k)) for k in FIELDS} == {len(rec.features.xy)}
        assert rec.image_size == (192, 192)


def test_index_is_snapshotting(small_db):
    img = blob_texture(192, 192, 16, seed=60)
    bigger = index_image(small_db, img, "extra", "Extra", "")
    assert len(bigger.records) == 4
    assert len(small_db.records) == 3


def test_index_duplicate_id(small_db):
    img = blob_texture(192, 192, 16, seed=61)
    with pytest.raises(DuplicateId):
        index_image(small_db, img, "obj0", "again", "")


def test_index_flat_image_has_no_features():
    with pytest.raises(NoFeatures):
        index_image(Database(), gray_raster(np.full((64, 64), 100)), "flat", "Flat", "")


def test_query_exact_copy_recognized(small_db):
    img = blob_texture(192, 192, 16, seed=51)
    result, points = query_image(small_db, img)
    assert result.best == "obj1"
    assert result.recognized
    assert result.ranked[0].verification.verified
    assert result.associated_info == {"name": "Object 1", "info": "about object 1"}
    assert points


def test_query_noise_unrecognized(small_db):
    result, _ = query_image(small_db, noise_image(192, 192, seed=77))
    assert result.best == UNRECOGNIZED
    assert not result.recognized
    assert result.associated_info is None
    assert all(not c.verification.verified for c in result.ranked)


def test_query_flat_image_raises(small_db):
    with pytest.raises(NoFeatures):
        query_image(small_db, gray_raster(np.full((64, 64), 100)))


def test_query_transformed_copy_recognized(small_db):
    img = warp_similarity(blob_texture(192, 192, 16, seed=52), 15.0, 0.8)
    result, _ = query_image(small_db, img)
    assert result.best == "obj2"


def test_query_ranking_is_total_and_deterministic(small_db):
    img = add_noise(blob_texture(192, 192, 16, seed=50), 3.0, seed=5)
    r1, _ = query_image(small_db, img)
    r2, _ = query_image(small_db, img)
    assert [c.object_id for c in r1.ranked] == [c.object_id for c in r2.ranked]
    keys = [
        (
            not c.verification.verified,
            -len(c.verification.inlier_indices),
            -c.match_count,
            c.object_id,
        )
        for c in r1.ranked
    ]
    assert keys == sorted(keys)
    assert len(r1.ranked) == len(small_db.records)


def test_query_seed_changes_are_still_consistent(small_db):
    img = blob_texture(192, 192, 16, seed=51)
    for seed in (0, 1, 99):
        result, _ = query_image(small_db, img, seed=seed)
        assert result.best == "obj1"


def test_save_load_round_trip(tmp_path, small_db):
    path = tmp_path / "db.json"
    save_db(small_db, path)
    loaded = load_db(path)
    assert db_to_json(loaded) == db_to_json(small_db)
    for a, b in zip(small_db.records, loaded.records):
        assert feature_bytes(a.features) == feature_bytes(b.features)
    assert loaded.extraction_config == small_db.extraction_config


def test_save_is_byte_deterministic(tmp_path, small_db):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_db(small_db, p1)
    save_db(small_db, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_database_round_trip(tmp_path):
    path = tmp_path / "empty.json"
    save_db(Database(extraction_config=ExtractionConfig(octaves=2)), path)
    loaded = load_db(path)
    assert loaded.records == []
    assert loaded.extraction_config.octaves == 2


def test_version_mismatch(tmp_path, small_db):
    path = tmp_path / "db.json"
    save_db(small_db, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        load_db(path)


def test_corrupt_json_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_db(path)


def test_deeply_nested_json_raises_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(ParseError):
        load_db(path)


def test_malformed_document_raises_parse_error(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"version": 1, "extraction_config": {}, "objects": [{"id": "x"}]}))
    with pytest.raises(ParseError):
        load_db(path)


def test_missing_db_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_db(tmp_path / "missing.json")


def test_loaded_db_answers_queries(tmp_path, small_db):
    path = tmp_path / "db.json"
    save_db(small_db, path)
    loaded = load_db(path)
    result, _ = query_image(loaded, blob_texture(192, 192, 16, seed=50))
    assert result.best == "obj0"


def one_record_doc(db):
    doc = db_to_json(db)
    doc["objects"] = doc["objects"][:1]
    return doc


@pytest.mark.parametrize(
    "bad",
    [
        [0.1] * 10,
        [0.1] * 65,
        [0.1] * 63 + [float("nan")],
        [0.1] * 63 + [float("inf")],
        [0.1] * 63 + ["0.1"],
        [0.1] * 63 + [None],
        [[0.1] * 64],
        [0.1] * 63 + [True],
        [False] + [0.1] * 63,
    ],
    ids=["short", "long", "nan", "inf", "string", "null", "nested", "true", "false"],
)
def test_descriptor_must_be_64_finite_floats(small_db, bad):
    doc = one_record_doc(small_db)
    doc["objects"][0]["descriptors"][-1] = bad
    with pytest.raises(ParseError):
        db_from_json(doc)


@pytest.mark.parametrize("edit", ["drop-keypoint", "drop-descriptor", "extra-descriptor", "no-features"])
def test_keypoint_and_descriptor_rows_must_pair_up(small_db, edit):
    doc = one_record_doc(small_db)
    obj = doc["objects"][0]
    if edit == "drop-keypoint":
        obj["keypoints"].pop()
    elif edit == "drop-descriptor":
        obj["descriptors"].pop()
    elif edit == "extra-descriptor":
        obj["descriptors"].append(obj["descriptors"][0])
    else:
        obj["keypoints"], obj["descriptors"] = [], []
    with pytest.raises(ParseError):
        db_from_json(doc)


@pytest.mark.parametrize("bad", [7, 0, "1", None, 0.5])
def test_laplacian_must_be_plus_or_minus_one(small_db, bad):
    doc = one_record_doc(small_db)
    doc["objects"][0]["keypoints"][0]["laplacian"] = bad
    with pytest.raises(ParseError):
        db_from_json(doc)


@pytest.mark.parametrize("name", ["x", "y", "scale", "response", "orientation"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_keypoint_fields_must_be_finite(small_db, name, value):
    doc = one_record_doc(small_db)
    doc["objects"][0]["keypoints"][0][name] = value
    with pytest.raises(ParseError):
        db_from_json(doc)


@pytest.mark.parametrize("name", ["x", "y", "scale", "response", "orientation", "laplacian"])
@pytest.mark.parametrize("value", ["12.5", "1", True, False, None, [1.0], {"v": 1.0}])
def test_keypoint_fields_must_be_json_numbers(small_db, name, value):
    doc = one_record_doc(small_db)
    doc["objects"][0]["keypoints"][0][name] = value
    with pytest.raises(ParseError):
        db_from_json(doc)


def test_integer_keypoint_fields_load_as_floats(small_db):
    doc = one_record_doc(small_db)
    doc["objects"][0]["keypoints"][0].update(x=12, laplacian=-1.0)
    features = db_from_json(doc).records[0].features
    assert (features.xy[0, 0], features.sign[0]) == (12.0, -1)
    assert features.xy.dtype == np.float64 and features.sign.dtype == np.int8
    assert db_to_json(db_from_json(doc))["objects"][0]["keypoints"][0]["laplacian"] == -1


@pytest.mark.parametrize("value", [2**70, -(2**64) - 1, 10**300], ids=["2**70", "-2**64-1", "10**300"])
@pytest.mark.parametrize("where", ["keypoint", "descriptor"])
def test_integers_past_int64_load_as_their_nearest_float(small_db, where, value):
    """One rule for every number of a record's features: a JSON int is read
    as the nearest float64, in a keypoint field and in a descriptor row alike."""
    doc = one_record_doc(small_db)
    obj = doc["objects"][0]
    if where == "keypoint":
        obj["keypoints"][0]["response"] = value
        assert db_from_json(doc).records[0].features.response[0] == float(value)
    else:
        obj["descriptors"][0][5] = value
        assert db_from_json(doc).records[0].features.desc[0, 5] == float(value)


@pytest.mark.parametrize("where", ["keypoint", "descriptor"])
def test_integers_past_the_float_range_are_refused(small_db, where):
    doc = one_record_doc(small_db)
    obj = doc["objects"][0]
    if where == "keypoint":
        obj["keypoints"][0]["x"] = 10**400
    else:
        obj["descriptors"][0][5] = -(10**400)
    with pytest.raises(ParseError):
        db_from_json(doc)


@pytest.mark.parametrize("key", ["id", "name", "info"])
@pytest.mark.parametrize("value", [{"x": None}, None, 7, 2.5, True, ["obj"]])
def test_record_texts_must_be_json_strings(small_db, key, value):
    doc = one_record_doc(small_db)
    doc["objects"][0][key] = value
    with pytest.raises(ParseError):
        db_from_json(doc)


@pytest.mark.parametrize(
    "value",
    [[256.9, True], [192.0, 192], [192, True], [False, 192], [0, 192], [192, -1], [192], [192, 192, 1], "192", None],
)
def test_image_size_must_be_two_integers_of_at_least_one(small_db, value):
    doc = one_record_doc(small_db)
    doc["objects"][0]["image_size"] = value
    with pytest.raises(ParseError):
        db_from_json(doc)


def test_smallest_image_size_loads(small_db):
    doc = one_record_doc(small_db)
    doc["objects"][0]["image_size"] = [1, 1]
    assert db_from_json(doc).records[0].image_size == (1, 1)


@pytest.mark.parametrize("value", [[MAX_IMAGE_SIDE + 1, 5], [5, 2**64], [10**400, 5]])
def test_image_size_beyond_png_side_limit_refused(small_db, value):
    doc = one_record_doc(small_db)
    doc["objects"][0]["image_size"] = value
    with pytest.raises(ParseError):
        db_from_json(doc)


def test_largest_image_size_loads(small_db):
    doc = one_record_doc(small_db)
    doc["objects"][0]["image_size"] = [MAX_IMAGE_SIDE, MAX_IMAGE_SIDE]
    assert db_from_json(doc).records[0].image_size == (MAX_IMAGE_SIDE, MAX_IMAGE_SIDE)


@pytest.mark.parametrize(
    "key, bad",
    [
        ("octaves", 2.5),
        ("octaves", "3"),
        ("threshold", "x"),
        ("threshold", float("nan")),
        ("threshold", float("inf")),
        ("threshold", float("-inf")),
        pytest.param("threshold", 10**400, id="threshold-int-past-float-max"),
        ("upright", "no"),
        ("octaves", True),
        ("threshold", True),
        ("upright", 1),
    ],
)
def test_extraction_config_values_are_checked(small_db, key, bad):
    doc = one_record_doc(small_db)
    doc["extraction_config"][key] = bad
    with pytest.raises(ParseError):
        db_from_json(doc)


def test_document_with_all_fifteen_extraction_settings_loads(small_db):
    """Older databases echo 15 extraction settings; the 12 that are no
    longer settable are ignored on load."""
    doc = db_to_json(small_db)
    doc["extraction_config"] = {
        "octaves": 3,
        "intervals": 4,
        "threshold": 0.0004,
        "upright": False,
        "dxy_weight": 0.9,
        "orientation_radius": 6.0,
        "orientation_haar": 4.0,
        "orientation_sigma": 2.5,
        "orientation_window": 1.0471975511965976,
        "orientation_step": 0.09817477042468103,
        "descriptor_window": 20.0,
        "descriptor_grid": 4,
        "descriptor_samples": 5,
        "descriptor_haar": 2.0,
        "descriptor_sigma": 3.3,
    }
    loaded = db_from_json(doc)
    assert loaded.extraction_config == ExtractionConfig()
    assert db_to_json(loaded)["objects"] == db_to_json(small_db)["objects"]
    result, _ = query_image(loaded, blob_texture(192, 192, 16, seed=52))
    assert result.best == "obj2"


def test_non_ascii_db_file_raises_parse_error(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\xfa")
    with pytest.raises(ParseError):
        load_db(path)


# --- querying many records at once -------------------------------------------


def test_query_equals_per_record_reference(small_db):
    img = add_noise(warp_similarity(blob_texture(192, 192, 16, seed=52), 15.0, 0.8), 3.0, seed=6)
    result, points = query_image(small_db, img, seed=3)
    _, descriptors = extract_features(img, small_db.extraction_config)
    by_id = {c.object_id: c for c in result.ranked}
    for rec in small_db.records:
        got = by_id[rec.object_id]
        want = reference_match(descriptors, descriptors_of(rec.features))
        assert got.matches.dtype == np.intp and got.matches.shape == (len(want), 2)
        assert got.matches.tolist() == [[m.query_index, m.target_index] for m in want]
        diff = rec.features.desc[got.matches[:, 1]] - np.array([d.components for d in descriptors])[got.matches[:, 0]]
        assert [d.hex() for d in np.sqrt(np.einsum("ij,ij->i", diff, diff)).tolist()] == [
            m.distance.hex() for m in want
        ]
        assert got.match_count == len(want)
        src = np.array([rec.features.xy[m.target_index] for m in want]).reshape(-1, 2)
        dst = np.array([[points[m.query_index].x, points[m.query_index].y] for m in want])
        try:
            verification = ransac_verify(src, dst, 3)
        except InsufficientMatches:
            assert got.verification.inlier_indices == [] and not got.verification.verified
            continue
        assert got.verification.inlier_indices == verification.inlier_indices
        assert got.verification.mean_reprojection_error == verification.mean_reprojection_error
        assert (got.verification.model is None) == (verification.model is None)
        if verification.model is not None:
            assert got.verification.model.h.tobytes() == verification.model.h.tobytes()
    assert sum(c.match_count for c in result.ranked) > 10


def test_record_indexed_after_a_query_is_seen_by_the_new_snapshot_only(small_db):
    old = Database(small_db.extraction_config, list(small_db.records))
    extra = blob_texture(192, 192, 16, seed=63)
    before, _ = query_image(old, extra)
    saved = db_to_json(old)
    new = index_image(old, extra, "extra", "Extra", "")
    after, _ = query_image(new, extra)
    assert after.best == "extra"
    assert [c.object_id for c in after.ranked][0] == "extra"
    again, _ = query_image(old, extra)
    assert again.best == before.best != "extra"
    assert [(c.object_id, c.matches.tolist()) for c in again.ranked] == [
        (c.object_id, c.matches.tolist()) for c in before.ranked
    ]
    assert db_to_json(old) == saved
    assert len(old.records) == 3


def test_query_leaves_saved_bytes_unchanged(tmp_path, small_db):
    fresh = Database(small_db.extraction_config, list(small_db.records))
    before = [(r, dataclasses.astuple(r)[:4], feature_bytes(r.features)) for r in fresh.records]
    save_db(fresh, tmp_path / "before.json")
    query_image(fresh, blob_texture(192, 192, 16, seed=51))
    save_db(fresh, tmp_path / "after.json")
    assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()
    assert fresh.extraction_config == small_db.extraction_config
    assert [(r, dataclasses.astuple(r)[:4], feature_bytes(r.features)) for r in fresh.records] == before
    assert all(a is b for a, b in zip(fresh.records, small_db.records)) and len(fresh.records) == 3


def _assert_read_only(features):
    for k in FIELDS:
        a = getattr(features, k)
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            a += 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        features.desc = np.zeros_like(features.desc)


def test_indexed_and_loaded_features_are_read_only(tmp_path, small_db):
    path = tmp_path / "db.json"
    save_db(small_db, path)
    for rec in [*small_db.records, *load_db(path).records]:
        _assert_read_only(rec.features)


def test_features_copy_their_arrays_and_check_shapes(small_db):
    f = small_db.records[0].features
    arrays = {k: getattr(f, k).copy() for k in FIELDS}
    copy_ = Features(**arrays)
    arrays["desc"][0, 0] = 7.0  # the caller's arrays stay the caller's
    assert copy_.desc[0, 0] == f.desc[0, 0] and arrays["desc"].flags.writeable
    _assert_read_only(copy_)
    n = len(f.xy)
    for k, bad in [("xy", np.zeros((n, 3))), ("desc", np.zeros((n, 63))), ("scale", np.zeros(n + 1)), ("sign", np.ones((n, 1)))]:
        with pytest.raises(ValueError):
            Features(**{**arrays, k: bad})


def test_features_serialize_in_the_documented_key_order(small_db):
    doc = features_to_json(small_db.records[0].features)
    assert list(doc) == ["keypoints", "descriptors"]
    assert all(list(p) == ["x", "y", "scale", "orientation", "laplacian", "response"] for p in doc["keypoints"])
    assert all(type(p["laplacian"]) is int and type(p["x"]) is float for p in doc["keypoints"])


# --- any document: a Database or a ParseError, and a Database answers --------

NUMBERS = (
    st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from((0, 1, -1, 2, 64, 1e300, -1e300, 1e154, 1e-300, 5e-324, -0.0, 10**400))
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
QUERY_IMAGE = blob_texture(96, 96, 8, seed=70)


def _base_document():
    """Two records whose features are the query image's own, so that the
    query matches them and RANSAC runs."""
    db = index_image(Database(), QUERY_IMAGE, "same", "Same", "x")
    db = index_image(db, warp_similarity(QUERY_IMAGE, 10.0, 0.9), "warped", "Warped", "y")
    return db_to_json(db)


BASE_DOCUMENT = _base_document()


def _with_image_size(size):
    doc = copy.deepcopy(BASE_DOCUMENT)
    doc["objects"][0]["image_size"] = size
    return doc


def _containers(node, depth):
    """The containers of the tree at most `depth` levels below `node`."""
    out = [node]
    children = node.values() if isinstance(node, dict) else node
    for child in children:
        if depth and isinstance(child, (dict, list)):
            out += _containers(child, depth - 1)
    return out


@st.composite
def documents(draw):
    """Mostly a valid document with a few edits: a value replaced (by a
    number, most often), a key or item removed, or an item repeated,
    anywhere in the tree or, half of the time, in its top three levels (the
    config and each record's own fields, image_size included, which the
    hundreds of keypoints and descriptor rows would otherwise crowd out);
    sometimes any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    doc = copy.deepcopy(BASE_DOCUMENT)
    for _ in range(draw(st.integers(0, 4))):
        containers = _containers(doc, 3 if draw(st.booleans()) else -1)
        node = containers[draw(st.integers(0, len(containers) - 1))]
        keys = list(node.keys()) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            continue
        key = keys[draw(st.integers(0, len(keys) - 1))]
        action = draw(st.sampled_from(("replace", "replace", "remove", "repeat")))
        if action == "replace":
            node[key] = draw(NUMBERS if draw(st.booleans()) else JSON_VALUES)
        elif action == "remove":
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
    if draw(st.booleans()):
        doc = json.loads(json.dumps(doc))  # as read back from a file
    return doc


@pytest.fixture(scope="module")
def db_file(tmp_path_factory):
    return tmp_path_factory.mktemp("any-document") / "db.json"


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents())
@example(doc=_with_image_size([10**400, 5]))  # once drew a traceback from recognition_overlay
@example(doc=_with_image_size([2**31 - 1, 2**31 - 1]))
def test_any_document_gives_a_database_or_a_parse_error(db_file, doc):
    try:
        db = db_from_json(doc)
    except (ParseError, VersionMismatch) as exc:
        event(f"refused: {type(exc).__name__}")
        return
    assert isinstance(db, Database)
    save_db(db, db_file)
    saved = db_file.read_bytes()
    save_db(load_db(db_file), db_file)
    assert db_file.read_bytes() == saved
    try:
        result, points = query_image(db, QUERY_IMAGE)
    except ArfexError as exc:
        event(f"query raised {type(exc).__name__}")
        return
    event(f"answered {result.best}")
    assert len(result.ranked) == len(db.records)
    assert result.best == UNRECOGNIZED or result.best in {r.object_id for r in db.records}
    if result.recognized:
        best = result.ranked[0]
        record = next(r for r in db.records if r.object_id == best.object_id)
        inliers = [points[q] for q in best.matches[best.verification.inlier_indices, 0].tolist()]
        draw.recognition_overlay(QUERY_IMAGE, inliers, best.verification.model, record.image_size)

"""Object database: indexing, querying, ranking, and JSON persistence."""

import json

import numpy as np
import pytest

from arfex.errors import DuplicateId, NoFeatures, ParseError, VersionMismatch
from arfex.features import ExtractionConfig
from arfex.store import (
    Database,
    UNRECOGNIZED,
    db_from_json,
    db_to_json,
    index_image,
    load_db,
    query_image,
    save_db,
)
from arfex.synthetic import add_noise, blob_texture, noise_image, warp_similarity
from conftest import gray_raster


@pytest.fixture(scope="module")
def small_db():
    db = Database()
    for k in range(3):
        img = blob_texture(192, 192, 16, seed=50 + k)
        db = index_image(db, img, f"obj{k}", f"Object {k}", f"about object {k}")
    return db


def test_index_appends_record(small_db):
    assert len(small_db.records) == 3
    assert small_db.ids() == {"obj0", "obj1", "obj2"}
    for rec in small_db.records:
        assert len(rec.keypoints) == len(rec.descriptors) >= 1
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
    a, b = small_db.records[0], loaded.records[0]
    assert a.keypoints == b.keypoints
    assert all(np.array_equal(x.components, y.components) for x, y in zip(a.descriptors, b.descriptors))
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
    ],
    ids=["short", "long", "nan", "inf", "string", "null", "nested"],
)
def test_descriptor_must_be_64_finite_floats(small_db, bad):
    doc = one_record_doc(small_db)
    doc["objects"][0]["descriptors"][-1] = bad
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


@pytest.mark.parametrize(
    "key, bad",
    [("octaves", 2.5), ("octaves", "3"), ("threshold", "x"), ("threshold", float("nan")), ("upright", "no")],
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

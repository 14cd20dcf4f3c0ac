"""Command-line surface: exit codes, JSON artifacts, overlays, determinism."""

import argparse
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from arfex import draw
from arfex.cli import _extraction_config, main
from arfex.geometry import reprojection_errors
from arfex.image import RasterImage
from arfex.image_io import read_image, write_ppm
from arfex.store import load_db, query_image
from synthetic import blob_texture, noise_image, similarity_map, warp_similarity
from conftest import gray_raster
from oracles import flood_fill_labels
from test_image_io import encode_png, flip_chunk_byte


@pytest.fixture(scope="module")
def texture_ppm(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "texture.ppm"
    write_ppm(blob_texture(192, 192, 16, seed=21), path)
    return path


def read_json(path):
    return json.loads(path.read_text())


def test_extract_writes_points_and_config(tmp_path, texture_ppm):
    out = tmp_path / "features.json"
    assert main(["extract", "--input", str(texture_ppm), "--output", str(out)]) == 0
    doc = read_json(out)
    assert len(doc["points"]) >= 1
    assert len(doc["descriptors"]) == len(doc["points"])
    assert doc["config"]["octaves"] == 3
    assert doc["config"]["threshold"] == 4e-4
    assert all(len(d) == 64 for d in doc["descriptors"])
    p = doc["points"][0]
    assert set(p) == {"x", "y", "scale", "orientation", "laplacian", "response"}


def test_extract_overlay_has_red_marks(tmp_path, texture_ppm):
    out = tmp_path / "features.json"
    overlay = tmp_path / "overlay.ppm"
    code = main(
        ["extract", "--input", str(texture_ppm), "--output", str(out), "--overlay", str(overlay)]
    )
    assert code == 0
    img = read_image(overlay)
    red = (img.pixels[:, :, 0] == 255) & (img.pixels[:, :, 1] == 0) & (img.pixels[:, :, 2] == 0)
    assert red.any()


def test_extract_missing_input_is_exit_2(tmp_path):
    out = tmp_path / "x.json"
    assert main(["extract", "--input", str(tmp_path / "nope.ppm"), "--output", str(out)]) == 2


@pytest.mark.parametrize("ctype, offset", [(b"IHDR", 3), (b"IDAT", 2)])
def test_extract_png_with_stale_crc_is_exit_2(tmp_path, capsys, ctype, offset):
    png = tmp_path / "bad.png"
    png.write_bytes(flip_chunk_byte(encode_png(blob_texture(32, 32, 2, seed=3).pixels), ctype, offset))
    assert main(["extract", "--input", str(png), "--output", str(tmp_path / "x.json")]) == 2
    assert f"PNG {ctype.decode()} chunk fails its CRC" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_extract_tiny_image_is_exit_3(tmp_path):
    tiny = tmp_path / "tiny.ppm"
    write_ppm(gray_raster(np.full((4, 4), 200)), tiny)
    assert main(["extract", "--input", str(tiny), "--output", str(tmp_path / "x.json")]) == 3


def test_extract_threshold_flag_must_be_valid(tmp_path, texture_ppm):
    with pytest.raises(SystemExit):
        main(["extract", "--input", str(texture_ppm), "--output", "x.json", "--threshold", "-1"])


def test_extract_flags_reach_the_config(tmp_path, texture_ppm):
    out = tmp_path / "features.json"
    args = ["--octaves", "2", "--threshold", "0.001", "--upright"]
    assert main(["extract", "--input", str(texture_ppm), "--output", str(out), *args]) == 0
    doc = read_json(out)
    assert doc["config"] == {"octaves": 2, "threshold": 0.001, "upright": True}
    assert doc["points"] and all(p["orientation"] == 0.0 for p in doc["points"])
    assert max(p["scale"] for p in doc["points"]) < 1.2 * 51 / 9


def test_extraction_config_checks_the_flags():
    flags = argparse.Namespace(threshold=math.inf, octaves=None, upright=False)
    with pytest.raises(ValueError):
        _extraction_config(flags)


@pytest.mark.parametrize("command", ["extract", "annotate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
def test_non_finite_threshold_flag_is_a_usage_error(tmp_path, texture_ppm, command, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(texture_ppm), "--output", str(out), "--threshold", value])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_database_with_non_finite_threshold_is_exit_2(tmp_path, texture_ppm, capsys, value):
    db = tmp_path / "db.json"
    assert main(["index", "--db", str(db), "--input", str(texture_ppm), "--id", "a", "--name", "A", "--info", "x"]) == 0
    doc = read_json(db)
    doc["extraction_config"]["threshold"] = value
    db.write_text(json.dumps(doc))  # NaN, Infinity or -Infinity
    saved = db.read_bytes()
    out = tmp_path / "result.json"
    assert main(["query", "--db", str(db), "--input", str(texture_ppm), "--output", str(out)]) == 2
    assert main(["index", "--db", str(db), "--input", str(texture_ppm), "--id", "b", "--name", "B", "--info", "y"]) == 2
    assert "threshold must be a finite number" in capsys.readouterr().err
    assert not out.exists()
    assert db.read_bytes() == saved


def test_unknown_flag_rejected(texture_ppm):
    with pytest.raises(SystemExit):
        main(["extract", "--input", str(texture_ppm), "--output", "x.json", "--bogus", "1"])


def test_blobs_two_squares(tmp_path):
    levels = np.zeros((12, 12), dtype=np.uint8)
    levels[2:5, 2:5] = 255
    levels[7:11, 7:11] = 255
    img_path = tmp_path / "squares.ppm"
    write_ppm(gray_raster(levels), img_path)
    out = tmp_path / "blobs.json"
    assert main(["blobs", "--input", str(img_path), "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["threshold"] == 128
    assert doc["polarity"] == "white"
    assert len(doc["blobs"]) == 2
    assert doc["blobs"][0]["count"] == 16
    assert doc["blobs"][0]["bbox"] == [7, 7, 10, 10]
    assert doc["blobs"][1]["count"] == 9


def test_blobs_all_black_white_polarity(tmp_path):
    img_path = tmp_path / "black.ppm"
    write_ppm(gray_raster(np.zeros((8, 8), dtype=np.uint8)), img_path)
    out = tmp_path / "blobs.json"
    assert main(["blobs", "--input", str(img_path), "--output", str(out)]) == 0
    assert read_json(out)["blobs"] == []


def test_blobs_count_matches_flood_fill(tmp_path, rng):
    mask = rng.random((32, 32)) < 0.4
    img_path = tmp_path / "random.ppm"
    write_ppm(gray_raster(mask.astype(np.uint8) * 255), img_path)
    out = tmp_path / "blobs.json"
    assert main(["blobs", "--input", str(img_path), "--output", str(out)]) == 0
    want = int(flood_fill_labels(mask).max())
    assert len(read_json(out)["blobs"]) == want


def test_blobs_polarity_black(tmp_path):
    levels = np.full((8, 8), 200, dtype=np.uint8)
    levels[3:5, 3:5] = 10
    img_path = tmp_path / "dark.ppm"
    write_ppm(gray_raster(levels), img_path)
    out = tmp_path / "blobs.json"
    assert main(["blobs", "--input", str(img_path), "--output", str(out), "--polarity", "black"]) == 0
    doc = read_json(out)
    assert len(doc["blobs"]) == 1
    assert doc["blobs"][0]["count"] == 4


def test_index_and_duplicate(tmp_path, texture_ppm):
    db = tmp_path / "db.json"
    code = main(
        ["index", "--db", str(db), "--input", str(texture_ppm), "--id", "a", "--name", "A", "--info", "alpha"]
    )
    assert code == 0
    doc = read_json(db)
    assert doc["version"] == 1
    assert len(doc["objects"]) == 1
    assert doc["objects"][0]["id"] == "a"
    assert doc["objects"][0]["info"] == "alpha"
    code = main(
        ["index", "--db", str(db), "--input", str(texture_ppm), "--id", "a", "--name", "A", "--info", "alpha"]
    )
    assert code == 4
    assert len(read_json(db)["objects"]) == 1


def test_index_flat_image_is_exit_3(tmp_path):
    flat = tmp_path / "flat.ppm"
    write_ppm(gray_raster(np.full((64, 64), 128)), flat)
    db = tmp_path / "db.json"
    assert main(["index", "--db", str(db), "--input", str(flat), "--id", "f", "--name", "F", "--info", "x"]) == 3


def test_index_info_from_file(tmp_path, texture_ppm):
    info_file = tmp_path / "info.txt"
    info_file.write_text("long description\nwith lines")
    db = tmp_path / "db.json"
    code = main(
        ["index", "--db", str(db), "--input", str(texture_ppm), "--id", "a", "--name", "A", "--info", f"@{info_file}"]
    )
    assert code == 0
    assert read_json(db)["objects"][0]["info"] == "long description\nwith lines"


def test_index_info_file_not_utf8_is_exit_2(tmp_path, texture_ppm):
    info_file = tmp_path / "info.bin"
    info_file.write_bytes(b"\xff\xfe\xfa")
    db = tmp_path / "db.json"
    code = main(
        ["index", "--db", str(db), "--input", str(texture_ppm), "--id", "a", "--name", "A", "--info", f"@{info_file}"]
    )
    assert code == 2
    assert not db.exists()


def build_db(tmp_path, seeds=(31, 32, 33)):
    db = tmp_path / "db.json"
    for k, seed in enumerate(seeds):
        img_path = tmp_path / f"obj{k}.ppm"
        write_ppm(blob_texture(192, 192, 16, seed=seed), img_path)
        assert (
            main(
                ["index", "--db", str(db), "--input", str(img_path), "--id", f"obj{k}", "--name", f"Object {k}", "--info", f"info {k}"]
            )
            == 0
        )
    return db


def test_query_exact_copy_recognized(tmp_path):
    db = build_db(tmp_path)
    out = tmp_path / "result.json"
    assert main(["query", "--db", str(db), "--input", str(tmp_path / "obj1.ppm"), "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["best"] == "obj1"
    assert doc["associated_info"] == {"name": "Object 1", "info": "info 1"}
    assert len(doc["homography"]) == 9
    assert doc["inlier_indices"]
    assert doc["ranked"][0]["id"] == "obj1"
    assert doc["ranked"][0]["verified"] is True


def test_query_noise_unrecognized_exit_1(tmp_path):
    db = build_db(tmp_path)
    noise_path = tmp_path / "noise.ppm"
    write_ppm(noise_image(192, 192, seed=5), noise_path)
    out = tmp_path / "result.json"
    assert main(["query", "--db", str(db), "--input", str(noise_path), "--output", str(out)]) == 1
    doc = read_json(out)
    assert doc["best"] == "unrecognized"
    assert "associated_info" not in doc
    assert "homography" not in doc
    assert len(doc["ranked"]) == 3


def test_query_annotate_corners_match_ground_truth(tmp_path):
    db = build_db(tmp_path)
    obj = read_image(tmp_path / "obj2.ppm")
    query = warp_similarity(obj, 15.0, 1.0)
    query_path = tmp_path / "query.ppm"
    write_ppm(query, query_path)
    out = tmp_path / "result.json"
    annotated = tmp_path / "annotated.ppm"
    code = main(
        ["query", "--db", str(db), "--input", str(query_path), "--output", str(out), "--annotate", str(annotated)]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["best"] == "obj2"
    h = np.array(doc["homography"]).reshape(3, 3)
    corners = np.array([[0, 0], [191, 0], [191, 191], [0, 191]], dtype=float)
    want = similarity_map(corners, 192, 192, 15.0, 1.0)
    homo = np.hstack([corners, np.ones((4, 1))]) @ h.T
    got = homo[:, :2] / homo[:, 2:3]
    assert np.all(np.hypot(*(got - want).T) <= 3.0)
    img = read_image(annotated)
    red = (img.pixels[:, :, 0] == 255) & (img.pixels[:, :, 1] == 0) & (img.pixels[:, :, 2] == 0)
    assert red.any()


def test_query_annotate_circles_the_query_points_of_the_inliers(tmp_path):
    db = build_db(tmp_path)
    query = warp_similarity(read_image(tmp_path / "obj1.ppm"), 10.0, 0.9)
    query_path = tmp_path / "query.ppm"
    write_ppm(query, query_path)
    annotated = tmp_path / "annotated.ppm"
    args = ["query", "--db", str(db), "--input", str(query_path), "--output", str(tmp_path / "r.json")]
    assert main([*args, "--annotate", str(annotated), "--seed", "0"]) == 0
    loaded = load_db(db)
    result, points = query_image(loaded, query, seed=0)
    best = result.ranked[0]
    record = next(r for r in loaded.records if r.object_id == best.object_id)
    query_rows, record_rows = best.matches[best.verification.inlier_indices].T
    # the model maps each inlier's record point onto its query point
    query_xy = np.array([(points[q].x, points[q].y) for q in query_rows])
    assert (reprojection_errors(best.verification.model, record.features.xy[record_rows], query_xy) <= 3.0).all()
    want = draw.recognition_overlay(query, [points[q] for q in query_rows], best.verification.model, record.image_size)
    assert np.array_equal(read_image(annotated).pixels, want.pixels)


def test_query_output_byte_identical_across_runs(tmp_path):
    db = build_db(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["query", "--db", str(db), "--input", str(tmp_path / "obj0.ppm"), "--seed", "7"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_query_seed_env_fallback(tmp_path, monkeypatch):
    db = build_db(tmp_path)
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    monkeypatch.setenv("ARFEX_SEED", "123")
    assert main(["query", "--db", str(db), "--input", str(tmp_path / "obj0.ppm"), "--output", str(out_env)]) == 0
    monkeypatch.delenv("ARFEX_SEED")
    assert main(["query", "--db", str(db), "--input", str(tmp_path / "obj0.ppm"), "--output", str(out_flag), "--seed", "123"]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5", ""])
def test_query_bad_seed_flag_is_a_usage_error(tmp_path, texture_ppm, seed):
    db = build_db(tmp_path, seeds=(31,))
    args = ["query", "--db", str(db), "--input", str(texture_ppm), "--output", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", seed])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", "0x10"])
def test_query_bad_seed_env_is_exit_2(tmp_path, monkeypatch, capsys, value):
    db = build_db(tmp_path, seeds=(31,))
    out = tmp_path / "x.json"
    monkeypatch.setenv("ARFEX_SEED", value)
    assert main(["query", "--db", str(db), "--input", str(tmp_path / "obj0.ppm"), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"arfex: ARFEX_SEED must be an integer >= 0, got {value!r}")
    assert not out.exists()


def test_query_annotates_a_record_of_huge_image_size(tmp_path):
    db = build_db(tmp_path, seeds=(31,))
    doc = read_json(db)
    doc["objects"][0]["image_size"] = [10**9, 10**9]
    db.write_text(json.dumps(doc))
    out = tmp_path / "result.json"
    annotated = tmp_path / "annotated.ppm"
    code = main(
        ["query", "--db", str(db), "--input", str(tmp_path / "obj0.ppm"), "--output", str(out), "--annotate", str(annotated)]
    )
    assert code == 0
    assert read_json(out)["best"] == "obj0"
    assert (read_image(annotated).pixels == (255, 0, 0)).all(axis=2).any()


@pytest.mark.parametrize("size", [[10**400, 5], [5, 2**31]])
def test_query_annotate_record_beyond_png_side_limit_exit_2(tmp_path, capsys, size):
    db = build_db(tmp_path, seeds=(31,))
    doc = read_json(db)
    doc["objects"][0]["image_size"] = size
    db.write_text(json.dumps(doc))
    out = tmp_path / "result.json"
    annotated = tmp_path / "annotated.ppm"
    code = main(
        ["query", "--db", str(db), "--input", str(tmp_path / "obj0.ppm"), "--output", str(out), "--annotate", str(annotated)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("arfex: ") and "image_size" in err
    assert not out.exists() and not annotated.exists()


def test_query_version_mismatch_exit_4(tmp_path, texture_ppm):
    db = build_db(tmp_path)
    doc = read_json(db)
    doc["version"] = 99
    db.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    assert main(["query", "--db", str(db), "--input", str(texture_ppm), "--output", str(out)]) == 4


def test_query_corrupt_db_exit_2(tmp_path, texture_ppm):
    db = tmp_path / "broken.json"
    db.write_text("{oops")
    assert main(["query", "--db", str(db), "--input", str(texture_ppm), "--output", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("command", ["query", "index"])
def test_deeply_nested_db_exit_2(tmp_path, texture_ppm, capsys, command):
    db = tmp_path / "deep.json"
    db.write_text("[" * 100000)
    out = tmp_path / "x.json"
    extra = ["--output", str(out)] if command == "query" else ["--id", "a", "--name", "A", "--info", "i"]
    assert main([command, "--db", str(db), "--input", str(texture_ppm), *extra]) == 2
    assert capsys.readouterr().err.startswith("arfex: ")
    assert db.read_text() == "[" * 100000 and not out.exists()


def test_annotate_command_writes_overlay(tmp_path, texture_ppm):
    out = tmp_path / "annotated.ppm"
    assert main(["annotate", "--input", str(texture_ppm), "--output", str(out)]) == 0
    img = read_image(out)
    red = (img.pixels[:, :, 0] == 255) & (img.pixels[:, :, 1] == 0) & (img.pixels[:, :, 2] == 0)
    assert red.any()


def test_extract_json_deterministic(tmp_path, texture_ppm):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["extract", "--input", str(texture_ppm), "--output", str(out1)]) == 0
    assert main(["extract", "--input", str(texture_ppm), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- any argv ---------------------------------------------------------------

# Each example runs in a fresh copy of the files `argv_files` makes, which is
# also the working directory, so a junk token used as a path lands in it too.
IMAGES = ("texture.ppm", "texture.png", "other.ppm", "tiny.ppm", "flat.ppm")
ARGV_PATHS = IMAGES + (
    "db.json", "corrupt.json", "info.txt", "info.bin", "dir",
    "missing.ppm", "out.json", "out.ppm", "dir/out.json", "missing/out.json",
)

# What a shell can pass: any bytes but NUL, decoded the way Python decodes
# argv.  Tokens that would abbreviate --help are left out: help exits 0.
JUNK = (
    st.binary(max_size=8)
    .filter(lambda b: b"\0" not in b)
    .map(os.fsdecode)
    .filter(lambda t: not t.startswith(("-h", "--h")))
)


def one_in(n: int) -> st.SearchStrategy:
    """True about once in n draws; shrinks to False."""
    return st.sampled_from([False] * (n - 1) + [True])


def mostly(common: st.SearchStrategy, rare: st.SearchStrategy) -> st.SearchStrategy:
    """`rare` about once in five draws, `common` otherwise."""
    return one_in(5).flatmap(lambda r: rare if r else common)


PATH = mostly(st.sampled_from(ARGV_PATHS), JUNK)
IMAGE = mostly(st.sampled_from(IMAGES), PATH)
DB = mostly(st.just("db.json"), PATH)
OUTPUT = mostly(st.sampled_from(["out.json", "out.ppm"]), PATH)
TEXT = mostly(st.sampled_from(["a", "obj0", "Object 0", ""]), JUNK)
FLOAT_TEXT = mostly(
    st.sampled_from(["0", "4e-4", "0.01", "0.7", "1", "1.5", "-1", "nan", "inf", "1e400", "x", ""]),
    st.floats().map(repr),
)
INT_TEXT = mostly(st.integers(-3, 300).map(str), st.sampled_from(["x", "", "1.5", "9" * 30, "-" + "9" * 30]))
FLAG = None  # an option that takes no value

# (required options, optional options) of each command, with their values.
GRAMMAR = {
    "extract": (
        {"--input": IMAGE, "--output": OUTPUT},
        {"--overlay": OUTPUT, "--threshold": FLOAT_TEXT, "--octaves": INT_TEXT, "--upright": FLAG},
    ),
    "blobs": (
        {"--input": IMAGE, "--output": OUTPUT},
        {"--threshold": INT_TEXT, "--polarity": st.sampled_from(["white", "black", "grey"]), "--min-pixels": INT_TEXT},
    ),
    "index": (
        {"--db": DB, "--input": IMAGE, "--id": TEXT, "--name": TEXT, "--info": mostly(TEXT, PATH.map("@".__add__))},
        {},
    ),
    "query": (
        {"--db": DB, "--input": IMAGE, "--output": OUTPUT},
        {"--annotate": OUTPUT, "--seed": INT_TEXT, "--ratio": FLOAT_TEXT},
    ),
    "annotate": (
        {"--input": IMAGE, "--output": OUTPUT},
        {"--threshold": FLOAT_TEXT, "--octaves": INT_TEXT, "--upright": FLAG},
    ),
}


@st.composite
def argvs(draw):
    """A command with its required options (now and then one too few), some
    optional ones, in any order, now and then with a junk token anywhere or
    no command."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    required, optional = GRAMMAR[command]
    flags = [f for f in required if not draw(one_in(20))]
    flags += draw(st.lists(st.sampled_from(sorted(optional)), max_size=3)) if optional else []
    values = {**required, **optional}
    argv = []
    for flag in draw(st.permutations(flags)):
        argv += [flag] if values[flag] is FLAG else [flag, draw(values[flag])]
    while draw(one_in(6)):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv if draw(one_in(20)) else [command, *argv]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    texture = blob_texture(96, 96, 8, seed=41)
    write_ppm(texture, root / "texture.ppm")
    (root / "texture.png").write_bytes(encode_png(texture.pixels))
    write_ppm(blob_texture(96, 96, 8, seed=42), root / "other.ppm")
    write_ppm(gray_raster(np.full((6, 6), 90)), root / "tiny.ppm")
    write_ppm(gray_raster(np.full((32, 32), 90)), root / "flat.ppm")
    (root / "corrupt.json").write_text('{"version": 1, "objects": [')
    (root / "info.txt").write_text("about the object")
    (root / "info.bin").write_bytes(b"\xff\xfe")
    (root / "dir").mkdir()
    index = ["index", "--db", str(root / "db.json"), "--input", str(root / "texture.ppm")]
    assert main([*index, "--id", "obj0", "--name", "O", "--info", "i"]) == 0
    return root


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=argvs())
def test_any_argv_ends_in_an_exit_code_or_a_usage_error(argv_files, argv):
    work = shutil.copytree(argv_files, tempfile.mkdtemp(dir=argv_files.parent), dirs_exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = main(argv)
    except SystemExit as exc:
        event("usage error")
        assert exc.code == 2
    else:
        event(f"exit {code}")
        assert code in {0, 1, 2, 3, 4}
    finally:
        os.chdir(cwd)

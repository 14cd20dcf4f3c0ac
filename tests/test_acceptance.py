"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage

from arfex.cli import main
from arfex.features import ExtractionConfig, _layer_cells, build_response_maps, extract_features, filter_sizes
from arfex.geometry import Homography, ransac_verify
from arfex.image import RasterImage, build_integral, to_grayscale
from boxes import box_sums
from arfex.image_io import write_ppm
from arfex.blobs import detect_blobs
from synthetic import (
    add_noise,
    apply_gain_offset,
    blob_texture,
    noise_image,
    similarity_map,
    warp_similarity,
)
from oracles import brute_force_matches, hessian_response_at
from test_matching import match_one, random_descs

RNG_MASTER = 20260809


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL - {description} ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"[criterion {num}] PASS - {description} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_integral_image_exactness():
    with criterion(1, "box_sum equals naive summation, 100 images x 1000 rects, 1e-9"):
        start = time.perf_counter()
        rng = np.random.default_rng(RNG_MASTER)
        for _ in range(100):
            levels = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
            ii = build_integral(levels)
            unit = levels / 255.0
            xs = rng.integers(0, 64, size=(1000, 2))
            ys = rng.integers(0, 64, size=(1000, 2))
            x0, x1 = xs.min(axis=1), xs.max(axis=1)
            y0, y1 = ys.min(axis=1), ys.max(axis=1)
            got = box_sums(ii, x0, y0, x1, y1)
            for k in range(1000):
                naive = unit[y0[k] : y1[k] + 1, x0[k] : x1[k] + 1].sum()
                assert abs(got[k] - naive) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_2_response_map_oracle_equivalence():
    with criterion(2, "response maps equal direct box-filter evaluation, 10 images, 1e-9"):
        start = time.perf_counter()
        rng = np.random.default_rng(RNG_MASTER + 1)
        for _ in range(10):
            img = RasterImage(rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8))
            levels = to_grayscale(img)
            table = build_integral(levels).astype(np.int32)  # the one table extraction reads
            for octave, responses in enumerate(build_response_maps(table), start=1):
                # Every cell of every layer: the dense layers 1 and 2, and
                # each of the four layers read cell by cell.
                stride = 1 << (octave - 1)
                _, gh, gw = responses.shape
                i, j = np.indices((gh, gw))
                for k, size in enumerate(filter_sizes(octave, 4)):
                    cells, signs = _layer_cells(table, stride, size, i, j)
                    dense = responses[k - 1] if k in (1, 2) else None
                    for y, x in zip(i.ravel().tolist(), j.ravel().tolist()):
                        want, sign = hessian_response_at(levels, x * stride, y * stride, size)
                        assert abs(cells[y, x] - want) <= 1e-9
                        assert signs[y, x] == sign
                        if dense is not None:
                            assert abs(dense[y, x] - want) <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_3_blob_flood_fill_equivalence():
    with criterion(3, "scanline blobs partition == 4-connected flood fill, 500 masks"):
        start = time.perf_counter()
        rng = np.random.default_rng(RNG_MASTER + 2)
        structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        for _ in range(500):
            mask = rng.random((32, 32)) < 0.4
            blobs = detect_blobs(mask)
            mine = np.zeros(mask.shape, dtype=np.int32)
            for label, b in enumerate(blobs, start=1):
                for row, x_start, x_end, _ in b.member_runs.tolist():
                    mine[row, x_start : x_end + 1] = label
            ref, n_ref = scipy.ndimage.label(mask, structure=structure)
            assert len(blobs) == n_ref
            assert np.array_equal(mine > 0, mask)
            # Partitions are equal iff fg label pairs form a bijection.
            pairs = np.unique(np.stack([mine[mask], ref[mask]]), axis=1)
            assert pairs.shape[1] == len(blobs)
        assert time.perf_counter() - start < 1.0


TEXTURE_SEED = 1


def _rotation_artifacts(tmp_path: Path) -> bytes:
    """Extraction JSON of the criterion-4 rotated texture, via the CLI."""
    rot = warp_similarity(blob_texture(256, 256, 20, seed=TEXTURE_SEED), 15.0, 1.0)
    ppm = tmp_path / "rotated.ppm"
    out = tmp_path / "rotated.json"
    write_ppm(rot, ppm)
    assert main(["extract", "--input", str(ppm), "--output", str(out)]) == 0
    return out.read_bytes()


def test_criterion_4_rotation_repeatability(tmp_path):
    with criterion(4, "15-degree rotation: >=60% repeat within 2px, >=80% NN-paired"):
        start = time.perf_counter()
        tex = blob_texture(256, 256, 20, seed=TEXTURE_SEED)
        pts, descs = extract_features(tex)
        rot = warp_similarity(tex, 15.0, 1.0)
        rpts, rdescs = extract_features(rot)
        coords = np.array([[p.x, p.y] for p in rpts])
        back = similarity_map(coords, 256, 256, -15.0, 1.0)
        orig = np.array([[p.x, p.y] for p in pts])
        repeated = []
        for i, q in enumerate(back):
            d = np.hypot(orig[:, 0] - q[0], orig[:, 1] - q[1])
            j = int(np.argmin(d))
            if d[j] <= 2.0:
                repeated.append((i, j))
        assert len(repeated) / len(rpts) >= 0.60
        pairing = {m.query_index: m.target_index for m in match_one(rdescs, descs)}
        correct = sum(1 for i, j in repeated if pairing.get(i) == j)
        assert correct / len(repeated) >= 0.80
        _rotation_artifacts(tmp_path)
        assert time.perf_counter() - start < 5.0


def test_criterion_5_photometric_invariance():
    with criterion(5, "gain 1.3 / offset +10: descriptor distance < 0.1 for >=90%"):
        tex = blob_texture(256, 256, 20, seed=TEXTURE_SEED)
        pts, descs = extract_features(tex)
        mod = apply_gain_offset(tex, 1.3, 10.0)
        mpts, mdescs = extract_features(mod)
        orig = np.array([[p.x, p.y] for p in pts])
        close = 0
        total = 0
        for i, p in enumerate(mpts):
            d = np.hypot(orig[:, 0] - p.x, orig[:, 1] - p.y)
            j = int(np.argmin(d))
            if d[j] <= 2.0:
                total += 1
                if float(np.linalg.norm(mdescs[i].components - descs[j].components)) < 0.1:
                    close += 1
        assert total > 0
        assert close / total >= 0.90


def test_criterion_6_matcher_oracle_equivalence():
    with criterion(6, "matcher identical to brute-force NN + ratio test, 200x200"):
        rng = np.random.default_rng(RNG_MASTER + 3)
        query = random_descs(rng, 200)
        target = random_descs(rng, 200)
        got = [
            (m.query_index, m.target_index, m.distance)
            for m in match_one(query, target)
        ]
        want = brute_force_matches(query, target)
        assert json.dumps(got).encode() == json.dumps(want).encode()


def test_criterion_7_ransac_recovery():
    with criterion(7, "RANSAC: >=28/30 true inliers, mean err < 1px, >=19/20 seeds"):
        start = time.perf_counter()
        successes = 0
        for seed in range(20):
            rng = np.random.default_rng(RNG_MASTER + 100 + seed)
            theta = rng.uniform(-0.5, 0.5)
            s = rng.uniform(0.8, 1.25)
            truth = np.array(
                [
                    [s * np.cos(theta), -s * np.sin(theta), rng.uniform(-20, 20)],
                    [s * np.sin(theta), s * np.cos(theta), rng.uniform(-20, 20)],
                    [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4), 1.0],
                ]
            )
            src_in = rng.uniform(0, 200, size=(30, 2))
            homo = np.hstack([src_in, np.ones((30, 1))]) @ truth.T
            dst_in = homo[:, :2] / homo[:, 2:3] + rng.normal(0, 0.5, size=(30, 2))
            src = np.vstack([src_in, rng.uniform(0, 200, size=(20, 2))])
            dst = np.vstack([dst_in, rng.uniform(0, 200, size=(20, 2))])
            res = ransac_verify(src, dst, seed)
            true_inliers = sum(1 for i in res.inlier_indices if i < 30)
            if res.verified and true_inliers >= 28 and res.mean_reprojection_error < 1.0:
                successes += 1
        assert successes >= 19
        assert time.perf_counter() - start < 2.0


DB_SEEDS = (100, 101, 102, 103, 104)


def _recognition_artifacts(tmp_path: Path):
    """Index 5 objects and query their transformed versions, all via the CLI.

    Returns (exit codes, best ids, concatenated query JSON bytes).
    """
    db = tmp_path / "db.json"
    for k, seed in enumerate(DB_SEEDS):
        obj = blob_texture(256, 256, 20, seed=seed)
        ppm = tmp_path / f"obj{k}.ppm"
        write_ppm(obj, ppm)
        code = main(
            [
                "index", "--db", str(db), "--input", str(ppm),
                "--id", f"obj{k}", "--name", f"Object {k}", "--info", f"info {k}",
            ]
        )
        assert code == 0
    codes = []
    bests = []
    blob = b""
    for k, seed in enumerate(DB_SEEDS):
        obj = blob_texture(256, 256, 20, seed=seed)
        query = add_noise(warp_similarity(obj, 15.0, 0.8), 5.0, seed=500 + k)
        qppm = tmp_path / f"query{k}.ppm"
        qjson = tmp_path / f"query{k}.json"
        write_ppm(query, qppm)
        codes.append(
            main(["query", "--db", str(db), "--input", str(qppm), "--output", str(qjson), "--seed", "0"])
        )
        doc = json.loads(qjson.read_text())
        bests.append(doc["best"])
        blob += qjson.read_bytes()
    nppm = tmp_path / "noise.ppm"
    njson = tmp_path / "noise.json"
    write_ppm(noise_image(256, 256, seed=999), nppm)
    codes.append(main(["query", "--db", str(db), "--input", str(nppm), "--output", str(njson), "--seed", "0"]))
    bests.append(json.loads(njson.read_text())["best"])
    blob += njson.read_bytes()
    return codes, bests, blob


def test_criterion_8_end_to_end_recognition(tmp_path):
    with criterion(8, "5/5 transformed queries recognized, noise unrecognized"):
        start = time.perf_counter()
        codes, bests, _ = _recognition_artifacts(tmp_path)
        assert codes[:5] == [0] * 5
        assert bests[:5] == [f"obj{k}" for k in range(5)]
        assert codes[5] == 1
        assert bests[5] == "unrecognized"
        assert time.perf_counter() - start < 30.0


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "criteria 4 and 8 reruns produce byte-identical JSON"):
        rot_a = _rotation_artifacts(tmp_path / "rot_a")
        rot_b = _rotation_artifacts(tmp_path / "rot_b")
        assert rot_a == rot_b
        (tmp_path / "rec_a").mkdir()
        (tmp_path / "rec_b").mkdir()
        _, _, rec_a = _recognition_artifacts(tmp_path / "rec_a")
        _, _, rec_b = _recognition_artifacts(tmp_path / "rec_b")
        assert rec_a == rec_b


@pytest.fixture(autouse=True)
def _mk_subdirs(tmp_path):
    for name in ("rot_a", "rot_b"):
        (tmp_path / name).mkdir(exist_ok=True)
    yield

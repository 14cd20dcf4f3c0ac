"""Committed sha256 digests of the program's outputs on seeded inputs.

Each digest covers one output in full: every point field and descriptor
byte of `extract_features`, every array of `detect_blobs`, every part of a
`query_image` answer, and the bytes and exit code of each CLI command.  A
change that keeps outputs bit for bit leaves DIGESTS as it is.  A change
that moves outputs on purpose regenerates the table and names the digests
that moved; print the table of the current code with

    PYTHONPATH=src:tests python tests/test_digests.py

The bits rest on numpy.  No BLAS or LAPACK routine sets them: refinement
and homography estimation are elimination written with elementwise numpy.
The table was made with NUMPY_VERSION; on another numpy, a mismatch is a
finding about cross-platform determinism, reported in the failure
message.  On x86-64 the table also holds when numpy dispatches only its
baseline kernels (`test_digests_hold_under_numpy_baseline_kernels`) and
under OpenBLAS's older kernels
(`test_digests_hold_under_older_openblas_kernels`).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from arfex.blobs import binarize, detect_blobs
from arfex.cli import main
from arfex.features import ExtractionConfig, extract_features
from arfex.image import RasterImage, to_grayscale
from arfex.image_io import write_ppm
from arfex.store import Database, index_image, query_image
from synthetic import add_noise, blob_texture, noise_image, warp_similarity

NUMPY_VERSION = "2.4.6"

DIGESTS = {
    "extract/texture/default": "9b54e83bccc793075c704badb10e09dfb3165df12b074918d5b63ea33668ba0f",
    "extract/texture/upright": "803133469758bb251ad86f2d240bb8d848e811a39cac439a9f8b7055036413fd",
    "extract/texture/octaves1": "2198dd7a8c9ae90ef6447cf1193c39b4f8adba9590dc24720c2ce5f552c2eda1",
    "extract/texture/octaves4": "ee44e5c8641cd87f229f01fd4c392c062687647782395c6d275233b2775195da",
    "extract/view/default": "c13ed478212caaebfe806d02b88340cde031b9f1a75b0a6552ec4aecb5ba201a",
    "extract/view/upright": "5cd98742df29bfc8ae9892f1870dd8a93448b3e677bf0dc0e711e4b4cc47379d",
    "extract/view/octaves1": "07262132633216af59331c9331907469fa93aa84c730e19446f81f40c8edbfdb",
    "extract/view/octaves4": "b61421f7e070f99b29dde29fc5aa10d40ec361b1fc5c6904b18a2e93d4c85241",
    "extract/noise/default": "2cb1557425a85f9667cdbc850292ce7d6dbe559b58096e64adfc773bb9648dcc",
    "extract/noise/upright": "96b131b4c0d04ad2d473592ceab07d9b450a21d6e027f06c3206fd548c78d41b",
    "extract/noise/octaves1": "2be4268287c83cd232618e1e50eb51bcaf154482817d4a1ff247eb0ea29c5e7d",
    "extract/noise/octaves4": "e6becc7e56b97c513b97fabc428955ba922a66afe2631fb1b4cef75f2b34b6bb",
    "blobs/texture/min1": "5a75cd1c48747d06809a7c2462a1922be0aea9b639489ea514a80ae6b90572b0",
    "blobs/texture/min60": "f5b464a1ab19ed8253cf6b2cb7775ab37ef53e811c9d74a0ab7182a80573dd05",
    "blobs/texture-black/min1": "812fe848375aeffb1e474519055012b7cb1e91a499c3ad5a486e4b4d267bbc30",
    "blobs/texture-black/min60": "7821bcfb75bc1806e535eaf7183c2a19c93d41d4994a3603cd7548b0c833988e",
    "blobs/random/min1": "474eb3daa296f7527de199cd6736aa18e6570ac4fdea4fb636128e7260139462",
    "blobs/random/min60": "2620c5c47ab5dff4aace4f73ac5ce8e1d4d9ad664d80dc1ec2dfdef51b5fd138",
    "query/view": "d9e204dd2496c6d05b935a2a6680298ee88e1a4e56af97ad1d4d6910169ea135",
    "query/pair": "cb5a64ff87a72fee74c11e3fb82dec990c7b9ee0e8495f31c8753e346f48ff16",
    "query/noise": "db27a631745b1b9c4bba74250172086ffac24c43644a0f22fbaff982252c2996",
    "cli/extract": "bc2b2025b52ae1ab3b282475821fdc71f15d4a2d8af94157ed2de02ed4d9f5b9",
    "cli/extract-octaves4-upright": "1b11fb8f2e15dbacfefb2253600d2f0d79fc1829636fc76806be6c99d2c44e75",
    "cli/blobs": "de7ed74ab00cbd14929d04307425c5d6ce67a5adc19bb73897d5df63fe4f10ae",
    "cli/index-1": "3257cfcac30d4a18b0c86bfb449d28fb9cdd01693eafba24a975519eee51d5fd",
    "cli/index-2": "6ca1fecb9136389970f2b386c5e13b293472c69506e94c59dff22ae64972c350",
    "cli/query-annotate": "aa5b131ab69fd8135c8603f3371fb3fa08f1a587612abfb7468e105516956019",
    "cli/annotate": "c496718a5617daffbf70ac176bf9574b23f74150c40fd01ce7aa4ceecc9c622e",
}


def digest(*parts) -> str:
    """sha256 over each part: an array by its dtype, shape and bytes, anything
    else by its repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def texture(seed=70):
    return blob_texture(224, 176, 32, seed=seed)


def view():
    return add_noise(warp_similarity(texture(), 15.0, 0.9), 2.0, seed=71)


CONFIGS = {
    "default": ExtractionConfig(),
    "upright": ExtractionConfig(upright=True),
    "octaves1": ExtractionConfig(octaves=1),
    "octaves4": ExtractionConfig(octaves=4, threshold=1e-4),
}


def extraction_digests() -> dict:
    out = {}
    for image_name, img in (("texture", texture()), ("view", view()), ("noise", noise_image(128, 96, seed=72))):
        for config_name, config in CONFIGS.items():
            points, descriptors = extract_features(img, config)
            fields = np.array(
                [(p.x, p.y, p.scale, p.response, p.orientation, p.laplacian_sign) for p in points], dtype=np.float64
            ).reshape(-1, 6)
            desc = np.array([d.components for d in descriptors], dtype=np.float64).reshape(-1, 64)
            signs = np.array([d.laplacian_sign for d in descriptors], dtype=np.int8)
            out[f"extract/{image_name}/{config_name}"] = digest(fields, desc, signs)
    return out


def blob_digests() -> dict:
    masks = {
        "texture": binarize(to_grayscale(texture()), 128),
        "texture-black": binarize(to_grayscale(view()), 100, "black"),
        "random": np.random.default_rng(73).random((90, 120)) < 0.45,
    }
    out = {}
    for name, mask in masks.items():
        for min_pixels in (1, 60):
            b = detect_blobs(mask, min_pixels=min_pixels)
            out[f"blobs/{name}/min{min_pixels}"] = digest(b.pixel_count, b.bbox, b.centroid, b.run_range, b.runs)
    return out


def database() -> Database:
    db = Database()
    for k in range(3):
        db = index_image(db, texture(70 + 10 * k), f"obj{k}", f"Object {k}", f"info {k}")
    return db


def queries() -> dict:
    """A view of obj0; the same view beside a view of obj1; noise."""
    right = warp_similarity(texture(80), -20.0, 0.9).pixels
    return {
        "view": view(),
        "pair": add_noise(RasterImage(np.concatenate([view().pixels, right], axis=1)), 2.0, seed=74),
        "noise": noise_image(224, 176, seed=75),
    }


def query_digests() -> dict:
    db = database()
    out = {}
    for name, img in queries().items():
        result, query = query_image(db, img, seed=3)
        parts = [result.best, result.associated_info, len(query.xy)]
        for c in result.ranked:
            v = c.verification
            model = v.model.h if v.model is not None else None
            parts += [c.object_id, c.match_count, c.matches, v.verified, v.inlier_indices]
            parts += [v.mean_reprojection_error.hex(), model]
        out[f"query/{name}"] = digest(*parts)
    return out


def cli_digests(workdir) -> dict:
    """Each command's exit code and output files, run in `workdir`."""
    write_ppm(texture(), workdir / "object0.ppm")
    write_ppm(texture(80), workdir / "object1.ppm")
    write_ppm(view(), workdir / "view.ppm")
    commands = {
        "extract": ("extract --input view.ppm --output f.json --overlay f.ppm", "f.json f.ppm"),
        "extract-octaves4-upright": ("extract --input object0.ppm --octaves 4 --upright --output g.json", "g.json"),
        "blobs": ("blobs --input view.ppm --threshold 120 --output b.json", "b.json"),
        "index-1": ("index --db db.json --input object0.ppm --id obj0 --name Object --info none", "db.json"),
        "index-2": ("index --db db.json --input object1.ppm --id obj1 --name Object1 --info appended", "db.json"),
        "query-annotate": ("query --db db.json --input view.ppm --seed 0 --output q.json --annotate q.ppm", "q.json q.ppm"),
        "annotate": ("annotate --input view.ppm --output a.ppm", "a.ppm"),
    }
    out = {}
    for name, (argv, outputs) in commands.items():
        # Every argument that names a file is relative to `workdir`.
        argv = [str(workdir / a) if a.endswith((".ppm", ".json")) else a for a in argv.split()]
        code = main(argv)
        out[f"cli/{name}"] = digest(code, *((workdir / o).read_bytes() for o in outputs.split()))
    return out


def assert_table(got: dict, prefix: str):
    want = {k: v for k, v in DIGESTS.items() if k.startswith(prefix)}
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not moved, f"digests moved under numpy {np.__version__} (table made with {NUMPY_VERSION}): {moved}"


def test_extraction_digests():
    assert_table(extraction_digests(), "extract/")


def test_blob_digests():
    assert_table(blob_digests(), "blobs/")


def test_query_digests():
    assert_table(query_digests(), "query/")


def test_cli_digests(tmp_path):
    assert_table(cli_digests(tmp_path), "cli/")


# numpy's dispatch groups above the x86-64 baseline: AVX2 (v3) and AVX-512.
SIMD_GROUPS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

CHILD = f"""
import json, sys, tempfile
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from test_digests import cli_digests, extraction_digests, query_digests
with tempfile.TemporaryDirectory() as tmp:
    table = extraction_digests() | query_digests() | cli_digests(Path(tmp))
on = [name for name in {SIMD_GROUPS!r} if __cpu_features__.get(name)]
json.dump({{"on": on, "table": table}}, sys.stdout)
"""


def run_child(workdir, **env) -> tuple[dict, str]:
    """CHILD's report and its stderr, run in `workdir` with `env` added to
    the environment."""
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, **env)
    run = subprocess.run([sys.executable, "-c", CHILD], cwd=workdir, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout), run.stderr


def test_digests_hold_under_numpy_baseline_kernels(tmp_path):
    """A child process with numpy's AVX2 and AVX-512 kernels switched off
    (NPY_DISABLE_CPU_FEATURES) reproduces the extraction, query and CLI
    digests.

    numpy accepts a name it does not know without complaint, so the child
    also reports that each of those groups is off.  Off x86-64 the names
    match no feature and the setting does nothing: the child then
    recomputes the table under numpy's usual kernels, like the tests above.
    """
    child, _ = run_child(tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(SIMD_GROUPS))
    assert child["on"] == [], f"NPY_DISABLE_CPU_FEATURES left these on: {child['on']}"
    want = {k: v for k, v in DIGESTS.items() if not k.startswith("blobs/")}
    moved = sorted(k for k in child["table"].keys() | want.keys() if child["table"].get(k) != want.get(k))
    assert not moved, f"digests moved under numpy {np.__version__}'s baseline kernels: {moved}"


def test_digests_hold_under_older_openblas_kernels(tmp_path):
    """A child process with OpenBLAS forced to its Prescott kernels
    (OPENBLAS_CORETYPE), and to its Haswell ones when the CPU has AVX2,
    reproduces every extraction, query and CLI digest.

    Only OpenBLAS's x86-64 builds read the variable; elsewhere, or under
    another BLAS, it does nothing and the child recomputes the table under
    the usual kernels.  The child runs with OPENBLAS_VERBOSE=2, so a
    failure names the core OpenBLAS took.
    """
    cores = ["Prescott"] + (["Haswell"] if __cpu_features__.get("AVX2") else [])
    want = {k: v for k, v in DIGESTS.items() if not k.startswith("blobs/")}
    for core in cores:
        child, log = run_child(tmp_path, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
        moved = sorted(k for k in want if child["table"].get(k) != want[k])
        assert not moved, f"digests moved under OPENBLAS_CORETYPE={core} ({log.strip()}): {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = extraction_digests() | blob_digests() | query_digests() | cli_digests(Path(tmp))
    print("DIGESTS = {")
    for key, value in table.items():
        print(f'    "{key}": "{value}",')
    print("}")

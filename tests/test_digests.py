"""Committed sha256 digests of the program's outputs on seeded inputs.

Each digest covers one output in full: every point field and descriptor
byte of `extract_features`, every array of `detect_blobs`, every part of a
`query_image` answer, and the bytes and exit code of each CLI command.  A
change that keeps outputs bit for bit leaves DIGESTS as it is.  A change
that moves outputs on purpose regenerates the table and names the digests
that moved; print the table of the current code with

    PYTHONPATH=src:tests python tests/test_digests.py

The bits rest on numpy and LAPACK (the stacked `solve` in refinement, the
`lstsq` of homography estimation).  The table was made with NUMPY_VERSION;
on another numpy, a mismatch is a finding about cross-platform
determinism, reported in the failure message.
"""

import hashlib

import numpy as np

from arfex.blobs import binarize, detect_blobs
from arfex.cli import main
from arfex.features import ExtractionConfig, extract_features
from arfex.image import RasterImage, to_grayscale
from arfex.image_io import write_ppm
from arfex.store import Database, index_image, query_image
from synthetic import add_noise, blob_texture, noise_image, warp_similarity

NUMPY_VERSION = "2.4.6"

DIGESTS = {
    "extract/texture/default": "2b3862f8b6b51f16a5df9c53a70bccdaf80d6f9160c1e0e4a6908a120e18ac65",
    "extract/texture/upright": "f2cf43e3ba630324823408e25bf19307dee99bbc91eda645920e753c38639bfc",
    "extract/texture/octaves1": "1aa7e1f05551ba7ec36959ce56dc7ba60c53f3612886eec176cf7eadf535711a",
    "extract/texture/octaves4": "13fe36f55df76d7fe0d9925d8df41600ca088a77a6810d3b301861ae805d1cef",
    "extract/view/default": "273fab1f1813d0a7c017168a097acb12f1be095828e4fdb955381aaadcb51825",
    "extract/view/upright": "b3b17f6e8dba92d1fc5233119f89e32baf0c0447579c1326c1597cf083f5967f",
    "extract/view/octaves1": "cbc1de1cb76b5eb6131ed82d9ab10ef85e472a23607f7ccab0f2a1804b04384f",
    "extract/view/octaves4": "d7c388e2588db751da8db4c5395bef2f13871e3062853945069e6203ab89bb84",
    "extract/noise/default": "8a4270449d4df1c16be1f80759076a9efd8bea4cc4935d7a2d89c43e6e8c910b",
    "extract/noise/upright": "ee090ee95c930215d9362fbdc490994a2c1561b5d261a9c0abd670d08dcced39",
    "extract/noise/octaves1": "2a40d9541f852a7f036806b60cfbe708975ca9b6cc76dc34d96526ba3efbcbe4",
    "extract/noise/octaves4": "bed1c7e4ac5188e989b125bbccfb924ffce45a4ef2164dda2034178e1d0fcd85",
    "blobs/texture/min1": "5a75cd1c48747d06809a7c2462a1922be0aea9b639489ea514a80ae6b90572b0",
    "blobs/texture/min60": "f5b464a1ab19ed8253cf6b2cb7775ab37ef53e811c9d74a0ab7182a80573dd05",
    "blobs/texture-black/min1": "812fe848375aeffb1e474519055012b7cb1e91a499c3ad5a486e4b4d267bbc30",
    "blobs/texture-black/min60": "7821bcfb75bc1806e535eaf7183c2a19c93d41d4994a3603cd7548b0c833988e",
    "blobs/random/min1": "474eb3daa296f7527de199cd6736aa18e6570ac4fdea4fb636128e7260139462",
    "blobs/random/min60": "2620c5c47ab5dff4aace4f73ac5ce8e1d4d9ad664d80dc1ec2dfdef51b5fd138",
    "query/view": "b6bcba511fb30628e6b7ff7f3a77dbfee0802c16428a72c32ee2b4a1ba9892f6",
    "query/pair": "70f439e21b1d2a00e5e5450ab57857e884268733eafcaf0c79e1c74a5648afdb",
    "query/noise": "db27a631745b1b9c4bba74250172086ffac24c43644a0f22fbaff982252c2996",
    "cli/extract": "0c662a7c00eff0bc8ad2ec0b0b4808ae5e308fd24bba529b687c9da5d3a89546",
    "cli/extract-octaves4-upright": "5f0b13ecc433ebae54f38f1874d6ac2e2e7a1d53f48b5d3a590c929024b283ae",
    "cli/blobs": "de7ed74ab00cbd14929d04307425c5d6ce67a5adc19bb73897d5df63fe4f10ae",
    "cli/index-1": "a341894f41a602c7f1865cf2755f9e0368018e75dd00f5f6ed85f9d06e7284ef",
    "cli/index-2": "3f520f6f3f9315f2f9325e08d6ec454bc9055a89a7a602ad307cd018ef4a534d",
    "cli/query-annotate": "86dc3df2830d827249233acd4b7f40e2b49be85f651cdb7b5913fee2a4b9a407",
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
        result, points = query_image(db, img, seed=3)
        parts = [result.best, result.associated_info, len(points)]
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


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        table = extraction_digests() | blob_digests() | query_digests() | cli_digests(Path(tmp))
    print("DIGESTS = {")
    for key, value in table.items():
        print(f'    "{key}": "{value}",')
    print("}")

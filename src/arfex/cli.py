"""Command-line surface: extract | blobs | index | query | annotate.

Machine-readable JSON goes to --output files; diagnostics go to stderr.
Exit codes: 0 success/recognized, 1 unrecognized, 2 I/O or unreadable
input, 3 invalid image or no features, 4 database constraint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import draw, image_io
from .blobs import binarize, detect_blobs
from .errors import (
    DuplicateId,
    ImageTooSmall,
    NoFeatures,
    ParseError,
    VersionMismatch,
)
from .features import ExtractionConfig, Features, extract_features
from .image import to_grayscale
from .store import (
    Database,
    UNRECOGNIZED,
    features_to_json,
    index_image,
    load_db,
    query_image,
    save_db,
)

EXIT_OK = 0
EXIT_UNRECOGNIZED = 1
EXIT_IO = 2
EXIT_BAD_IMAGE = 3
EXIT_DB_CONSTRAINT = 4

SEED_ENV_VAR = "ARFEX_SEED"


def _checked(convert, ok, rule: str):
    """An argparse type: `convert` the text, then require `ok` of the value."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type when `convert` fails
    return parse


_threshold_arg = _checked(float, lambda v: math.isfinite(v) and v >= 0, "threshold must be a finite number >= 0")
_octaves_arg = _checked(int, lambda v: 1 <= v <= 4, "octaves must be in [1, 4]")
_level_arg = _checked(int, lambda v: 0 <= v <= 255, "threshold must be in [0, 255]")
_ratio_arg = _checked(float, lambda v: 0.0 < v <= 1.0, "ratio must be in (0, 1]")
_seed_arg = _checked(int, lambda v: v >= 0, "seed must be >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arfex",
        description="Local-feature extraction, blob detection, and object recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="detect keypoints and write descriptor JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--overlay", help="also write a keypoint overlay image (PPM P6)")
    p.add_argument("--threshold", type=_threshold_arg, default=None)
    p.add_argument("--octaves", type=_octaves_arg, default=None)
    p.add_argument("--upright", action="store_true")

    p = sub.add_parser("blobs", help="binarize and report merged scanline blobs")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--threshold", type=_level_arg, default=128)
    p.add_argument("--polarity", choices=("white", "black"), default="white")
    p.add_argument("--min-pixels", type=int, default=1)

    p = sub.add_parser("index", help="add an object to a feature database")
    p.add_argument("--db", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--info", required=True, help="metadata text, or @file to read it")

    p = sub.add_parser("query", help="recognize an image against a database")
    p.add_argument("--db", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--annotate", help="write the query with inliers + object frame (PPM P6)")
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.add_argument("--ratio", type=_ratio_arg, default=0.7)

    p = sub.add_parser("annotate", help="write a keypoint overlay image only")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--threshold", type=_threshold_arg, default=None)
    p.add_argument("--octaves", type=_octaves_arg, default=None)
    p.add_argument("--upright", action="store_true")

    return parser


def _extraction_config(args) -> ExtractionConfig:
    """The config of the given flags, built so that its own checks run."""
    given = {"threshold": args.threshold, "octaves": args.octaves, "upright": args.upright}
    return ExtractionConfig(**{k: v for k, v in given.items() if v is not None})


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc) + "\n", encoding="ascii")


def cmd_extract(args) -> int:
    img = image_io.read_image(args.input)
    cfg = _extraction_config(args)
    points, descriptors = extract_features(img, cfg)
    features = features_to_json(Features.from_points(points, descriptors))
    doc = {"config": cfg.to_dict(), "points": features["keypoints"], "descriptors": features["descriptors"]}
    _write_json(args.output, doc)
    if args.overlay:
        image_io.write_ppm(draw.keypoint_overlay(img, points), args.overlay)
    return EXIT_OK


def cmd_blobs(args) -> int:
    img = image_io.read_image(args.input)
    mask = binarize(to_grayscale(img), args.threshold, args.polarity)
    blobs = detect_blobs(mask, min_pixels=args.min_pixels)
    doc = {
        "threshold": args.threshold,
        "polarity": args.polarity,
        "blobs": [
            {
                "count": b.pixel_count,
                "bbox": list(b.bbox),
                "centroid": list(b.centroid),
            }
            for b in blobs
        ],
    }
    _write_json(args.output, doc)
    return EXIT_OK


def cmd_index(args) -> int:
    db_path = Path(args.db)
    db = load_db(db_path) if db_path.exists() else Database()
    img = image_io.read_image(args.input)
    info = args.info
    if info.startswith("@"):
        try:
            info = Path(info[1:]).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{info[1:]}: info file is not UTF-8 text ({exc})") from exc
    db = index_image(db, img, args.id, args.name, info)
    save_db(db, db_path)
    return EXIT_OK


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return _seed_arg(env) if env else 0
    except (ValueError, argparse.ArgumentTypeError):
        raise ParseError(f"{SEED_ENV_VAR} must be an integer >= 0, got {env!r}") from None


def cmd_query(args) -> int:
    seed = _seed(args)
    db = load_db(args.db)
    img = image_io.read_image(args.input)
    result, query_points = query_image(db, img, args.ratio, seed)
    doc = {
        "best": result.best,
        "ranked": [
            {
                "id": c.object_id,
                "match_count": c.match_count,
                "verified": c.verification.verified,
                "inlier_count": len(c.verification.inlier_indices),
                "mean_reprojection_error": (
                    c.verification.mean_reprojection_error
                    if math.isfinite(c.verification.mean_reprojection_error)
                    else None
                ),
            }
            for c in result.ranked
        ],
    }
    if result.recognized:
        best = result.ranked[0]
        doc["associated_info"] = result.associated_info
        doc["homography"] = [float(v) for v in best.verification.model.h.ravel()]
        doc["inlier_indices"] = best.verification.inlier_indices
    _write_json(args.output, doc)
    if args.annotate:
        overlay = img
        if result.recognized:
            best = result.ranked[0]
            record = next(r for r in db.records if r.object_id == best.object_id)
            inliers = [query_points[q] for q in best.matches[best.verification.inlier_indices, 0].tolist()]
            overlay = draw.recognition_overlay(img, inliers, best.verification.model, record.image_size)
        image_io.write_ppm(overlay, args.annotate)
    return EXIT_OK if result.recognized else EXIT_UNRECOGNIZED


def cmd_annotate(args) -> int:
    img = image_io.read_image(args.input)
    cfg = _extraction_config(args)
    points, _ = extract_features(img, cfg)
    image_io.write_ppm(draw.keypoint_overlay(img, points), args.output)
    return EXIT_OK


_HANDLERS = {
    "extract": cmd_extract,
    "blobs": cmd_blobs,
    "index": cmd_index,
    "query": cmd_query,
    "annotate": cmd_annotate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ParseError) as exc:
        print(f"arfex: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ImageTooSmall, NoFeatures) as exc:
        print(f"arfex: {exc}", file=sys.stderr)
        return EXIT_BAD_IMAGE
    except (DuplicateId, VersionMismatch) as exc:
        print(f"arfex: {exc}", file=sys.stderr)
        return EXIT_DB_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())

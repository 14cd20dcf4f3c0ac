"""Object database and end-to-end query orchestration.

A Database is an immutable snapshot: indexing returns a new snapshot,
queries never mutate.  Persistence is a single versioned JSON document;
floats survive the round trip exactly.

A query builds its match arrays from the records it is given: every
record's descriptors as one `matching.TargetSet` and the keypoints as one
(M, 2) xy array, in record order.  They live only for that query, so a
snapshot holds no state besides its records, and indexing or saving never
pays for them.  Building them takes O(M) against the O(N * M) screen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DuplicateId, InsufficientMatches, NoFeatures, ParseError, VersionMismatch
from .features import DESCRIPTOR_LENGTH, Descriptor, ExtractionConfig, InterestPoint, extract_features
from .geometry import VerificationResult, ransac_verify
from .image import RasterImage
from .matching import Match, TargetSet, descriptor_arrays, match_sets

DB_VERSION = 1
UNRECOGNIZED = "unrecognized"


@dataclass
class ObjectRecord:
    """Indexed object: features plus the associated display metadata."""

    object_id: str
    name: str
    info: str
    image_size: tuple[int, int]  # (width, height)
    keypoints: list[InterestPoint]
    descriptors: list[Descriptor]


@dataclass
class Database:
    extraction_config: ExtractionConfig = field(default_factory=ExtractionConfig)
    records: list[ObjectRecord] = field(default_factory=list)


@dataclass
class RankedCandidate:
    """Per-record query outcome; `matches` are kept for overlay drawing."""

    object_id: str
    match_count: int
    verification: VerificationResult
    matches: list[Match] = field(default_factory=list)


@dataclass
class QueryResult:
    ranked: list[RankedCandidate]
    best: str  # object id, or UNRECOGNIZED
    associated_info: Optional[dict] = None  # {"name":…, "info":…} of best

    @property
    def recognized(self) -> bool:
        return self.best != UNRECOGNIZED


def index_image(db: Database, img: RasterImage, object_id: str, name: str, info: str) -> Database:
    """Extract features under the database's config and append a record.

    Returns a new Database snapshot; the input is unchanged.
    """
    if any(r.object_id == object_id for r in db.records):
        raise DuplicateId(f"object id {object_id!r} already indexed")
    points, descriptors = extract_features(img, db.extraction_config)
    if not points:
        raise NoFeatures(f"image for {object_id!r} produced no interest points")
    record = ObjectRecord(
        object_id=object_id,
        name=name,
        info=info,
        image_size=(img.width, img.height),
        keypoints=points,
        descriptors=descriptors,
    )
    return Database(extraction_config=db.extraction_config, records=[*db.records, record])


def query_image(
    db: Database,
    img: RasterImage,
    ratio: float = 0.7,
    seed: int = 0,
) -> tuple[QueryResult, list[InterestPoint]]:
    """Match the query against every record and rank verified candidates.

    `ratio` is the matcher's ratio test and `seed` seeds each record's
    RANSAC.  Query extraction is forced to the database's extraction_config.
    Ranking: verified desc, inlier count desc, match count desc, id asc.
    Returns the result plus the query's interest points (for overlay drawing).
    """
    points, descriptors = extract_features(img, db.extraction_config)
    if not points:
        raise NoFeatures("query image produced no interest points")
    targets = TargetSet.build([r.descriptors for r in db.records])
    keypoint_xy = _xy([p for r in db.records for p in r.keypoints])
    matched, query, target, dist = match_sets(*descriptor_arrays(descriptors), targets, ratio)
    bounds = np.searchsorted(matched, np.arange(len(db.records) + 1))  # each record's rows
    query_xy = _xy(points)
    ranked: list[RankedCandidate] = []
    for r, rec in enumerate(db.records):
        qi, tj, d = (a[bounds[r] : bounds[r + 1]] for a in (query, target, dist))
        matches = list(map(Match, qi.tolist(), (tj - targets.offsets[r]).tolist(), d.tolist()))
        try:
            verification = ransac_verify(keypoint_xy[tj], query_xy[qi], seed)
        except InsufficientMatches:
            verification = VerificationResult(None, [], math.inf, False)
        ranked.append(
            RankedCandidate(
                object_id=rec.object_id,
                match_count=len(matches),
                verification=verification,
                matches=matches,
            )
        )
    ranked.sort(
        key=lambda c: (
            not c.verification.verified,
            -len(c.verification.inlier_indices),
            -c.match_count,
            c.object_id,
        )
    )
    best = UNRECOGNIZED
    info = None
    for cand in ranked:
        if cand.verification.verified:
            best = cand.object_id
            rec = next(r for r in db.records if r.object_id == best)
            info = {"name": rec.name, "info": rec.info}
            break
    return QueryResult(ranked=ranked, best=best, associated_info=info), points


def _xy(points: list[InterestPoint]) -> np.ndarray:
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)


# --- persistence --------------------------------------------------------

_POINT_FLOATS = ("x", "y", "scale", "response", "orientation")


def point_to_json(p: InterestPoint) -> dict:
    """The JSON form of an interest point, in databases and `arfex extract` output."""
    return {
        "x": p.x,
        "y": p.y,
        "scale": p.scale,
        "orientation": p.orientation,
        "laplacian": p.laplacian_sign,
        "response": p.response,
    }


def _typed(d: dict, key: str, *types: type):
    """d[key] if it is exactly one of `types`: a bool is not an int here."""
    value = d[key]
    if type(value) not in types:
        raise ParseError(f"{key!r} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _point_from_json(d: dict) -> InterestPoint:
    values = [float(_typed(d, k, int, float)) for k in _POINT_FLOATS]
    if not all(map(math.isfinite, values)):
        raise ParseError(f"keypoint has a non-finite field: {d!r}")
    x, y, scale, response, orientation = values
    laplacian = _typed(d, "laplacian", int, float)
    if laplacian not in (1, -1):
        raise ParseError(f"keypoint laplacian must be 1 or -1, got {laplacian!r}")
    return InterestPoint(x, y, scale, response, int(laplacian), orientation)


def _record_from_json(obj: dict) -> ObjectRecord:
    object_id, name, info = (_typed(obj, k, str) for k in ("id", "name", "info"))
    size = _typed(obj, "image_size", list)
    if len(size) != 2 or not all(type(v) is int and v >= 1 for v in size):
        raise ParseError(f"object {object_id!r}: image_size must be two integers >= 1, got {size!r}")
    keypoints = [_point_from_json(p) for p in obj["keypoints"]]
    if not keypoints or len(keypoints) != len(obj["descriptors"]):
        raise ParseError(f"object {object_id!r} has mismatched or empty features")
    # Element types are read before np.asarray, which would turn a JSON true into 1.0.
    types = set(map(type, chain.from_iterable(obj["descriptors"])))
    rows = np.asarray(obj["descriptors"])
    if not types <= {int, float} or rows.shape != (len(keypoints), DESCRIPTOR_LENGTH) or rows.dtype.kind not in "fi":
        raise ParseError(f"object {object_id!r}: descriptors must be {DESCRIPTOR_LENGTH} numbers each")
    rows = rows.astype(np.float64, copy=False)
    if not np.isfinite(rows).all():
        raise ParseError(f"object {object_id!r} has a non-finite descriptor component")
    return ObjectRecord(
        object_id=object_id,
        name=name,
        info=info,
        image_size=tuple(size),
        keypoints=keypoints,
        descriptors=[Descriptor(components=c, laplacian_sign=p.laplacian_sign) for c, p in zip(rows, keypoints)],
    )


def db_to_json(db: Database) -> dict:
    return {
        "version": DB_VERSION,
        "extraction_config": db.extraction_config.to_dict(),
        "objects": [
            {
                "id": r.object_id,
                "name": r.name,
                "info": r.info,
                "image_size": list(r.image_size),
                "keypoints": [point_to_json(p) for p in r.keypoints],
                "descriptors": [d.components.tolist() for d in r.descriptors],
            }
            for r in db.records
        ],
    }


def db_from_json(doc: dict) -> Database:
    """Validate a database document and build its snapshot.

    Any missing, malformed, non-finite or out-of-range value raises
    ParseError; an unsupported version raises VersionMismatch.  Unknown
    extraction_config keys are ignored.
    """
    try:
        version = doc["version"]
        if version != DB_VERSION:
            raise VersionMismatch(f"unsupported database version {version}")
        config = ExtractionConfig.from_dict(doc["extraction_config"])
        records = [_record_from_json(obj) for obj in doc["objects"]]
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed database document: {exc}") from exc
    seen = set()
    for r in records:
        if r.object_id in seen:
            raise ParseError(f"duplicate object id {r.object_id!r} in database document")
        seen.add(r.object_id)
    return Database(extraction_config=config, records=records)


def save_db(db: Database, path) -> None:
    text = json.dumps(db_to_json(db)) + "\n"
    Path(path).write_text(text, encoding="ascii")


def load_db(path) -> Database:
    try:
        doc = json.loads(Path(path).read_text(encoding="ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting recurses
        raise ParseError(f"{path}: {exc}") from exc
    return db_from_json(doc)

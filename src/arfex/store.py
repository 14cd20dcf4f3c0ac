"""Object database and end-to-end query orchestration.

A Database is an immutable snapshot: indexing returns a new snapshot,
queries never mutate.  Persistence is a single versioned JSON document;
floats survive the round trip exactly.

`arfex index` (`index_file`) appends in place.  A file in `save_db`'s form
gets only the new record encoded, written over the file's closing `]}\n`,
so saving costs O(record) while loading still parses the whole file.  A
missing file, or one in any other form, is written whole by `save_db`.
Either way the bytes equal `save_db` of the new snapshot for a file that
`save_db` wrote.

A record holds its features as one read-only `features.Features` table,
written by `features_to_json` (also used by `arfex extract`) and read back
by one validator.  A query concatenates the records' `desc` and `sign`
into one `matching.TargetSet`, and their `xy` into one (M, 2) array, in
record order.  These live only for that query, so a snapshot holds no state
besides its records.  Building them takes O(M) against the O(N * M) screen.

Verification floor.  A record verifies only with at least
`geometry.default_min_inliers(n)` inliers among its n matches, so a record
with fewer than that many matches (n < 8) cannot verify, and `query_image`
runs no RANSAC on it: it reports no model, no inliers and an infinite mean
error, the result `ransac_verify` gives when no sample yields a model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import DuplicateId, NoFeatures, ParseError, VersionMismatch
from .features import DESCRIPTOR_LENGTH, ExtractionConfig, Features, _extract
from .geometry import VerificationResult, default_min_inliers, ransac_verify
from .image import RasterImage
from .matching import TargetSet, match_sets

DB_VERSION = 1
UNRECOGNIZED = "unrecognized"


@dataclass
class ObjectRecord:
    """Indexed object: features plus the associated display metadata."""

    object_id: str
    name: str
    info: str
    image_size: tuple[int, int]  # (width, height)
    features: Features


@dataclass
class Database:
    extraction_config: ExtractionConfig = field(default_factory=ExtractionConfig)
    records: list[ObjectRecord] = field(default_factory=list)


@dataclass
class RankedCandidate:
    """Per-record query outcome.  `matches`, kept for overlay drawing, is a
    (match_count, 2) intp array of (query row, record row) pairs in match
    order, which `verification.inlier_indices` index."""

    object_id: str
    match_count: int
    verification: VerificationResult
    matches: np.ndarray


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
    features = _extract(img, db.extraction_config)
    if not len(features.xy):
        raise NoFeatures(f"image for {object_id!r} produced no interest points")
    record = ObjectRecord(object_id, name, info, (img.width, img.height), features)
    return Database(extraction_config=db.extraction_config, records=[*db.records, record])


def query_image(
    db: Database,
    img: RasterImage,
    ratio: float = 0.7,
    seed: int = 0,
) -> tuple[QueryResult, Features]:
    """Match the query against every record and rank verified candidates.

    `ratio` is the matcher's ratio test and `seed`, an int >= 0, seeds each
    record's RANSAC; any other seed raises ValueError before extraction.
    Query extraction is forced to the database's extraction_config.
    A record with fewer matches than `default_min_inliers` of its match
    count (fewer than 8) gets no RANSAC, since it cannot verify; it reports
    no model, no inliers and an infinite mean error.
    Ranking: verified desc, inlier count desc, match count desc, id asc.
    Returns the result plus the query's features (for overlay drawing).
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    query = _extract(img, db.extraction_config)
    if not len(query.xy):
        raise NoFeatures("query image produced no interest points")
    targets = TargetSet.build([r.features for r in db.records])
    keypoint_xy = np.concatenate([np.zeros((0, 2)), *(r.features.xy for r in db.records)])
    matched, qrow, trow, _ = match_sets(query.desc, query.sign, targets, ratio)
    bounds = np.searchsorted(matched, np.arange(len(db.records) + 1))  # each record's rows
    ranked: list[RankedCandidate] = []
    for r, rec in enumerate(db.records):
        qi, tj = qrow[bounds[r] : bounds[r + 1]], trow[bounds[r] : bounds[r + 1]]
        verification = VerificationResult(None, [], math.inf, False)
        if len(qi) >= default_min_inliers(len(qi)):  # below the floor no consensus can verify
            verification = ransac_verify(keypoint_xy[tj], query.xy[qi], seed)
        ranked.append(RankedCandidate(rec.object_id, len(qi), verification, np.stack([qi, tj - targets.offsets[r]], 1)))
    ranked.sort(
        key=lambda c: (
            not c.verification.verified,
            -len(c.verification.inlier_indices),
            -c.match_count,
            c.object_id,
        )
    )
    verified = [c.object_id for c in ranked if c.verification.verified]
    best = verified[0] if verified else UNRECOGNIZED
    info = next({"name": r.name, "info": r.info} for r in db.records if r.object_id == best) if verified else None
    return QueryResult(ranked=ranked, best=best, associated_info=info), query


# --- persistence --------------------------------------------------------

KEYPOINT_KEYS = ("x", "y", "scale", "orientation", "laplacian", "response")  # in written order
MAX_IMAGE_SIDE = 2**31 - 1  # PNG's own limit on a side


def features_to_json(f: Features) -> dict:
    """The JSON form of a features table, in databases and `arfex extract`
    output: one dict per keypoint, keyed by KEYPOINT_KEYS, and one list of
    numbers per descriptor row."""
    columns = (f.xy[:, 0], f.xy[:, 1], f.scale, f.orientation, f.sign, f.response)
    rows = zip(*(c.tolist() for c in columns))
    return {
        "keypoints": [dict(zip(KEYPOINT_KEYS, row)) for row in rows],
        "descriptors": f.desc.tolist(),
    }


def _typed(d: dict, key: str, *types: type):
    """d[key] if it is exactly one of `types`: a bool is not an int here."""
    value = d[key]
    if type(value) not in types:
        raise ParseError(f"{key!r} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _numeric_rows(rows: list, width: int, what: str) -> np.ndarray:
    """`rows` as an (n, width) float64 array, n >= 1, every element a finite
    JSON number.  A number is an int or a float, not a bool; it is read as
    the nearest float64, so an int past the float range is refused."""
    # Element types are read before np.array, which would turn a JSON true into 1.0.
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise ParseError(f"{what} must be JSON numbers")
    array = np.array(rows, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] != width or not len(array):
        raise ParseError(f"{what} must be one or more rows of {width} numbers each")
    if not np.isfinite(array).all():
        raise ParseError(f"{what} has a non-finite value")
    return array


def _features_from_json(obj: dict, object_id: str) -> Features:
    """The one validator of a record's `keypoints` and `descriptors`;
    `Features` refuses unequal row counts."""
    keypoints = _numeric_rows(
        [[p[k] for k in KEYPOINT_KEYS] for p in obj["keypoints"]], len(KEYPOINT_KEYS), f"object {object_id!r} keypoints"
    )
    desc = _numeric_rows(obj["descriptors"], DESCRIPTOR_LENGTH, f"object {object_id!r} descriptors")
    scale, orientation, sign, response = keypoints[:, 2:].T
    if not (np.abs(sign) == 1.0).all():
        raise ParseError(f"object {object_id!r}: keypoint laplacian must be 1 or -1")
    return Features(keypoints[:, :2], scale, response, orientation, sign, desc)


def _record_from_json(obj: dict) -> ObjectRecord:
    object_id, name, info = (_typed(obj, k, str) for k in ("id", "name", "info"))
    size = _typed(obj, "image_size", list)
    if len(size) != 2 or not all(type(v) is int and 1 <= v <= MAX_IMAGE_SIDE for v in size):
        raise ParseError(
            f"object {object_id!r}: image_size must be two integers in [1, {MAX_IMAGE_SIDE}], got {size!r}"
        )
    return ObjectRecord(
        object_id=object_id,
        name=name,
        info=info,
        image_size=tuple(size),
        features=_features_from_json(obj, object_id),
    )


def _record_to_json(r: ObjectRecord) -> dict:
    return {
        "id": r.object_id,
        "name": r.name,
        "info": r.info,
        "image_size": list(r.image_size),
        **features_to_json(r.features),
    }


def db_to_json(db: Database) -> dict:
    return {
        "version": DB_VERSION,
        "extraction_config": db.extraction_config.to_dict(),
        "objects": [_record_to_json(r) for r in db.records],
    }


def db_from_json(doc: dict) -> Database:
    """Validate a database document and build its snapshot.

    Any missing, malformed, non-finite or out-of-range value raises
    ParseError; an unsupported version raises VersionMismatch.  Unknown
    extraction_config keys are ignored.
    """
    try:
        version = doc["version"]
        if type(version) is not int or version != DB_VERSION:  # true and 1.0 are not 1 here
            raise VersionMismatch(f"unsupported database version {version!r}")
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
    return _read_db(path)[0]


# save_db's text is _HEAD, the config, _OBJECTS, the records joined by ", ", then _TAIL.
_HEAD = f'{{"version": {DB_VERSION}, "extraction_config": '
_OBJECTS = ', "objects": ['
_TAIL = "]}\n"
_DECODER = json.JSONDecoder()


def _read_db(path) -> tuple[Database, Optional[int]]:
    """load_db, plus the offset of the file's closing `]}\n` if the file is
    in save_db's form, else None: one object of exactly the three keys, in
    save_db's spelling up to the `objects` array, which closes at that
    offset.  The text is dropped before the document is validated."""
    try:
        doc, frame = _parse(Path(path).read_text(encoding="ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting recurses
        raise ParseError(f"{path}: {exc}") from exc
    db = db_from_json(doc)
    if frame is None or frame[0] != json.dumps(db.extraction_config.to_dict()):
        return db, None
    return db, frame[1]


def _parse(text: str) -> tuple[object, Optional[tuple[str, int]]]:
    """json.loads(text), plus (the config's text, the offset of the closing
    `]}\n`) if the text is _HEAD, an object, _OBJECTS, the rest of an array,
    then _TAIL: a document of exactly those three keys.  Anything else is
    parsed by json.loads, with None for the pair."""
    try:
        if text.startswith(_HEAD):
            config, end = _DECODER.raw_decode(text, len(_HEAD))
            config_text = text[len(_HEAD) : end]
            if text.startswith(_OBJECTS, end):
                objects, end = _DECODER.raw_decode(text, end + len(_OBJECTS) - 1)
                tail = len(text) - len(_TAIL)
                if text.endswith(_TAIL) and end == tail + 1:  # the array's `]` is the tail's
                    doc = {"version": DB_VERSION, "extraction_config": config, "objects": objects}
                    return doc, (config_text, tail)
    except (ValueError, RecursionError):  # json.loads raises it again, as for any other text
        pass
    return json.loads(text), None


def index_file(path, read_input: Callable[[], tuple[RasterImage, str]], object_id: str, name: str) -> Database:
    """`arfex index`: add one record to the database file at `path`.

    In order: load the file (a missing one is an empty database), call
    `read_input()` for the image and the info text, index them with
    `index_image`, then write.  A file in save_db's form (`_read_db`) is
    appended in place, encoding only the new record; any other file is
    written whole by save_db.  Nothing is written if a step raises.
    Returns the new snapshot.
    """
    path = Path(path)
    db, tail = _read_db(path) if path.exists() else (Database(), None)
    img, info = read_input()
    new = index_image(db, img, object_id, name, info)
    if tail is None:
        save_db(new, path)
        return new
    record = json.dumps(_record_to_json(new.records[-1]))
    with open(path, "r+b") as f:
        f.seek(tail)  # the write covers the old tail, so the file only grows
        f.write(((", " if db.records else "") + record + _TAIL).encode("ascii"))
    return new

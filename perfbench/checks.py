"""Output checks, computed apart from the program.

Each check takes plain arrays or values and returns a list of problems,
empty when the output is right.  The references are the generator's
ground truth, `scipy.ndimage.label` and direct formulas; none of them
calls `arfex`.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.ndimage

# At least this share of a frame's isolated bumps has a keypoint within
# BUMP_RADIUS pixels of its centre.
BUMP_RECALL = 0.75
BUMP_RADIUS = 3.0
# The verified homography maps the object's bump centres to where the
# generator's similarity put them, with a median error of at most this many
# pixels.  The median, not the largest error: a homography verified on a
# cluster of inliers can drift far from them and still be right for the
# object.
HOMOGRAPHY_TOL = 3.0
CENTROID_TOL = 1e-9
NORM_TOL = 1e-9


def check_pixels(decoded: np.ndarray, encoded: np.ndarray) -> list[str]:
    """The decoded (h, w, 3) raster equals the encoded gray or RGB array."""
    want = encoded if encoded.ndim == 3 else np.repeat(encoded[:, :, None], 3, axis=2)
    if decoded.shape != want.shape:
        return [f"decoded shape {decoded.shape}, encoded {want.shape}"]
    wrong = int(np.count_nonzero(decoded != want))
    return [f"{wrong} decoded samples differ from the encoded image"] if wrong else []


def luminance(pixels: np.ndarray) -> np.ndarray:
    """BT.601 levels, round half up: the rule the program documents."""
    if pixels.ndim == 2:
        return pixels
    rgb = pixels.astype(np.float64)
    lum = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    return np.clip(np.floor(lum + 0.5), 0, 255).astype(np.uint8)


def blob_table(mask: np.ndarray) -> np.ndarray:
    """(n, 7) rows of pixel count, x_min, y_min, x_max, y_max, centroid x, y
    for the 4-connected components of `mask`."""
    labels, n = scipy.ndimage.label(mask)
    if n == 0:
        return np.zeros((0, 7))
    flat = labels.ravel()
    ys, xs = np.divmod(np.arange(flat.size), mask.shape[1])
    count = np.bincount(flat, minlength=n + 1)[1:]
    cx = np.bincount(flat, weights=xs, minlength=n + 1)[1:] / count
    cy = np.bincount(flat, weights=ys, minlength=n + 1)[1:] / count
    boxes = np.array([(s[1].start, s[0].start, s[1].stop - 1, s[0].stop - 1) for s in scipy.ndimage.find_objects(labels)])
    return np.column_stack([count, boxes, cx, cy]).astype(np.float64)


def _sorted_rows(table: np.ndarray) -> np.ndarray:
    return table[np.lexsort(table.T[::-1])] if len(table) else table


def check_blobs(got: np.ndarray, mask: np.ndarray) -> list[str]:
    """`got` rows (as in `blob_table`) equal the components of `mask`:
    count, bbox and pixel count exactly, centroid within CENTROID_TOL."""
    want = blob_table(mask)
    got = np.asarray(got, dtype=np.float64).reshape(-1, 7)
    if len(got) != len(want):
        return [f"{len(got)} blobs, 4-connected labelling gives {len(want)}"]
    got, want = _sorted_rows(got), _sorted_rows(want)
    problems = []
    if not np.array_equal(got[:, :5], want[:, :5]):
        problems.append("blob pixel counts or bounding boxes differ from the labelling")
    elif np.abs(got[:, 5:] - want[:, 5:]).max(initial=0.0) > CENTROID_TOL:
        problems.append("blob centroids differ from the labelling")
    return problems


def check_keypoints(
    xy: np.ndarray,
    signs: np.ndarray,
    orientation: np.ndarray,
    response: np.ndarray,
    desc: np.ndarray,
    desc_signs: np.ndarray,
    width: int,
    height: int,
) -> list[str]:
    """Positions inside the image, signs +-1, orientations in [0, 2 pi),
    descending responses, 64-d descriptors of norm 1 or all zero."""
    problems = []
    n = len(xy)
    if n and not ((xy[:, 0] >= 0) & (xy[:, 0] <= width - 1) & (xy[:, 1] >= 0) & (xy[:, 1] <= height - 1)).all():
        problems.append("keypoint outside the image")
    if not np.isin(signs, (-1, 1)).all():
        problems.append("Laplacian sign other than +-1")
    if not ((orientation >= 0.0) & (orientation < 2.0 * math.pi)).all():
        problems.append("orientation outside [0, 2 pi)")
    if (np.diff(response) > 0).any():
        problems.append("keypoints not sorted by descending response")
    if desc.shape != (n, 64):
        problems.append(f"descriptor array of shape {desc.shape} for {n} keypoints")
    else:
        norm = np.linalg.norm(desc, axis=1)
        zero = ~desc.any(axis=1)
        if not (zero | (np.abs(norm - 1.0) <= NORM_TOL)).all():
            problems.append("descriptor neither unit norm nor all zero")
        if not np.array_equal(desc_signs, signs):
            problems.append("descriptor sign differs from its keypoint's")
    return problems


def bump_recall(xy: np.ndarray, bumps: np.ndarray) -> float:
    """Share of bumps with a keypoint within BUMP_RADIUS of the centre."""
    if len(bumps) == 0:
        return 1.0
    if len(xy) == 0:
        return 0.0
    d = np.hypot(xy[:, None, 0] - bumps[None, :, 0], xy[:, None, 1] - bumps[None, :, 1]).min(axis=0)
    return float((d <= BUMP_RADIUS).mean())


def check_recall(xy: np.ndarray, bumps: np.ndarray) -> list[str]:
    recall = bump_recall(xy, bumps)
    return [] if recall >= BUMP_RECALL else [f"bump recall {recall:.3f} below {BUMP_RECALL}"]


def homography_error(h: np.ndarray, points: np.ndarray, truth: np.ndarray) -> float:
    """Median distance between h(points) and truth, the true images of points."""
    p = np.column_stack([points, np.ones(len(points))]) @ np.asarray(h, dtype=np.float64).T
    return float(np.median(np.hypot(*(p[:, :2] / p[:, 2:] - truth).T)))


def check_view(best: str, info, h, want_id: str, want_info: dict, points: np.ndarray, truth: np.ndarray) -> list[str]:
    """A view of an indexed object: its id, its name and info, and a
    homography that maps `points` to within HOMOGRAPHY_TOL of `truth`, at the median."""
    if best != want_id:
        return [f"view of {want_id} answered {best}"]
    if info != want_info:
        return [f"view of {want_id} returned info {info!r}"]
    err = homography_error(h, points, truth)
    return [] if err <= HOMOGRAPHY_TOL else [f"view of {want_id}: homography off by {err:.2f} px"]


def check_negative(best: str, info, unrecognized: str) -> list[str]:
    if best != unrecognized or info is not None:
        return [f"never-indexed frame answered {best}"]
    return []


def check_catalog(data: bytes, want: list[tuple[str, str, str]]) -> list[str]:
    """The database file holds exactly `want` (id, name, info), in order,
    each with matching non-empty keypoint and 64-d descriptor lists."""
    objects = json.loads(data)["objects"]
    got = [(o["id"], o["name"], o["info"]) for o in objects]
    if got != want:
        return [f"catalog holds {len(got)} records, not the {len(want)} indexed, in order"]
    for o in objects:
        if not o["keypoints"] or len(o["keypoints"]) != len(o["descriptors"]):
            return [f"record {o['id']} has mismatched or empty features"]
        if any(len(d) != 64 for d in o["descriptors"]):
            return [f"record {o['id']} has a descriptor that is not 64-d"]
    return []

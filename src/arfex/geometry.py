"""Planar homography estimation and RANSAC geometric verification.

The model is a planar homography fit by DLT on the 8-unknown system
(h33 = 1), with coordinates pre-scaled toward [0, 1] to bound conditioning
(Hartley & Zisserman, *Multiple View Geometry*, 4.1); no BLAS or LAPACK
kernel sets a model's bits.  RANSAC (Fischler & Bolles, CACM 1981) draws
4-point samples, adapts its iteration count to the best consensus so far,
and polishes the winner with bounded least-squares refits.

Degeneracy rule.  A final model is verified only if, besides reaching the
inlier count, it maps the object as a camera can: the local Jacobian J(p)
of the model keeps orientation at every inlier p, and at the inliers'
centroid its singular values differ by a factor of at most MAX_ANISOTROPY.
With h33 = 1, A = h[:2, :2], v = h[2, :2] and w(p) = v.p + 1, the Jacobian
is J(p) = (A - H(p) v^T) / w(p) and det J(p) = det H / w(p)^3, so the
orientation test is det H > 0 and w > 0 at every inlier (no inlier lies
beyond the model's line at infinity).  Then w > 0 at the inliers' centroid
c too, so det H > 0 is det J(c) > 0.  The singular values s0 >= s1 of J(c)
have s0^2 + s1^2 = |J|_F^2 and s0 s1 = |det J|, so s0 <= K s1 is
|J|_F^2 <= (K + 1/K) det J, with K = MAX_ANISOTROPY.  The upper-left block
A alone is the Jacobian only at the origin of an affine model; under
perspective it depends on where the object sits in the frame.  A camera
view of a planar object stretches it far less than MAX_ANISOTROPY (over 192
true views of the benchmark's query workload the ratio stayed below 1.03);
a model that folds or flattens the object instead fits a handful of
clustered matches by chance, as when a never-indexed texture got 8 inliers
under a model with ratio 382.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateConfiguration, PointAtInfinity, SingularSystem

_COLLINEAR_TOL = 1e-9
_DENOM_TOL = 1e-12
_PIVOT_TOL = 1e-10  # of a pivot's diagonal entry; see estimate_homography

SAMPLE_SIZE = 4  # pairs in a minimal homography sample
MAX_ITERATIONS = 2000
CONFIDENCE = 0.99  # chance of drawing one all-inlier sample, for the adaptive stop
INLIER_THRESHOLD = 3.0  # reprojection error in pixels
MAX_ANISOTROPY = 10.0  # largest singular-value ratio of a verified model's Jacobian


@dataclass(eq=False)
class Homography:
    """3x3 projective map, normalized so h[2, 2] = 1."""

    h: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.h, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"expected 3x3 matrix, got {m.shape}")
        self.h = m


@dataclass
class VerificationResult:
    """model is present iff verified; inliers satisfy the threshold under it."""

    model: Optional[Homography]
    inlier_indices: list[int]
    mean_reprojection_error: float
    verified: bool


def project_point(hom: Homography, p) -> tuple[float, float]:
    """Projective mapping with division by the third coordinate."""
    x, y = float(p[0]), float(p[1])
    h = hom.h
    den = h[2, 0] * x + h[2, 1] * y + h[2, 2]
    if abs(den) <= _DENOM_TOL:
        raise PointAtInfinity(f"denominator {den!r} at ({x}, {y})")
    px = (h[0, 0] * x + h[0, 1] * y + h[0, 2]) / den
    py = (h[1, 0] * x + h[1, 1] * y + h[1, 2]) / den
    return px, py


def _as_points(a) -> np.ndarray:
    pts = np.asarray(a, dtype=np.float64).reshape(-1, 2)
    return pts


def _check_collinear(src: np.ndarray) -> None:
    # Python floats give numpy's IEEE results without its overflow warnings:
    # an inf or NaN area is not collinear either way.
    pts = src.tolist()
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ax, ay = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
                bx, by = pts[k][0] - pts[i][0], pts[k][1] - pts[i][1]
                if abs(ax * by - ay * bx) <= _COLLINEAR_TOL:
                    raise DegenerateConfiguration(
                        f"source points {i}, {j}, {k} are collinear or duplicated"
                    )


def estimate_homography(src, dst) -> Homography:
    """DLT: least squares on the scaled 8-unknown system (h33 = 1).

    One Gauss-Jordan elimination of its normal equations, in elementwise
    numpy and a fixed order, serves 4 pairs and more; they are positive
    semi-definite, so no row is exchanged.  Pivot k is the squared distance
    of column k from the span of the columns before it.  At or below
    _PIVOT_TOL of the column's squared norm (rounding leaves exactly
    dependent columns near 1e-14) the system is rank deficient: that, a
    model that is not invertible and one that overflows raise SingularSystem.
    Source collinearity is checked (area test, 1e-9) for 4 pairs.
    """
    src = _as_points(src)
    dst = _as_points(dst)
    if len(src) != len(dst) or len(src) < 4:
        raise DegenerateConfiguration(f"need >= 4 pairs, got {len(src)}/{len(dst)}")
    if len(src) == 4:
        _check_collinear(src)
    s_src = max(float(np.max(np.abs(src))), _DENOM_TOL)
    s_dst = max(float(np.max(np.abs(dst))), _DENOM_TOL)
    sn = src / s_src
    dn = dst / s_dst
    n = len(sn)
    a = np.zeros((2 * n, 9))  # the system's 8 columns, then its right-hand side
    a[0::2, 0] = sn[:, 0]
    a[0::2, 1] = sn[:, 1]
    a[0::2, 2] = 1.0
    a[0::2, 6] = -sn[:, 0] * dn[:, 0]
    a[0::2, 7] = -sn[:, 1] * dn[:, 0]
    a[0::2, 8] = dn[:, 0]
    a[1::2, 3] = sn[:, 0]
    a[1::2, 4] = sn[:, 1]
    a[1::2, 5] = 1.0
    a[1::2, 6] = -sn[:, 0] * dn[:, 1]
    a[1::2, 7] = -sn[:, 1] * dn[:, 1]
    a[1::2, 8] = dn[:, 1]
    aug = np.einsum("ki,kj->ij", a[:, :8], a)  # the normal equations, augmented
    floor = _PIVOT_TOL * aug.diagonal()
    for k in range(8):
        pivot = aug[k, k]
        if not pivot > floor[k]:
            raise SingularSystem(f"pivot {k} is {float(pivot)!r}, at or below {_PIVOT_TOL} of its diagonal")
        row = aug[k] / pivot
        aug -= aug[:, k : k + 1] * row
        aug[k] = row
    hn = np.append(aug[:, 8], 1.0).reshape(3, 3)
    # det H from the scaled model's, in Python floats: no overflow warning, and NaN fails.
    (h11, h12, h13), (h21, h22, h23), (h31, h32, _) = hn.tolist()
    det = h11 * (h22 - h23 * h32) - h12 * (h21 - h23 * h31) + h13 * (h21 * h32 - h22 * h31)
    ratio = s_dst / s_src
    if not abs(det * ratio * ratio) > _DENOM_TOL:
        raise SingularSystem("estimated matrix is not invertible")
    with np.errstate(over="ignore"):
        h = hn * np.array([[s_dst], [s_dst], [1.0]]) * np.array([1.0 / s_src, 1.0 / s_src, 1.0])
    if not np.isfinite(h).all():
        raise SingularSystem("estimated matrix overflows float64")
    return Homography(h)


def reprojection_errors(hom: Homography, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Euclidean distance between projected src and dst; inf where the
    projective denominator underflows or the arithmetic overflows."""
    src = _as_points(src)
    dst = _as_points(dst)
    h = hom.h
    with np.errstate(over="ignore", invalid="ignore"):
        den = h[2, 0] * src[:, 0] + h[2, 1] * src[:, 1] + h[2, 2]
        bad = np.abs(den) <= _DENOM_TOL
        safe = np.where(bad, 1.0, den)
        px = (h[0, 0] * src[:, 0] + h[0, 1] * src[:, 1] + h[0, 2]) / safe
        py = (h[1, 0] * src[:, 0] + h[1, 1] * src[:, 1] + h[1, 2]) / safe
        err = np.hypot(px - dst[:, 0], py - dst[:, 1])
    err[bad | np.isnan(err)] = np.inf
    return err


def _plausible_view(hom: Homography, pts: np.ndarray) -> bool:
    """The degeneracy rule (module docstring) at the record points `pts`."""
    h = hom.h
    a, v = h[:2, :2], h[2, :2]
    if not np.all(pts @ v + h[2, 2] > 0.0):
        return False
    c = pts.mean(axis=0)
    wc = c @ v + h[2, 2]
    jac = (a - np.outer((a @ c + h[:2, 2]) / wc, v)) / wc
    # Scaled exactly by a power of two, so the Python-float products cannot overflow.
    (p, q), (r, s) = np.ldexp(jac, -math.frexp(float(np.max(np.abs(jac))))[1]).tolist()
    det = p * s - q * r
    return det > 0.0 and p * p + q * q + r * r + s * s <= (MAX_ANISOTROPY + 1.0 / MAX_ANISOTROPY) * det


def _distinct_rows(pts: np.ndarray) -> int:
    """Number of distinct rows of an (n, 2) array, counted as
    `len(np.unique(pts, axis=0))` counts them: -0.0 equals 0.0, and every row
    holding a NaN is distinct.  Sorted rows are distinct where they differ
    from the row before."""
    rows = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    return min(len(rows), 1) + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))


def default_min_inliers(n_matches: int) -> int:
    return max(8, math.ceil(0.15 * n_matches))


def ransac_verify(src, dst, seed: int = 0) -> VerificationResult:
    """Adaptive-iteration RANSAC over 4-point samples, least-squares refit.

    src/dst are matched (n, 2) coordinate arrays.  Deterministic for a fixed
    seed.  Inlier = reprojection error <= INLIER_THRESHOLD; verified iff the
    final consensus reaches default_min_inliers(n) and the final model passes
    the degeneracy rule (module docstring).  A NaN or infinite coordinate
    raises ValueError.  Fewer than 4 distinct source points draw no sample,
    since every sample would be degenerate, and give the result of no model:
    no inliers, an infinite mean error, unverified.
    """
    src = _as_points(src)
    dst = _as_points(dst)
    n = len(src)
    if n != len(dst):
        raise ValueError(f"mismatched correspondence arrays: {n} vs {len(dst)}")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ValueError("correspondence coordinates must be finite")
    if _distinct_rows(src) < SAMPLE_SIZE:
        return VerificationResult(None, [], math.inf, False)
    min_inliers = default_min_inliers(n)
    rng = np.random.default_rng(seed)

    best_count = 0
    best_model: Optional[Homography] = None
    best_err: Optional[np.ndarray] = None
    needed = MAX_ITERATIONS
    it = 0
    while it < needed:
        it += 1
        idx = rng.choice(n, size=SAMPLE_SIZE, replace=False)
        try:
            candidate = estimate_homography(src[idx], dst[idx])
        except (DegenerateConfiguration, SingularSystem):
            continue
        err = reprojection_errors(candidate, src, dst)
        count = int(np.count_nonzero(err <= INLIER_THRESHOLD))
        if count > best_count:
            best_count = count
            best_model = candidate
            best_err = err
            w = count / n
            miss = 1.0 - w**SAMPLE_SIZE
            if miss <= 0.0:
                needed = it
            else:
                needed = min(
                    MAX_ITERATIONS,
                    math.ceil(math.log(1.0 - CONFIDENCE) / math.log(miss)),
                )

    if best_model is None:
        return VerificationResult(None, [], math.inf, False)

    # Local optimization (LO-RANSAC; Chum, Matas & Kittler, DAGM 2003):
    # least-squares refits pull in marginal inliers the noisy 4-point
    # hypothesis missed.  The winner is refit at widened thresholds (2x,
    # 1.5x), then at the inlier threshold until its consensus stops changing
    # or shrinks, at most 10 times.  Each model travels with its errors.
    model, err = best_model, best_err
    for factor in (2.0, 1.5):
        wide = np.flatnonzero(err <= factor * INLIER_THRESHOLD)
        if len(wide) < SAMPLE_SIZE:
            continue
        try:
            model = estimate_homography(src[wide], dst[wide])
        except (DegenerateConfiguration, SingularSystem):
            continue
        err = reprojection_errors(model, src, dst)
    mask = err <= INLIER_THRESHOLD
    for _ in range(10):
        consensus = np.flatnonzero(mask)
        if len(consensus) < SAMPLE_SIZE:
            break
        try:
            refit = estimate_homography(src[consensus], dst[consensus])
        except (DegenerateConfiguration, SingularSystem):
            break
        refit_err = reprojection_errors(refit, src, dst)
        new_mask = refit_err <= INLIER_THRESHOLD
        if int(new_mask.sum()) < int(mask.sum()):
            break
        converged = bool(np.array_equal(new_mask, mask))
        model, err, mask = refit, refit_err, new_mask
        if converged:
            break
    inliers = np.flatnonzero(mask)
    mean_err = float(err[inliers].mean()) if len(inliers) else math.inf

    verified = len(inliers) >= min_inliers and _plausible_view(model, src[inliers])
    return VerificationResult(model if verified else None, inliers.tolist(), mean_err, verified)

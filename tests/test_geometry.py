"""Homography estimation and RANSAC verification on synthetic constructions."""

import math

import numpy as np
import pytest

from arfex.errors import DegenerateConfiguration, PointAtInfinity, SingularSystem
from arfex import geometry
from arfex.geometry import (
    INLIER_THRESHOLD,
    MAX_ANISOTROPY,
    Homography,
    estimate_homography,
    project_point,
    ransac_verify,
    reprojection_errors,
)

SQUARE = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]])


def apply_h(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    homo = np.hstack([pts, np.ones((len(pts), 1))])
    proj = homo @ h.T
    return proj[:, :2] / proj[:, 2:3]


def random_well_conditioned_h(rng) -> np.ndarray:
    theta = rng.uniform(-0.5, 0.5)
    s = rng.uniform(0.8, 1.25)
    h = np.array(
        [
            [s * math.cos(theta), -s * math.sin(theta), rng.uniform(-20, 20)],
            [s * math.sin(theta), s * math.cos(theta), rng.uniform(-20, 20)],
            [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4), 1.0],
        ]
    )
    return h


def test_project_identity():
    assert project_point(Homography(np.eye(3)), (3.0, 4.0)) == (3.0, 4.0)


def test_project_translation():
    h = Homography(np.array([[1.0, 0, 3.0], [0, 1.0, 5.0], [0, 0, 1.0]]))
    assert project_point(h, (0.0, 0.0)) == (3.0, 5.0)


def test_project_matches_manual_multiply(rng):
    h = Homography(random_well_conditioned_h(rng))
    p = (17.3, -4.2)
    vec = h.h @ np.array([p[0], p[1], 1.0])
    want = (vec[0] / vec[2], vec[1] / vec[2])
    got = project_point(h, p)
    assert got[0] == pytest.approx(want[0], abs=1e-9)
    assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_project_point_at_infinity():
    h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 1.0]]))
    with pytest.raises(PointAtInfinity):
        project_point(h, (-1.0, 0.0))


def test_estimate_identity_from_four_pairs():
    h = estimate_homography(SQUARE, SQUARE)
    assert np.allclose(h.h, np.eye(3), atol=1e-9)


def test_estimate_pure_translation():
    dst = SQUARE + np.array([3.0, 5.0])
    h = estimate_homography(SQUARE, dst).h
    want = np.array([[1, 0, 3.0], [0, 1, 5.0], [0, 0, 1.0]])
    assert np.allclose(h, want, atol=1e-9)


def test_estimate_recovers_random_homography(rng):
    truth = random_well_conditioned_h(rng)
    dst = apply_h(truth, SQUARE)
    h = estimate_homography(SQUARE, dst).h
    assert np.allclose(h, truth, atol=1e-6)


def test_apply_recover_round_trip_100(rng):
    src = np.array([[10.0, 10.0], [190.0, 20.0], [180.0, 180.0], [20.0, 170.0]])
    checked = 0
    while checked < 100:
        truth = random_well_conditioned_h(rng)
        dst = apply_h(truth, src)
        h = estimate_homography(src, dst).h
        assert np.allclose(h, truth, atol=1e-6)
        checked += 1


def test_least_squares_with_many_pairs(rng):
    truth = random_well_conditioned_h(rng)
    src = rng.uniform(0, 200, size=(30, 2))
    dst = apply_h(truth, src)
    h = estimate_homography(src, dst).h
    assert np.allclose(h, truth, atol=1e-6)


def test_estimate_rejects_too_few_pairs():
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(SQUARE[:3], SQUARE[:3])


def test_estimate_rejects_collinear_sources():
    src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 0.0]])
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(src, SQUARE)


def test_estimate_rejects_duplicated_sources():
    src = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 3.0], [5.0, 0.0]])
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(src, SQUARE)


def test_huge_sources_give_the_same_answers_without_a_warning():
    # Areas of points near 1e300 overflow to inf (and inf - inf to NaN),
    # which counts as not collinear; the collinearity test must not warn.
    rng = np.random.default_rng(3)
    dst = rng.uniform(0, 128, size=(30, 2))
    src = dst * 1e300
    with pytest.raises(SingularSystem):
        estimate_homography(src[:4], dst[:4])
    result = ransac_verify(src, dst)
    assert not result.verified and result.model is None
    # Destinations near 1e200: det H is near 1e400 and overflows, but the
    # model is finite, so it is returned, without a warning.
    scale = np.array([[1e200], [1e200], [1.0]])
    for pts in (SQUARE, dst):
        model = estimate_homography(pts, pts * 1e200)
        assert np.allclose(model.h / scale, np.eye(3), atol=1e-9)
    result = ransac_verify(dst, dst * 1e200)
    assert result.model is None or np.isfinite(result.model.h).all()
    with pytest.raises(SingularSystem):  # a scale of 1.7e309 overflows float64
        estimate_homography(SQUARE * 1e-3, SQUARE * 1.7e306)
    # A projection that overflows (here to inf - inf) is infinitely far from its destination.
    wide = Homography(np.array([[1e300, -1e300, 0.0], [-1e300, 1e300, 0.0], [0.0, 0.0, 1.0]]))
    far = reprojection_errors(wide, [[1e10, 1e10], [1.0, 1.0]], [[0.0, 0.0]] * 2)
    assert far[0] == np.inf and np.isfinite(far[1])


def dlt_system(src, dst):
    """estimate_homography's scaled 8-unknown system A h = b, and its scales."""
    src, dst = np.asarray(src, dtype=np.float64), np.asarray(dst, dtype=np.float64)
    s_src, s_dst = max(np.abs(src).max(), 1e-12), max(np.abs(dst).max(), 1e-12)
    (x, y), (u, v) = (src / s_src).T, (dst / s_dst).T
    one, zero = np.ones_like(x), np.zeros_like(x)
    rows_u = np.stack([x, y, one, zero, zero, zero, -x * u, -y * u], axis=1)
    rows_v = np.stack([zero, zero, zero, x, y, one, -x * v, -y * v], axis=1)
    return np.stack([rows_u, rows_v], axis=1).reshape(-1, 8), (dst / s_dst).reshape(-1), s_src, s_dst


def lapack_homography(src, dst) -> np.ndarray:
    """The same system solved by LAPACK: `solve` for 4 pairs, `lstsq` for
    more.  The reference for the elimination."""
    a, b, s_src, s_dst = dlt_system(src, dst)
    sol = np.linalg.solve(a, b) if len(a) == 8 else np.linalg.lstsq(a, b, rcond=None)[0]
    hn = np.append(sol, 1.0).reshape(3, 3)
    return np.diag([s_dst, s_dst, 1.0]) @ hn @ np.diag([1.0 / s_src, 1.0 / s_src, 1.0])


GRID = np.stack(np.meshgrid(np.linspace(0, 200, 9), np.linspace(0, 200, 9)), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("n", [4, 30])
def test_elimination_agrees_with_lapack(n):
    """On well-conditioned sets, the model maps a 9x9 grid over the 200 px
    box within 1e-8 px of the LAPACK solution's, and its h33 is exactly 1.
    The 4 sources are the corners of a square, each moved by up to 30 px;
    the 30 fill the box.  The destinations carry 0.5 px of noise, so the
    30-pair fit is a true least-squares one."""
    rng = np.random.default_rng(40 + n)
    corners = np.array([[20.0, 20.0], [180.0, 20.0], [180.0, 180.0], [20.0, 180.0]])
    for _ in range(200):
        truth = random_well_conditioned_h(rng)
        src = corners + rng.uniform(-30, 30, size=(4, 2)) if n == 4 else rng.uniform(0, 200, size=(n, 2))
        dst = apply_h(truth, src) + rng.normal(0, 0.5, size=(n, 2))
        got = estimate_homography(src, dst).h
        assert got[2, 2] == 1.0
        assert np.abs(apply_h(got, GRID) - apply_h(lapack_homography(src, dst), GRID)).max() <= 1e-8


RANK_DEFICIENT = {
    "collinear": np.stack([np.linspace(0, 200, 10), 0.5 * np.linspace(0, 200, 10) + 10.0], axis=1),
    "one source repeated": np.repeat([[37.0, 81.0]], 10, axis=0),
    "two clusters": np.repeat([[20.0, 30.0], [150.0, 170.0]], 5, axis=0),
}


@pytest.mark.parametrize("name", RANK_DEFICIENT)
@pytest.mark.parametrize("dst_kind", ["random", "shifted"])
def test_rank_deficient_sets_raise_singular_system(name, dst_kind):
    """Sets whose system lstsq's rank test refuses fail the elimination's
    pivot test (10 pairs, so the 4-pair collinearity test is not what
    refuses them)."""
    src = RANK_DEFICIENT[name]
    dst = np.random.default_rng(6).uniform(0, 200, size=(10, 2)) if dst_kind == "random" else src + 3.0
    assert np.linalg.matrix_rank(dlt_system(src, dst)[0]) < 8
    with pytest.raises(SingularSystem, match="pivot"):
        estimate_homography(src, dst)


def svd_plausible_view(hom, pts) -> bool:
    """The degeneracy rule by LAPACK's det of H and svd of J at the
    centroid: the reference for `_plausible_view`'s closed form."""
    h = hom.h
    a, v = h[:2, :2], h[2, :2]
    with np.errstate(all="ignore"):
        if not (np.linalg.det(h) > 0.0 and np.all(pts @ v + h[2, 2] > 0.0)):
            return False
        c = pts.mean(axis=0)
        wc = c @ v + h[2, 2]
        jac = (a - np.outer((a @ c + h[:2, 2]) / wc, v)) / wc
        if not np.isfinite(jac).all():  # svd raises on NaN; the rule refuses such a J
            return False
        s = np.linalg.svd(jac, compute_uv=False)
    return bool(s[0] <= MAX_ANISOTROPY * s[1])


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def test_plausible_view_equals_the_svd_ratio_test():
    """The closed form decides as the svd ratio test does, on affine models
    whose Jacobian J is a given 2x2 and on perspective ones.  J's singular
    values are built with ratios within 1e-9 (relative) of MAX_ANISOTROPY:
    the decisions agree from 1e-14 on.  Closer than about 2e-15, J's own
    rounding decides, and on such ratios the two tests were seen to differ."""
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 200, size=(10, 2))
    ratios = [MAX_ANISOTROPY * (1 + sign * d) for d in np.logspace(-14, -9, 11) for sign in (1, -1)]
    ratios += list(10.0 ** rng.uniform(0, 2, size=40))
    jacobians = []
    for ratio in ratios:
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e200):
            s1 = scale * 10.0 ** rng.uniform(-1, 1)
            mirror = np.diag([1.0, rng.choice([1.0, -1.0])])
            turn, turn_back = rotation(rng.uniform(-3, 3)), rotation(rng.uniform(-3, 3))
            jacobians.append(turn @ np.diag([s1 * ratio, s1]) @ mirror @ turn_back)
    jacobians += [np.outer(rng.normal(size=2), rng.normal(size=2)) for _ in range(20)]  # singular
    jacobians += [np.zeros((2, 2)), np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, np.nan]])]
    models = []
    for jac in jacobians:
        h = np.eye(3)
        h[:2, :2] = jac
        h[:2, 2] = rng.uniform(-50, 50, size=2)
        models.append(h)
    for _ in range(300):  # perspective: J varies across the frame
        h = random_well_conditioned_h(rng)
        h[2, :2] = rng.uniform(-8e-3, 8e-3, size=2)
        h[:2, :2] = rng.normal(size=(2, 2))
        models.append(h)
    decisions = []
    for h in models:
        want = svd_plausible_view(Homography(h), pts)
        assert geometry._plausible_view(Homography(h), pts) is want, h
        decisions.append(want)
    assert 0 < sum(decisions) < len(decisions)


def numpy_scalar_collinear(src) -> bool:
    """The collinearity test on numpy scalars, warnings silenced: the reference."""
    with np.errstate(all="ignore"):
        for i in range(len(src)):
            for j in range(i + 1, len(src)):
                for k in range(j + 1, len(src)):
                    a, b = src[j] - src[i], src[k] - src[i]
                    if abs(a[0] * b[1] - a[1] * b[0]) <= geometry._COLLINEAR_TOL:
                        return True
    return False


def test_collinearity_decisions_equal_the_numpy_scalar_test():
    rng = np.random.default_rng(11)
    specials = [0.0, -0.0, 1e-300, 1e150, 1e300, -1e300, np.inf, -np.inf, np.nan]
    decisions = []
    for trial in range(400):
        src = rng.uniform(-100, 100, size=(4, 2)) * 10.0 ** rng.integers(-5, 300)
        if trial % 2:
            src.flat[rng.integers(0, 8, size=rng.integers(1, 4))] = rng.choice(specials, size=1)
        if trial % 5 == 0:
            src[rng.integers(1, 4)] = src[0]
        collinear = numpy_scalar_collinear(src)
        try:
            geometry._check_collinear(src)
            refused = False
        except DegenerateConfiguration:
            refused = True
        assert refused == collinear, src
        decisions.append(refused)
    assert 0 < sum(decisions) < len(decisions)


def exact_correspondences(rng, n, truth):
    src = rng.uniform(0, 200, size=(n, 2))
    return src, apply_h(truth, src)


def test_ransac_all_inliers_exact_similarity(rng):
    theta = math.radians(10)
    truth = np.array(
        [
            [1.1 * math.cos(theta), -1.1 * math.sin(theta), 12.0],
            [1.1 * math.sin(theta), 1.1 * math.cos(theta), -7.0],
            [0, 0, 1.0],
        ]
    )
    src, dst = exact_correspondences(rng, 20, truth)
    res = ransac_verify(src, dst, 5)
    assert res.verified
    assert len(res.inlier_indices) == 20
    assert res.mean_reprojection_error < 1e-6


def test_ransac_with_outliers(rng):
    successes = 0
    for seed in range(20):
        local = np.random.default_rng(1000 + seed)
        truth = random_well_conditioned_h(local)
        src_in = local.uniform(0, 200, size=(8, 2))
        dst_in = apply_h(truth, src_in) + local.normal(0, 0.5, size=(8, 2))
        src_out = local.uniform(0, 200, size=(12, 2))
        dst_out = local.uniform(0, 200, size=(12, 2))
        src = np.vstack([src_in, src_out])
        dst = np.vstack([dst_in, dst_out])
        res = ransac_verify(src, dst, seed)
        if res.verified and set(range(8)) <= set(res.inlier_indices) and res.mean_reprojection_error < 1.0:
            successes += 1
    assert successes >= 19


def assert_no_model(res):
    """The result of no model: no inliers, an infinite mean error, unverified."""
    assert (res.model, res.inlier_indices, res.mean_reprojection_error, res.verified) == (None, [], math.inf, False)


def test_ransac_insufficient_matches(monkeypatch):
    calls = []
    monkeypatch.setattr(geometry, "estimate_homography", lambda src, dst: calls.append(src))
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert_no_model(ransac_verify(pts, pts))
    assert calls == []


def test_ransac_fewer_than_four_distinct_sources_is_insufficient(monkeypatch):
    calls = []

    def counting(src, dst):
        calls.append(len(src))
        return estimate_homography(src, dst)

    monkeypatch.setattr(geometry, "estimate_homography", counting)
    src = np.array([[10.0, 20.0], [50.0, 20.0], [30.0, 70.0]])[np.arange(10) % 3]
    dst = np.random.default_rng(4).uniform(0, 200, size=(10, 2))
    assert_no_model(ransac_verify(src, dst))
    assert calls == []


def test_distinct_count_equals_np_unique():
    # -0.0 equals 0.0, and every row holding a NaN is distinct
    rng = np.random.default_rng(8)
    values = np.array([0.0, -0.0, 1.0, 2.5, np.nan, np.inf, -np.inf])
    for _ in range(3000):
        pts = rng.choice(values, size=(int(rng.integers(0, 9)), 2))
        assert geometry._distinct_rows(pts) == len(np.unique(pts, axis=0))


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[1.0, 2.0]],
        [[0.0, 1.0], [-0.0, 1.0]],
        [[0.0, 1.0], [-0.0, 1.0], [np.nan, 1.0]],
        [[np.nan, 0.0], [np.nan, 0.0], [3.0, -0.0]],
        [[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [np.nan, 0.0]],
        [[5.0, 5.0]] * 6 + [[np.inf, 1.0]] * 2,
    ],
)
def test_too_few_distinct_sources_name_their_count(rows, monkeypatch):
    """Finite rows with fewer than 4 distinct, counted as `np.unique` counts
    them, give the result of no model; a NaN or infinite row is refused
    first, whatever the count.  Neither draws a sample."""
    calls = []
    monkeypatch.setattr(geometry, "estimate_homography", lambda src, dst: calls.append(src))
    src = np.array(rows, dtype=np.float64).reshape(-1, 2)
    if np.isfinite(src).all():
        assert geometry._distinct_rows(src) == len(np.unique(src, axis=0)) < 4
        assert_no_model(ransac_verify(src, np.zeros_like(src)))
    else:
        with pytest.raises(ValueError, match="finite"):
            ransac_verify(src, np.zeros_like(src))
    assert calls == []


@pytest.mark.parametrize("side", ["src", "dst"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ransac_refuses_non_finite_coordinates(side, value, monkeypatch):
    calls = []
    monkeypatch.setattr(geometry, "estimate_homography", lambda src, dst: calls.append(src))
    src = np.random.default_rng(5).uniform(0, 200, size=(10, 2))
    dst = src + 3.0
    (src if side == "src" else dst)[4, 1] = value
    with pytest.raises(ValueError, match="finite"):
        ransac_verify(src, dst)
    assert calls == []


def test_ransac_unverified_below_min_inliers(rng):
    # pure noise correspondences: no consensus reaches max(8, 15%)
    src = rng.uniform(0, 200, size=(30, 2))
    dst = rng.uniform(0, 200, size=(30, 2))
    res = ransac_verify(src, dst, 3)
    assert not res.verified
    assert res.model is None


def test_ransac_inliers_revalidate(rng):
    truth = random_well_conditioned_h(rng)
    src = rng.uniform(0, 200, size=(25, 2))
    dst = apply_h(truth, src) + rng.normal(0, 0.4, size=(25, 2))
    res = ransac_verify(src, dst, 11)
    assert res.verified
    err = reprojection_errors(res.model, src, dst)
    assert np.all(err[res.inlier_indices] <= INLIER_THRESHOLD)
    assert res.mean_reprojection_error == pytest.approx(float(err[res.inlier_indices].mean()))


@pytest.mark.parametrize("seed", range(10))
def test_ransac_result_is_read_from_its_models_errors(seed):
    """Inliers are exactly the points within the threshold under the returned
    model, and the mean error is their mean, bit for bit."""
    rng = np.random.default_rng(900 + seed)
    truth = random_well_conditioned_h(rng)
    src = rng.uniform(0, 200, size=(40, 2))
    dst = apply_h(truth, src) + rng.normal(0, 1.0, size=(40, 2))
    dst[30:] = rng.uniform(0, 200, size=(10, 2))
    res = ransac_verify(src, dst, seed)
    assert res.verified
    err = reprojection_errors(res.model, src, dst)
    assert res.inlier_indices == np.flatnonzero(err <= INLIER_THRESHOLD).tolist()
    assert res.mean_reprojection_error == float(err[res.inlier_indices].mean())


def test_ransac_seed_determinism(rng):
    truth = random_well_conditioned_h(rng)
    src = rng.uniform(0, 200, size=(40, 2))
    dst = apply_h(truth, src)
    dst[::3] += rng.uniform(5, 40, size=dst[::3].shape)
    a = ransac_verify(src, dst, 77)
    b = ransac_verify(src, dst, 77)
    assert a.inlier_indices == b.inlier_indices
    assert a.mean_reprojection_error == b.mean_reprojection_error
    assert np.array_equal(a.model.h, b.model.h)


# The 12 matches a never-indexed texture got to one record (benchmark query
# workload, seed 1, round 5, query 4): record keypoints, then query keypoints.
# Without the degeneracy rule RANSAC verified 8 of them under a model whose
# upper-left block has det 0.0095 and singular-value ratio 382; the model has
# det H < 0, and the inliers lie on both sides of its line at infinity.
CLUSTERED_SRC = [
    ("0x1.0d9eccc0f8b44p+7", "0x1.084ba22415e12p+7"),
    ("0x1.347fea9b79f90p+7", "0x1.79bc816cf98b5p+5"),
    ("0x1.1ee3cd2bd2e0bp+7", "0x1.ad0ebd9c0470cp+5"),
    ("0x1.1ee3cd2bd2e0bp+7", "0x1.ad0ebd9c0470cp+5"),
    ("0x1.347fea9b79f90p+7", "0x1.79bc816cf98b5p+5"),
    ("0x1.1c22cfd4231e1p+7", "0x1.efac39c16f213p+6"),
    ("0x1.0d9eccc0f8b44p+7", "0x1.084ba22415e12p+7"),
    ("0x1.347fea9b79f90p+7", "0x1.79bc816cf98b5p+5"),
    ("0x1.121f844ae760cp+6", "0x1.70497a4735585p+6"),
    ("0x1.121f844ae760cp+6", "0x1.70497a4735585p+6"),
    ("0x1.5fd3d5f150785p+6", "0x1.16b30a67ce5eep+6"),
    ("0x1.5fd3d5f150785p+6", "0x1.16b30a67ce5eep+6"),
]
CLUSTERED_DST = [
    ("0x1.54729a425ec0fp+7", "0x1.38e74aa493b3fp+7"),
    ("0x1.877239f89f0e4p+5", "0x1.d3eabb61434aap+5"),
    ("0x1.42533716889cap+7", "0x1.98ba7c079a956p+7"),
    ("0x1.41273328ed07ap+7", "0x1.990fb52657172p+7"),
    ("0x1.e31fe132ac3ccp+5", "0x1.93cd09818b84dp+7"),
    ("0x1.63e264b3f0076p+7", "0x1.23008adfc162fp+7"),
    ("0x1.5534936b7026cp+7", "0x1.38147bfb01d4ap+7"),
    ("0x1.84e290dcccec3p+5", "0x1.d120368e30a5ap+5"),
    ("0x1.af6943a0fe381p+6", "0x1.2fc744844a940p+7"),
    ("0x1.ae60388e505fep+6", "0x1.3091b99c77965p+7"),
    ("0x1.f94a081607a62p+6", "0x1.f7d35b8bf7ec9p+6"),
    ("0x1.f8fb603ef7fc9p+6", "0x1.f4d6a7cdba071p+6"),
]


def from_hex(pairs):
    return np.array([[float.fromhex(x), float.fromhex(y)] for x, y in pairs])


def test_ransac_rejects_near_singular_model_of_clustered_matches():
    res = ransac_verify(from_hex(CLUSTERED_SRC), from_hex(CLUSTERED_DST), 0)
    assert len(res.inlier_indices) == 8  # enough inliers: only the rule rejects it
    assert not res.verified
    assert res.model is None


@pytest.mark.parametrize(
    "linear, verified",
    [
        ([[1.0, 0.0], [0.0, -1.0]], False),  # mirror
        ([[0.0, 1.0], [1.0, 0.0]], False),  # mirror
        ([[1.0, 0.0], [0.0, 1.0 / (2 * MAX_ANISOTROPY)]], False),
        ([[2.0, 0.3], [0.0, 2.0 / (0.5 * MAX_ANISOTROPY)]], True),
        ([[0.6, -0.8], [0.8, 0.6]], True),  # rotation
    ],
)
def test_ransac_degeneracy_rule_on_exact_models(rng, linear, verified):
    truth = np.eye(3)
    truth[:2, :2] = linear
    truth[:2, 2] = (15.0, -4.0)
    src, dst = exact_correspondences(rng, 20, truth)
    res = ransac_verify(src, dst, 2)
    assert len(res.inlier_indices) == 20
    assert res.verified is verified
    assert (res.model is not None) is verified


@pytest.mark.parametrize("tx", [0.0, 200.0, 300.0])
def test_ransac_verifies_tilted_view_wherever_it_sits(rng, tx):
    # a 200 px record whose left edge shows at half the scale of its right
    # edge; the upper-left block alone would have det <= 0 from tx = 200 on
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-2.5e-3, 0.0, 1.0]])
    shift = np.array([[1.0, 0.0, tx], [0.0, 1.0, 100.0], [0.0, 0.0, 1.0]])
    truth = shift @ np.diag([0.5, 0.5, 1.0]) @ tilt
    src, dst = exact_correspondences(rng, 20, truth)
    assert dst.min() > 0.0 and dst[:, 0].max() < 640.0 and dst[:, 1].max() < 480.0
    res = ransac_verify(src, dst, 2)
    assert len(res.inlier_indices) == 20
    assert res.verified


def test_homography_requires_3x3():
    with pytest.raises(ValueError):
        Homography(np.eye(2))

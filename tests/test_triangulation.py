from collections import Counter

import numpy as np
import pytest

from linemap.geometry import (
    CameraView,
    PluckerLine,
    Segment2D,
    Segment3D,
    point_to_infinite_line_2d,
    project_line,
    normalized,
    project_segment,
    relative_pose,
    skew,
)
from linemap.triangulation import (
    CheiralityError,
    DegenerateTriangulationError,
    FullyDegenerateError,
    WeaklyDegenerateError,
    check_degeneracy,
    solve_constrained_quadratic,
    triangulate_algebraic,
    triangulate_line_point,
    triangulate_line_vp,
    triangulate_multipoint,
    weak_epipolar_iou,
)

from support import (
    endpoint_rays,
    identity_view,
    intrinsics,
    random_two_view_segment,
    two_view,
    weak_degenerate_pair,
)


def side_by_side_views():
    ref = identity_view()
    match = CameraView(intrinsics(), np.eye(3), np.array([-1.0, 0.0, 0.0]), 640, 480)
    return ref, match


def grid_min_on_constraint(A, b, Q, q, span=20.0, n=4001):
    """Dense sweep oracle: scan one depth, solve the constraint for the other."""
    best = np.inf
    for axis in (0, 1):
        xs = np.linspace(-span, span, n)
        i, j = (0, 1) if axis == 0 else (1, 0)
        aa = Q[j, j]
        bb = 2 * Q[i, j] * xs + q[j]
        cc = Q[i, i] * xs**2 + q[i] * xs
        for k in range(n):
            if abs(aa) < 1e-14:
                ys = [-cc[k] / bb[k]] if abs(bb[k]) > 1e-14 else []
            else:
                disc = bb[k] * bb[k] - 4 * aa * cc[k]
                ys = [(-bb[k] + s * np.sqrt(disc)) / (2 * aa) for s in (1, -1)] if disc >= 0 else []
            for y in ys:
                lam = np.empty(2)
                lam[i], lam[j] = xs[k], y
                best = min(best, float(lam @ A @ lam + b @ lam))
    return best


# ---------------------------------------------------------------------------
# algebraic two-view triangulation
# ---------------------------------------------------------------------------


def test_axis_aligned_segment_recovers_exact_depths():
    ref, match = side_by_side_views()
    gt = Segment3D(np.array([0.0, 0.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    seg = triangulate_algebraic(
        two_view(project_segment(gt, ref), ref, project_segment(gt, match), match)
    )
    np.testing.assert_allclose(seg.start, gt.start, atol=1e-12)
    np.testing.assert_allclose(seg.end, gt.end, atol=1e-12)


def test_segment_parallel_to_baseline_is_fully_degenerate():
    ref, match = side_by_side_views()
    gt = Segment3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 2.0]))
    with pytest.raises(FullyDegenerateError):
        triangulate_algebraic(
            two_view(project_segment(gt, ref), ref, project_segment(gt, match), match)
        )


def test_exact_fit_on_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(100):
        ref, match, gt, s_r, s_m = random_two_view_segment(rng)
        seg = triangulate_algebraic(two_view(s_r, ref, s_m, match))
        scale = max(np.linalg.norm(gt.start), np.linalg.norm(gt.end))
        assert np.linalg.norm(seg.start - gt.start) < 1e-7 * scale
        assert np.linalg.norm(seg.end - gt.end) < 1e-7 * scale
        # reprojection sits on the matched infinite line
        l2d = project_line(PluckerLine.from_two_points(seg.start, seg.end), match)
        for p in (s_m.start, s_m.end):
            assert point_to_infinite_line_2d(p, l2d) < 1e-8


def test_behind_camera_raises_cheirality():
    ref, match = side_by_side_views()
    # rays of a segment in front, but matched observation consistent with a
    # segment behind the cameras: mirror the matched view's segment
    gt = Segment3D(np.array([0.2, 0.0, 3.0]), np.array([0.2, 0.8, 3.0]))
    gt_back = Segment3D(-gt.start, -gt.end)
    s_r = project_segment(gt, ref)
    # matched segment consistent only with the reflected (behind) segment
    y1 = intrinsics() @ (np.eye(3) @ gt_back.start + match.t)
    y2 = intrinsics() @ (np.eye(3) @ gt_back.end + match.t)
    s_m = Segment2D(y1[:2] / y1[2], y2[:2] / y2[2])
    with pytest.raises(CheiralityError):
        triangulate_algebraic(two_view(s_r, ref, s_m, match))


def test_check_degeneracy_threshold():
    n = np.array([0.0, 0.0, 1.0])
    in_plane = np.array([1.0, 0.0, 0.0])
    assert check_degeneracy(in_plane, n, 1.0)
    tilted = np.array([np.cos(np.radians(2.0)), 0.0, np.sin(np.radians(2.0))])
    assert not check_degeneracy(tilted, n, 1.0)
    assert check_degeneracy(tilted, n, 3.0)


# ---------------------------------------------------------------------------
# multi-point triangulation
# ---------------------------------------------------------------------------


def test_multipoint_recovers_segment_through_exact_points():
    rng = np.random.default_rng(22)
    for _ in range(50):
        ref, match, gt, s_r, _ = random_two_view_segment(rng)
        line = PluckerLine.from_two_points(gt.start, gt.end)
        ts = rng.uniform(-1.0, 1.0, size=rng.integers(2, 6))
        pts = np.stack([gt.midpoint + t * line.d for t in ts])
        if np.ptp(ts) < 0.2:
            continue
        seg = triangulate_multipoint(endpoint_rays(s_r, ref), ref, pts)
        np.testing.assert_allclose(seg.start, gt.start, atol=1e-8)
        np.testing.assert_allclose(seg.end, gt.end, atol=1e-8)


def test_multipoint_rejects_coincident_points():
    ref, _ = side_by_side_views()
    seg2d = Segment2D(np.array([300.0, 200.0]), np.array([340.0, 260.0]))
    pts = np.tile(np.array([0.1, 0.2, 3.0]), (4, 1))
    with pytest.raises(DegenerateTriangulationError):
        triangulate_multipoint(endpoint_rays(seg2d, ref), ref, pts)


def test_multipoint_needs_two_points():
    ref, _ = side_by_side_views()
    seg2d = Segment2D(np.array([300.0, 200.0]), np.array([340.0, 260.0]))
    with pytest.raises(Exception):
        triangulate_multipoint(endpoint_rays(seg2d, ref), ref, np.array([[0.1, 0.2, 3.0]]))


# ---------------------------------------------------------------------------
# constrained quadratic solver
# ---------------------------------------------------------------------------


def test_linear_constraint_pins_first_coordinate():
    sols = solve_constrained_quadratic(np.eye(2), np.zeros(2), np.zeros((2, 2)), np.array([1.0, 0.0]))
    assert len(sols) == 1
    np.testing.assert_allclose(sols[0].lam, [0.0, 0.0], atol=1e-12)


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        G = rng.normal(size=(2, 2))
        A = G.T @ G + 0.1 * np.eye(2)
        b = rng.normal(size=2)
        S = rng.normal(size=(2, 2))
        Q = 0.5 * (S + S.T)
        q = rng.normal(size=2)
        sols = solve_constrained_quadratic(A, b, Q, q)
        assert sols, "expected at least one stationary point"
        for s in sols:
            assert abs(s.lam @ Q @ s.lam + q @ s.lam) < 1e-6 * max(1.0, np.abs(s.lam).max() ** 2)
        assert sols[0].cost <= grid_min_on_constraint(A, b, Q, q) + 1e-4


# ---------------------------------------------------------------------------
# point- and direction-constrained triangulation
# ---------------------------------------------------------------------------


def test_line_point_recovers_exact_geometry():
    rng = np.random.default_rng(24)
    for _ in range(50):
        ref, match, gt, s_r, s_m = random_two_view_segment(rng)
        w = rng.uniform(0.2, 0.8)
        on_line = (1 - w) * gt.start + w * gt.end
        seg = triangulate_line_point(two_view(s_r, ref, s_m, match), on_line)
        scale = max(1.0, np.linalg.norm(gt.start))
        assert np.linalg.norm(seg.start - gt.start) < 1e-7 * scale
        assert np.linalg.norm(seg.end - gt.end) < 1e-7 * scale


def test_line_vp_recovers_exact_geometry():
    rng = np.random.default_rng(25)
    for _ in range(50):
        ref, match, gt, s_r, s_m = random_two_view_segment(rng)
        vp_ref = ref.R @ gt.direction  # direction expressed in the reference camera
        seg = triangulate_line_vp(two_view(s_r, ref, s_m, match), vp_ref)
        scale = max(1.0, np.linalg.norm(gt.start))
        assert np.linalg.norm(seg.start - gt.start) < 1e-7 * scale
        assert np.linalg.norm(seg.end - gt.end) < 1e-7 * scale


def test_line_vp_rejects_direction_out_of_ray_plane():
    rng = np.random.default_rng(26)
    ref, match, gt, s_r, s_m = random_two_view_segment(rng)
    x1 = ref.pixel_to_normalized(s_r.start)
    x2 = ref.pixel_to_normalized(s_r.end)
    vp = np.cross(x1, x2)  # perpendicular to the plane of the reference rays
    with pytest.raises(DegenerateTriangulationError):
        triangulate_line_vp(two_view(s_r, ref, s_m, match), vp / np.linalg.norm(vp))


# ---------------------------------------------------------------------------
# weak degeneracy rescue
# ---------------------------------------------------------------------------


def test_weak_degeneracy_detected_and_rescued():
    rng = np.random.default_rng(27)
    for _ in range(25):
        ref, match, gt, s_r, s_m = weak_degenerate_pair(rng)
        with pytest.raises(WeaklyDegenerateError):
            triangulate_algebraic(two_view(s_r, ref, s_m, match))
        w = rng.uniform(0.3, 0.7)
        on_line = (1 - w) * gt.start + w * gt.end
        by_point = triangulate_line_point(two_view(s_r, ref, s_m, match), on_line)
        by_vp = triangulate_line_vp(two_view(s_r, ref, s_m, match), ref.R @ gt.direction)
        for seg in (by_point, by_vp):
            assert np.linalg.norm(seg.start - gt.start) < 1e-3
            assert np.linalg.norm(seg.end - gt.end) < 1e-3


# ---------------------------------------------------------------------------
# epipolar interval overlap
# ---------------------------------------------------------------------------


def test_consistent_match_has_full_overlap():
    rng = np.random.default_rng(28)
    for _ in range(20):
        ref, match, gt, s_r, s_m = random_two_view_segment(rng)
        assert weak_epipolar_iou(two_view(s_r, ref, s_m, match)) > 1 - 1e-6


def test_half_segment_overlap_is_half():
    rng = np.random.default_rng(29)
    ref, match, gt, s_r, s_m = random_two_view_segment(rng)
    half = Segment2D(s_m.midpoint, s_m.end)
    assert weak_epipolar_iou(two_view(s_r, ref, half, match)) == pytest.approx(0.5, abs=1e-9)


def test_displaced_match_overlap_drops():
    rng = np.random.default_rng(30)
    ref, match, gt, s_r, s_m = random_two_view_segment(rng)
    d = s_m.end - s_m.start
    shifted = Segment2D(s_m.start + 2.5 * d, s_m.end + 2.5 * d)
    assert weak_epipolar_iou(two_view(s_r, ref, shifted, match)) < 0.1


def test_no_baseline_overlap_is_zero():
    ref = identity_view()
    twin = CameraView(intrinsics(), np.eye(3), np.zeros(3), 640, 480)
    seg = Segment2D(np.array([100.0, 100.0]), np.array([300.0, 200.0]))
    assert weak_epipolar_iou(two_view(seg, ref, seg, twin)) == 0.0


def epipolar_iou_oracle(ref_seg, ref_view, match_seg, match_view):
    """The IoU cut by explicit epipolar lines: ``E = [t]x R``, ``h = (E x_i) x (y1 x y2)``."""
    R, t = relative_pose(ref_view, match_view)
    if np.linalg.norm(t) < 1e-12:
        return 0.0
    E = skew(t) @ R
    x1, x2 = endpoint_rays(ref_seg, ref_view)
    y1, y2 = endpoint_rays(match_seg, match_view)
    direction = y2[:2] - y1[:2]
    seg_len = np.linalg.norm(direction)
    u = direction / seg_len
    match_line = np.cross(y1, y2)
    params = []
    for x in (x1, x2):
        h = np.cross(E @ x, match_line)
        if abs(h[2]) < 1e-12 * (np.linalg.norm(h[:2]) + 1e-12):
            return 0.0
        params.append(float((h[:2] / h[2] - y1[:2]) @ u))
    lo, hi = min(params), max(params)
    inter = max(0.0, min(hi, seg_len) - max(lo, 0.0))
    union = max(hi, seg_len) - min(lo, 0.0)
    return inter / union


def shifted(seg, offset):
    return Segment2D(seg.start + offset, seg.end + offset)


def iou_cases(rng):
    """``(kind, ref_seg, ref_view, match_seg, match_view)`` over one random two-view pair.

    Besides the true match: a partly overlapping and a disjoint match, and a
    3D segment within a few degrees of the baseline, so its images lie
    close to epipolar lines, matched with up to a pixel of offset.
    """
    ref, match, gt, s_r, s_m = random_two_view_segment(rng)
    d = s_m.end - s_m.start
    yield "true", s_r, ref, s_m, match
    lo, hi = rng.uniform(-0.6, 0.4), rng.uniform(0.6, 1.6)
    yield "partial", s_r, ref, Segment2D(s_m.start + lo * d, s_m.start + hi * d), match
    yield "disjoint", s_r, ref, shifted(s_m, rng.uniform(1.2, 3.0) * rng.choice([-1, 1]) * d), match
    base = normalized(match.camera_center - ref.camera_center)
    tilt = normalized(np.cross(base, rng.normal(size=3)))
    angle = np.radians(rng.uniform(0.05, 3.0))
    half = 0.5 * gt.length * (np.cos(angle) * base + np.sin(angle) * tilt)
    near = Segment3D(gt.midpoint - half, gt.midpoint + half)
    try:
        n_r, n_m = project_segment(near, ref), project_segment(near, match)
    except ValueError:
        return
    yield "near-parallel", n_r, ref, shifted(n_m, rng.uniform(-1.0, 1.0, size=2)), match


def test_iou_agrees_with_the_epipolar_line_oracle():
    rng = np.random.default_rng(31)
    worst, flipped, kinds, between = 0.0, 0, Counter(), Counter()
    for _ in range(60):
        for kind, s_r, ref, s_m, match in iou_cases(rng):
            new = weak_epipolar_iou(two_view(s_r, ref, s_m, match))
            old = epipolar_iou_oracle(s_r, ref, s_m, match)
            worst = max(worst, abs(new - old))
            flipped += (new >= 0.1) != (old >= 0.1)
            kinds[kind] += 1
            between[kind] += 1e-9 < old < 1.0 - 1e-9
    assert worst <= 1e-12
    assert flipped == 0
    assert sum(kinds.values()) >= 200 and kinds["near-parallel"] >= 50
    # the cases are what their names say
    assert between["true"] == 0
    assert between["partial"] == kinds["partial"]
    assert between["near-parallel"] >= 0.5 * kinds["near-parallel"]


def test_parallel_epipolar_lines_score_zero():
    # the baseline runs along x, so every epipolar line is horizontal
    ref, match = side_by_side_views()
    s_r = Segment2D(np.array([300.0, 200.0]), np.array([340.0, 260.0]))
    s_m = Segment2D(np.array([100.0, 220.0]), np.array([400.0, 220.0]))
    assert epipolar_iou_oracle(s_r, ref, s_m, match) == 0.0
    assert weak_epipolar_iou(two_view(s_r, ref, s_m, match)) == 0.0

import dataclasses
import itertools
import math
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
from linemap import pipeline
from linemap.optimize import segment_on_line_from_supports
from linemap.triangulation import (
    FAILURES,
    TIE_COST,
    CheiralityError,
    DegenerateTriangulationError,
    FullyDegenerateError,
    TriangulationError,
    WeaklyDegenerateError,
    _preference_order,
    degenerate_rows,
    match_rows,
    solve_constrained_quadratic,
    triangulate_algebraic,
    triangulate_line_point,
    triangulate_line_vp,
    triangulate_multipoint,
    weak_epipolar_iou,
)

from support import (
    endpoint_rays,
    float_check_degeneracy,
    float_ray_plane_form,
    float_rays,
    float_triangulate_algebraic,
    float_weak_epipolar_iou,
    identity_view,
    intrinsics,
    make_view,
    match_form,
    random_two_view_segment,
    reference_plane_angle_deg,
    reference_plane_cost,
    reference_point_constraint,
    reference_preference_order,
    reference_ray_plane_form,
    reference_segment_on_line_from_supports,
    reference_solve_constrained_quadratic,
    reference_triangulate_algebraic,
    reference_triangulate_line_point,
    reference_triangulate_line_vp,
    reference_triangulate_multipoint,
    reference_weak_epipolar_iou,
    two_view,
    visible,
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


def is_degenerate(ray, normal, min_angle_deg):
    """:func:`degenerate_rows` of one ray against one plane normal."""
    ray, normal = (np.array([v], dtype=np.float64) for v in (ray, normal))
    return bool(degenerate_rows(ray, normal, min_angle_deg)[0])


def test_check_degeneracy_threshold():
    n = np.array([0.0, 0.0, 1.0])
    in_plane = np.array([1.0, 0.0, 0.0])
    assert is_degenerate(in_plane, n, 1.0)
    tilted = np.array([np.cos(np.radians(2.0)), 0.0, np.sin(np.radians(2.0))])
    assert not is_degenerate(tilted, n, 1.0)
    assert is_degenerate(tilted, n, 3.0)


def unit_rays_with_sines(sines):
    """Rays ``(c, 0, s)`` with ``c * c + s * s == 1.0``, so that against the
    normal ``(0, 0, 1)`` the plane angle's sine is ``s`` exactly."""
    rays = []
    for s in sines:
        c = math.sqrt(1.0 - s * s)
        rays += [(x, 0.0, s) for x in (c, math.nextafter(c, 0.0), math.nextafter(c, 2.0))
                 if x * x + s * s == 1.0][:1]
    return rays


# at 0.97 and 1.09 degrees the sine one ulp below, or at, sin(threshold)
# already reads an angle of at least the threshold through math.asin
@pytest.mark.parametrize(
    "min_angle_deg", [1.0, 0.5, 0.97, 1.09, 30.0, 89.99, 90.0, 120.0, 0.0, -1.0]
)
def test_degenerate_rows_at_the_angle_boundary_equal_the_asin_oracle(min_angle_deg):
    # rays whose plane angle lies a few ulps around the threshold (the rows
    # math.asin decides), far from it, in the plane, along the normal, of
    # zero length and NaN, each against the per-element math.asin oracle
    rng = np.random.default_rng(71)
    edge = math.tan(math.radians(min(max(min_angle_deg, 1e-3), 89.0)))
    heights = [edge * (1.0 + k * 2e-16) for k in range(-40, 41)]
    heights += [0.0, -0.0, -edge, 1e-300, 1e300, math.nan, math.inf]
    heights += rng.uniform(-2.0, 2.0, 200).tolist()
    rays = [(1.0, 0.0, z) for z in heights] + [(0.0, 0.0, 0.0), (0.0, 0.0, 2.5), (0.3, -0.4, 0.0)]
    sine = math.sin(math.radians(min_angle_deg))
    rays += unit_rays_with_sines(min(1.0, sine * (1.0 + k * 1.1e-16)) for k in range(-6, 7))
    rays += [tuple(v) for v in rng.normal(size=(100, 3)).tolist()]
    normals = [(0.0, 0.0, 1.0)] * (len(rays) - 100)
    normals += [tuple(v) for v in rng.normal(size=(100, 3)).tolist()]
    normals[-101] = (0.0, 0.0, 0.0)  # a zero normal
    with np.errstate(over="ignore", invalid="ignore"):  # the inf and 1e300 rows
        got = degenerate_rows(np.array(rays), np.array(normals), min_angle_deg).tolist()
    assert got == [float_check_degeneracy(r, n, min_angle_deg) for r, n in zip(rays, normals)]
    if 0.0 < min_angle_deg < 89.0:
        assert 0 < sum(got[:81]) < 81  # the boundary rows fall on both sides


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
    R, t = (np.array(v) for v in relative_pose(ref_view, match_view))
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


# ---------------------------------------------------------------------------
# the float two-view path against its numpy reference
# ---------------------------------------------------------------------------


def two_view_cases(rng, n_pairs):
    """``(ref_seg, ref_view, match_seg, match_view)``: random two-view pairs, any
    angle between the rays and the match plane, each matched with its true
    image, a stretched or cut one and one moved by up to its length."""
    for _ in range(n_pairs):
        ref, match, _, s_r, s_m = random_two_view_segment(rng, min_plane_angle_deg=0.0)
        d = s_m.end - s_m.start
        lo, hi = rng.uniform(-0.6, 0.4), rng.uniform(0.6, 1.6)
        yield s_r, ref, s_m, match
        yield s_r, ref, Segment2D(s_m.start + lo * d, s_m.start + hi * d), match
        yield s_r, ref, shifted(s_m, rng.uniform(-1.0, 1.0) * d + rng.normal(size=2) * 20.0), match


def test_float_two_view_path_agrees_with_the_numpy_reference():
    rng = np.random.default_rng(32)
    outcomes, verdicts = Counter(), 0
    for s_r, ref, s_m, match in two_view_cases(rng, 300):
        form = two_view(s_r, ref, s_m, match)
        old_form = reference_ray_plane_form(
            ref, endpoint_rays(s_r, ref), match, endpoint_rays(s_m, match)
        )
        angles = []
        for Rx, old_Rx in ((form.Rx1, old_form.Rx1), (form.Rx2, old_form.Rx2)):
            angles.append(reference_plane_angle_deg(old_Rx, old_form.n))
            if abs(angles[-1] - 1.0) > 1e-9:
                assert is_degenerate(Rx, form.n, 1.0) == (angles[-1] < 1.0)
                verdicts += 1
        # a ray turning into the match plane moves its epipolar cut as 1 / angle
        rel = 1e-12 * max(1.0, 0.1 / min(angles))
        new, old = weak_epipolar_iou(form), reference_weak_epipolar_iou(old_form)
        assert new == pytest.approx(old, rel=rel, abs=1e-300)
        try:
            old_ends = reference_triangulate_algebraic(old_form)
        except TriangulationError as exc:
            with pytest.raises(type(exc)):
                triangulate_algebraic(form)
            outcomes[type(exc).__name__] += 1
            continue
        seg = triangulate_algebraic(form)
        for got, want in zip((seg.start, seg.end), old_ends):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        outcomes["segment"] += 1
    assert sum(outcomes.values()) == 900 and verdicts == 1800
    # every outcome is exercised: segments, degenerate rays and cheirality failures
    assert outcomes["segment"] >= 800, outcomes
    assert outcomes["WeaklyDegenerateError"] + outcomes["FullyDegenerateError"] >= 10, outcomes
    assert outcomes["CheiralityError"] >= 1, outcomes


# ---------------------------------------------------------------------------
# degenerate inputs give IoU 0 or a TriangulationError, never a division error
# ---------------------------------------------------------------------------


def float_form(ref_view, ref_rays, match_view, match_rays):
    return match_form(ref_view, ref_rays, relative_pose(ref_view, match_view), match_rays)


def assert_every_solver_fails_cleanly(form):
    # the rescue solvers see the same form when the algebraic one is degenerate
    point = form.ref.center[0] + np.array([0.1, 0.2, 3.0])
    solvers = (
        triangulate_algebraic,
        lambda f: triangulate_line_point(f, point),
        lambda f: triangulate_line_vp(f, np.array([0.0, 0.6, 0.8])),
    )
    for solve in solvers:
        try:
            seg = solve(form)
        except TriangulationError:
            continue
        assert np.isfinite(seg.endpoints()).all()


def test_a_zero_length_reference_ray_scores_zero_and_does_not_triangulate():
    ref, match = side_by_side_views()
    rays = ((0.0, 0.0, 0.0), (0.1, 0.2, 1.0))
    form = float_form(ref, rays, match, ((0.0, 0.0, 1.0), (0.2, 0.3, 1.0)))
    assert form.a[0] == 0.0 and is_degenerate(form.x1, form.n, 1.0)
    assert weak_epipolar_iou(form) == 0.0
    with pytest.raises(DegenerateTriangulationError):
        triangulate_algebraic(form, min_angle_deg=0.0)
    with pytest.raises(TriangulationError):
        triangulate_line_point(form, np.array([0.1, 0.2, 3.0]))
    with pytest.raises(TriangulationError):
        triangulate_line_vp(form, np.array([0.0, 0.6, 0.8]))


def test_coincident_matched_endpoints_score_zero():
    ref, match = side_by_side_views()
    ref_rays = ((0.1, 0.2, 1.0), (0.3, 0.1, 1.0))
    # no match plane: the pipeline scores such a match IoU 0
    assert float_form(ref, ref_rays, match, ((0.2, 0.3, 1.0), (0.2, 0.3, 1.0))) is None
    form = float_form(ref, ref_rays, match, ((0.2, 0.3, 1.0), (0.2, 0.5, 1.0)))
    assert weak_epipolar_iou(dataclasses.replace(form, y2=form.y1)) == 0.0


@pytest.mark.parametrize(
    "match_t, match_rays",
    [
        # side by side: the plane through the image row of the epipole holds the baseline
        ((-1.0, 0.0, 0.0), ((-0.3, 0.0, 1.0), (0.4, 0.0, 1.0))),
        # forward motion: a matched segment on a line through the epipole
        ((0.0, 0.0, -1.0), ((0.1, 0.1, 1.0), (0.3, 0.3, 1.0))),
    ],
)
def test_a_match_plane_through_the_reference_centre_scores_zero(match_t, match_rays):
    ref = identity_view()
    match = CameraView(intrinsics(), np.eye(3), np.array(match_t), 640, 480)
    form = float_form(ref, ((0.1, 0.2, 1.0), (0.3, -0.1, 1.0)), match, match_rays)
    assert form.c == 0.0
    assert weak_epipolar_iou(form) == 0.0
    with pytest.raises(CheiralityError):
        triangulate_algebraic(form, min_angle_deg=0.0)
    assert_every_solver_fails_cleanly(form)


def test_a_reference_ray_parallel_to_the_match_plane_is_degenerate_at_any_threshold():
    ref, match = side_by_side_views()
    # the match plane has normal (-2, 2, -1) / 3, and (0, 0.5, 1) lies in its direction
    rays = ((0.0, 0.5, 1.0), (0.4, 0.1, 1.0))
    form = float_form(ref, rays, match, ((0.0, 0.5, 1.0), (0.5, 1.0, 1.0)))
    assert form.a[0] == 0.0 and form.a[1] != 0.0 and form.c != 0.0
    assert 0.0 <= weak_epipolar_iou(form) <= 1.0
    with pytest.raises(WeaklyDegenerateError):
        triangulate_algebraic(form, min_angle_deg=0.0)
    assert_every_solver_fails_cleanly(form)


# ---------------------------------------------------------------------------
# match blocks against the float oracle: equal bit for bit, row by row
# ---------------------------------------------------------------------------


def same_float(x, y):
    """The same value as Python floats: equal with the same sign (so -0.0 is
    not 0.0), or both NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def same_floats(xs, ys):
    xs, ys = np.ravel(xs).tolist(), np.ravel(ys).tolist()
    return len(xs) == len(ys) and all(map(same_float, xs, ys))


def block_matches(rng):
    """``(kind, match_view, ref_rays, match_rays)`` of matches into one
    reference view, :func:`~support.identity_view`: random true, stretched
    and moved matches and random rays, weakly degenerate matches, and the
    configurations a block must mask."""
    ref = identity_view()
    rays = lambda seg, view: float_rays(seg, view)  # noqa: E731
    while True:
        center = rng.uniform(-3.0, 3.0, size=3)
        match = make_view(center, target=(0.0, 0.0, 5.0) + rng.normal(size=3))
        a, b = (np.array([*rng.uniform(-1.5, 1.5, size=2), rng.uniform(3.0, 7.0)]) for _ in "ab")
        if not all(visible(v, p) for v in (ref, match) for p in (a, b)):
            continue
        s_r, s_m = (project_segment(Segment3D(a, b), v) for v in (ref, match))
        d = s_m.end - s_m.start
        lo, hi = rng.uniform(-0.6, 0.4), rng.uniform(0.6, 1.6)
        yield "true", match, rays(s_r, ref), rays(s_m, match)
        stretched = Segment2D(s_m.start + lo * d, s_m.start + hi * d)
        yield "stretched", match, rays(s_r, ref), rays(stretched, match)
        yield "moved", match, rays(s_r, ref), rays(shifted(s_m, rng.uniform(-2, 2) * d), match)
        random_rays = [tuple([*rng.uniform(-1.0, 1.0, size=2).tolist(), 1.0]) for _ in "xxyy"]
        yield "random", match, tuple(random_rays[:2]), tuple(random_rays[2:])
        _, weak, _, w_r, w_m = weak_degenerate_pair(rng)
        yield "weakly degenerate", weak, rays(w_r, ref), rays(w_m, weak)
        if rng.uniform() < 0.8:
            continue
        _, side = side_by_side_views()
        forward = CameraView(intrinsics(), np.eye(3), np.array([0.0, 0.0, -1.0]), 640, 480)
        twin = identity_view()
        ref_rays = ((0.1, 0.2, 1.0), (0.3, -0.1, 1.0))
        yield "coincident", side, ref_rays, ((0.2, 0.3, 1.0), (0.2, 0.3, 1.0))
        yield "zero baseline", twin, ref_rays, ((0.2, 0.3, 1.0), (0.4, 0.1, 1.0))
        s_r = Segment2D(np.array([300.0, 200.0]), np.array([340.0, 260.0]))
        s_m = Segment2D(np.array([100.0, 220.0]), np.array([400.0, 220.0]))
        yield "parallel epipolar", side, rays(s_r, ref), rays(s_m, side)
        yield "a == 0", side, ((0.0, 0.5, 1.0), (0.4, 0.1, 1.0)), ((0.0, 0.5, 1.0), (0.5, 1.0, 1.0))
        yield "c == 0", side, ref_rays, ((-0.3, 0.0, 1.0), (0.4, 0.0, 1.0))
        yield "c == 0", forward, ref_rays, ((0.1, 0.1, 1.0), (0.3, 0.3, 1.0))
        zero_ray = ((0.0, 0.0, 0.0), (0.1, 0.2, 1.0))
        yield "zero ray", side, zero_ray, ((0.0, 0.0, 1.0), (0.2, 0.3, 1.0))
        nan = float("nan")
        yield "nan", side, ((nan, 0.2, 1.0), (0.3, -0.1, 1.0)), ((0.2, 0.3, 1.0), (0.4, 0.1, 1.0))
        yield "nan", side, ((0.1, 0.2, 1.0), (nan, -0.1, 1.0)), ((0.2, 0.3, 1.0), (0.4, 0.1, 1.0))
        yield "nan", side, ref_rays, ((0.2, 0.3, 1.0), (0.4, nan, 1.0))
        signed = ((-0.0, 0.0, 1.0), (0.0, -0.0, 1.0))
        yield "signed zeros", side, signed, ((-0.0, 0.3, 1.0), (0.2, -0.0, 1.0))
        yield "signed zeros", forward, signed, ((0.0, -0.0, 1.0), (-0.0, 0.2, 1.0))


def test_match_block_equals_the_float_oracle_row_by_row():
    rng = np.random.default_rng(33)
    ref = identity_view()
    cases = list(itertools.islice(block_matches(rng), 2_000))
    poses = [relative_pose(ref, match) for _, match, _, _ in cases]
    stack = lambda rows: np.array(rows, dtype=np.float64)  # noqa: E731
    x1, x2, y1, y2 = (
        stack([c[k][e] for c in cases]) for k, e in ((2, 0), (2, 1), (3, 0), (3, 1))
    )
    R, t = stack([R for R, _ in poses]), stack([t for _, t in poses])
    with np.errstate(all="raise"):
        block = match_rows(ref, R, t, x1, x2, y1, y2)
        iou = weak_epipolar_iou(block).tolist()
        tri = triangulate_algebraic(block)
        degenerate = [degenerate_rows(Rx, block.n, 1.0).tolist() for Rx in (block.Rx1, block.Rx2)]
    outcomes = Counter()
    for i, ((kind, _, ref_rays, match_rays), pose) in enumerate(zip(cases, poses)):
        form = float_ray_plane_form(ref, ref_rays, pose, match_rays)
        assert bool(block.plane[i]) == (form is not None), (i, kind)
        if form is None:
            assert iou[i] == 0.0
            outcomes[kind, "no plane"] += 1
            continue
        got = block.form(i)
        for name in ("R", "t", "x1", "x2", "Rx1", "Rx2", "y1", "y2", "n", "a", "c"):
            assert same_floats(getattr(got, name), getattr(form, name)), (i, kind, name)
        try:
            want_iou = float_weak_epipolar_iou(form)
        except ZeroDivisionError:  # only a NaN row divides by an exact zero
            assert kind == "nan" and not iou[i] >= 0.1
        else:
            assert same_float(iou[i], want_iou), (i, kind)
        for e, Rx in enumerate((form.Rx1, form.Rx2)):
            assert degenerate[e][i] == float_check_degeneracy(Rx, form.n, 1.0), (i, kind)
        bad1, bad2, ok = (bool(x[i]) for x in (tri.bad1, tri.bad2, tri.ok))
        try:
            start, end = float_triangulate_algebraic(form)
        except FullyDegenerateError:
            assert (bad1, bad2, ok) == (True, True, False), (i, kind)
            outcomes[kind, "fully degenerate"] += 1
        except WeaklyDegenerateError:
            assert bad1 != bad2 and not ok, (i, kind)
            outcomes[kind, "weakly degenerate"] += 1
        except CheiralityError:
            assert (bad1, bad2, ok) == (False, False, False), (i, kind)
            outcomes[kind, "cheirality"] += 1
        else:
            assert (bad1, bad2, ok) == (False, False, True), (i, kind)
            assert same_floats(tri.start[i], start) and same_floats(tri.end[i], end), (i, kind)
            outcomes[kind, "segment"] += 1
    # every kind of match, and every outcome, is exercised
    kinds = {kind for kind, _ in outcomes}
    assert kinds == {kind for kind, *_ in cases} and len(kinds) == 13
    totals = Counter(outcome for _, outcome in outcomes.elements())
    assert totals["segment"] >= 500 and totals["cheirality"] >= 100, totals
    assert totals["weakly degenerate"] >= 100 and totals["fully degenerate"] >= 1, totals
    assert sum(x >= 0.1 for x in iou) >= 500
    # the masked configurations end where the scalar code's early returns do
    special = {
        "coincident": "no plane",
        "zero baseline": "cheirality",
        "parallel epipolar": "cheirality",
        "a == 0": "weakly degenerate",
        "c == 0": "cheirality",
        "zero ray": "weakly degenerate",
    }
    for kind, outcome in special.items():
        assert {o for k, o in outcomes if k == kind} == {outcome}, kind
        if kind != "a == 0":
            assert {x for x, c in zip(iou, cases) if c[0] == kind} == {0.0}, kind


def test_each_detection_keeps_its_first_ten_passing_matches_in_match_order():
    # one detection matched into 15 views twice each, its true image and a
    # moved copy, with self matches and matches into two non-neighbours mixed in
    ref = identity_view()
    gt = Segment3D(np.array([-0.5, -0.3, 5.0]), np.array([0.6, 0.4, 6.0]))
    views, detections = {0: ref}, {0: [project_segment(gt, ref)]}
    for j in range(1, 16):
        angle = 2.0 * np.pi * j / 15
        views[j] = make_view((2.5 * np.cos(angle), 2.5 * np.sin(angle), 0.5), target=(0, 0, 5.5))
        true = project_segment(gt, views[j])
        detections[j] = [true, shifted(true, 3.0 * (true.end - true.start))]
    row = [(0, 0)] + [(j, k) for j in range(1, 16) for k in (1, 0)]
    row.insert(9, (0, 0))
    neighbors = [j for j in range(16) if j not in (4, 9)]
    rays = pipeline.RayTable.solve(views, detections)
    cue = pipeline.ImageCues(0, neighbors, [row], [[]], [None])
    (props,) = pipeline._proposals(views, rays, [cue])
    passing = []
    for j, k in row:
        if j != 0 and j in neighbors:
            form = float_ray_plane_form(
                ref,
                float_rays(detections[0][0], ref),
                relative_pose(ref, views[j]),
                float_rays(detections[j][k], views[j]),
            )
            if form is not None and float_weak_epipolar_iou(form) >= pipeline.IOU_MIN:
                passing.append((j, k))
    assert len(passing) == 13 and all(k == 0 for _, k in passing)
    assert props.kept == [passing[: pipeline.TOP_K_MATCHES]]
    # one algebraic proposal per kept match, in match order
    assert props.gens == [j for j, _ in passing[:10]] and props.counts == [10]


# ---------------------------------------------------------------------------
# rescue blocks and the track trim against the scalar oracle, row by row
# ---------------------------------------------------------------------------


def close_rows(got, want, tol):
    """Endpoints within ``tol``."""
    return np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64)).max() <= tol


def row_outcome(rows, i):
    """Row ``i`` of a RescueRows block: its segment, or its failure as the
    ``(exception class, message)`` that one form or one detection raises."""
    code = int(rows.failure[i])
    return FAILURES[code] if code else (rows.start[i], rows.end[i])


def oracle_outcome(solve, *args):
    """The oracle's endpoints, or ``(exception class, message)``; any other
    exception (a NaN reaching LAPACK) as ``(class, None)``."""
    try:
        out = solve(*args)
    except TriangulationError as exc:
        return type(exc), str(exc)
    except (np.linalg.LinAlgError, ValueError) as exc:
        return type(exc), None
    return (out.start, out.end) if isinstance(out, Segment3D) else out


SCENE_SCALE = 10.0  # the rescue scenes lie within about this distance of the camera
NEAR_DOUBLE = 1e-3  # two multipliers this close, relative to their size, are a near-double root


def point_tolerance(form, point):
    """How far a point-rescue row's endpoints may stray from the oracle's:
    1e-9 of the scene scale, or 1e-6 of it where the multiplier polynomial
    has two real roots within :data:`NEAR_DOUBLE` of each other.  Such a
    pair of roots, and the depths at them, move by about the square root
    of the coefficients' rounding (1e-8 of the scene in one random row), in
    the oracle as in the block."""
    try:
        Q, q = reference_point_constraint(form, point)
        sols = reference_solve_constrained_quadratic(*reference_plane_cost(form), Q, q)
    except (TriangulationError, np.linalg.LinAlgError):  # a failure, or a NaN row
        return 1e-9 * SCENE_SCALE
    mus = sorted(mu for *_, mu in sols)
    near = any(b - a < NEAR_DOUBLE * max(1.0, abs(a), abs(b)) for a, b in zip(mus, mus[1:]))
    return (1e-6 if near else 1e-9) * SCENE_SCALE


def assert_rows_match_the_oracle(rows, oracle, kinds, tolerances=None):
    """Every row ends as the oracle does; returns Counter((kind, outcome))."""
    outcomes = Counter()
    for i, (kind, want) in enumerate(zip(kinds, oracle)):
        got = row_outcome(rows, i)
        if kind == "nan":
            # the block flags the row; the oracle raises or carries the NaN into its endpoints
            assert isinstance(got[0], type), (i, kind, got)
            if not isinstance(want[0], type):
                assert not np.isfinite(np.concatenate(want)).all(), (i, kind, want)
            outcomes[kind, "flagged"] += 1
        elif isinstance(want[0], type):
            assert got == want, (i, kind, got, want)
            outcomes[kind, want[0].__name__ + ": " + want[1]] += 1
        else:
            assert not isinstance(got[0], type), (i, kind, got, want)
            tol = 1e-9 * SCENE_SCALE if tolerances is None else tolerances[i]
            assert close_rows(got, want, tol), (i, kind, got, want)
            outcomes[kind, "segment"] += 1
    return outcomes


def rescue_cases(rng, n):
    """``(kind, pose, ref_rays, match_rays, point, vp)`` of matches into a
    reference camera at the world origin, looking down z: each random or
    weakly degenerate two-view pair is moved into the reference camera's
    frame, with a point on the line, off it, behind the camera or at its
    centre, and the line's direction or a random one."""
    for _ in range(n):
        if rng.uniform() < 0.5:
            ref, match, gt, s_r, s_m = weak_degenerate_pair(rng)
        else:
            ref, match, gt, s_r, s_m = random_two_view_segment(rng, min_plane_angle_deg=0.0)
        pose = relative_pose(ref, match)
        ref_rays, match_rays = float_rays(s_r, ref), float_rays(s_m, match)
        to_ref = lambda p: ref.R @ p + ref.t  # noqa: E731
        on_line = to_ref(gt.start + rng.uniform(0.2, 0.8) * (gt.end - gt.start))
        direction = ref.R @ gt.direction
        yield "on line", pose, ref_rays, match_rays, on_line, direction
        yield "off line", pose, ref_rays, match_rays, on_line + rng.normal(size=3), rng.normal(size=3)
        yield "behind", pose, ref_rays, match_rays, -on_line, direction + 0.3 * rng.normal(size=3)
        if rng.uniform() < 0.8:
            continue
        yield "at centre", pose, ref_rays, match_rays, np.zeros(3), direction
        yield "coincident", pose, (ref_rays[0], ref_rays[0]), match_rays, on_line, direction
        off_plane = np.cross(ref_rays[0], ref_rays[1])
        yield "off plane", pose, ref_rays, match_rays, on_line, off_plane
        tiny = tuple(tuple(1e-5 * v for v in x) for x in ref_rays)
        yield "tiny rays", pose, tiny, match_rays, on_line, direction
        nan = float("nan")
        yield "nan", pose, ((nan, 0.1, 1.0), ref_rays[1]), match_rays, on_line, direction
        yield "nan", pose, ref_rays, match_rays, np.array([nan, 0.0, 3.0]), np.array([0.0, nan, 1.0])


def rescue_block(cases):
    ref = identity_view()
    stack = lambda rows: np.array(rows, dtype=np.float64)  # noqa: E731
    R, t = stack([c[1][0] for c in cases]), stack([c[1][1] for c in cases])
    x1, x2, y1, y2 = (stack([c[k][e] for c in cases]) for k, e in ((2, 0), (2, 1), (3, 0), (3, 1)))
    block = match_rows(ref, R, t, x1, x2, y1, y2)
    return block, stack([c[4] for c in cases]), stack([c[5] for c in cases])


def test_point_and_vp_rescue_blocks_equal_the_scalar_oracle_row_by_row():
    rng = np.random.default_rng(34)
    cases = [c for c in rescue_cases(rng, 150)]
    block, points, vps = rescue_block(cases)
    assert block.plane.all()
    kinds = [c[0] for c in cases]
    with np.errstate(all="raise"):
        by_point = triangulate_line_point(block, points)
        by_vp = triangulate_line_vp(block, vps)
    forms = [block.form(i) for i in range(len(cases))]
    with np.errstate(all="ignore"):
        want_point = [oracle_outcome(reference_triangulate_line_point, f, p) for f, p in zip(forms, points)]
        want_vp = [oracle_outcome(reference_triangulate_line_vp, f, v) for f, v in zip(forms, vps)]
        tol_point = [point_tolerance(f, p) for f, p in zip(forms, points)]
    point = assert_rows_match_the_oracle(by_point, want_point, kinds, tol_point)
    vp = assert_rows_match_the_oracle(by_vp, want_vp, kinds)
    # all but a few near-double rows keep to 1e-9 of the scene scale
    strays = [
        i
        for i, want in enumerate(want_point)
        if not isinstance(want[0], type)
        and not close_rows(row_outcome(by_point, i), want, 1e-9 * SCENE_SCALE)
    ]
    assert len(strays) <= 3 and all(tol_point[i] > 1e-9 * SCENE_SCALE for i in strays), strays
    outcomes = lambda counts: Counter(o for _, o in counts.elements())  # noqa: E731
    assert outcomes(point)["segment"] >= 250 and outcomes(vp)["segment"] >= 250
    assert {o.split(":")[0] for o in outcomes(point)} >= {
        "segment",
        "CheiralityError",
        "TriangulationError",
        "DegenerateTriangulationError",
    }
    # each failure mode of the scalar code is reached
    assert outcomes(point)["TriangulationError: reference segment endpoints coincide"] >= 1
    assert outcomes(point)["DegenerateTriangulationError: 3D point projects to the camera center"] >= 1
    assert outcomes(point)["CheiralityError: no candidate places the segment in front of both cameras"] >= 1
    assert outcomes(vp)[
        "DegenerateTriangulationError: vanishing direction is perpendicular to the ray plane"
    ] >= 1
    assert outcomes(vp)["DegenerateTriangulationError: vanishing direction constrains neither ray"] >= 1
    assert outcomes(vp)["CheiralityError: no candidate places the segment in front of both cameras"] >= 1
    assert point["nan", "flagged"] == vp["nan", "flagged"] >= 2
    # one form is a block of one row: the same outcome, raised
    for i in range(0, len(cases), 7):
        for solve, cue, want in ((triangulate_line_point, points, want_point), (triangulate_line_vp, vps, want_vp)):
            if kinds[i] == "nan":
                continue
            try:
                seg = solve(forms[i], cue[i])
            except TriangulationError as exc:
                assert (type(exc), str(exc)) == want[i]
            else:
                assert close_rows((seg.start, seg.end), want[i], 1e-6 * SCENE_SCALE)


def constrained_cases(rng):
    """``(kind, A, b, Q, q)``: random problems, the point and VP rescue's
    shapes, and the configurations the solver has to get right."""
    sym = lambda M: 0.5 * (M + M.T)  # noqa: E731
    for _ in range(150):
        G = rng.normal(size=(2, 2))
        yield "random", G.T @ G + 0.1 * np.eye(2), rng.normal(size=2), sym(rng.normal(size=(2, 2))), rng.normal(size=2)
        a = rng.normal(size=2)
        h = rng.normal()
        yield "point", np.diag(a * a), 2.0 * rng.normal() * a, np.array([[0.0, h], [h, 0.0]]), rng.normal(size=2)
        yield "vp", np.diag(a * a), 2.0 * rng.normal() * a, np.zeros((2, 2)), rng.normal(size=2)
    # no real root: an indefinite cost on a cone through the origin
    for _ in range(20):
        yield "indefinite", sym(rng.normal(size=(2, 2))), rng.normal(size=2), sym(rng.normal(size=(2, 2))), np.zeros(2)
    # a singular A + mu Q at the root mu = 0
    yield "singular", np.diag([0.0, 1.0]), np.array([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([0.5, -1.0])
    # q1 = 0: the numerator's leading coefficient vanishes, degree 3
    yield "degree 3", np.diag([1.0, 2.0]), np.array([-1.0, -3.0]), np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([-1.0, 0.0])
    # Q = 0 with a singular KKT matrix (p^T A p = 0 for p along the constraint)
    yield "singular kkt", np.diag([0.0, 2.0]), np.array([0.0, 3.0]), np.zeros((2, 2)), np.array([0.0, 1.5])
    yield "singular kkt", np.diag([3.0, 0.0]), np.array([1.0, 0.0]), np.zeros((2, 2)), np.array([-2.0, 0.0])
    yield "singular kkt", np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.array([1.0, 2.0])
    yield "singular kkt", np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -2.0]), np.zeros((2, 2)), np.array([1.0, 1.0])
    # p^T A p = 0 with p^T A q != 0: the least-squares solution is not 0
    yield "singular kkt", np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([1.0, -2.0]), np.zeros((2, 2)), np.array([2.0, 0.0])
    yield "singular kkt", np.array([[0.0, -0.5], [-0.5, 3.0]]), np.array([0.7, 0.2]), np.zeros((2, 2)), np.array([0.0, -3.0])
    nan = float("nan")
    yield "nan", np.diag([nan, 1.0]), np.ones(2), np.array([[0.0, 0.5], [0.5, 0.0]]), np.ones(2)
    yield "nan", np.eye(2), np.ones(2), np.zeros((2, 2)), np.array([nan, 1.0])


def test_constrained_solver_block_equals_the_scalar_oracle_row_by_row():
    rng = np.random.default_rng(35)
    cases = list(constrained_cases(rng))
    A, b, Q, q = (np.array([c[k] for c in cases]) for k in range(1, 5))
    with np.errstate(all="raise"):
        block = solve_constrained_quadratic(A, b, Q, q)
    kinds = Counter()
    for i, (kind, *problem) in enumerate(cases):
        got = [(lam, cost) for lam, cost, ok in zip(block.lam[i], block.cost[i], block.valid[i]) if ok]
        assert block.valid[i].tolist() == sorted(block.valid[i].tolist(), reverse=True)
        if kind == "nan":
            assert got == []
            continue
        want = reference_solve_constrained_quadratic(*problem)
        assert len(got) == len(want), (i, kind)
        kinds[kind, len(want)] += 1
        for (lam, cost), (want_lam, want_cost, _) in zip(got, want):
            scale = max(1.0, np.abs(want_lam).max())
            assert np.abs(lam - want_lam).max() <= 1e-9 * scale, (i, kind, lam, want_lam)
            assert abs(cost - want_cost) <= 1e-9 * scale * scale, (i, kind)
        # one problem is a block of one row
        one = solve_constrained_quadratic(*problem)
        assert [s.lam.tolist() for s in one] == [lam.tolist() for lam, _ in got]
    counts = Counter(kind for kind, _ in kinds.elements())
    assert counts["random"] == counts["point"] == counts["vp"] == 150
    # some problems have no real root, and some have four candidates
    assert kinds["indefinite", 0] + kinds["random", 0] >= 1
    assert kinds["random", 4] + kinds["point", 4] >= 1
    assert kinds["singular", 1] == 1  # the root mu = 0 is skipped
    assert kinds["degree 3", 2] == 1
    assert kinds["singular kkt", 1] == 6


def test_candidate_order_breaks_cost_ties_by_the_larger_smallest_depth():
    # two candidates of one problem tie in cost only where two multiplier
    # roots merge, and there rounding decides; so the tie rule is checked on
    # the ordering step, against the oracle's ordering, with planted ties.
    # Runs of costs within TIE_COST of their first, as the oracle forms them:
    # exact ties, ties just inside and just outside the window, a run that a
    # third candidate extends past the window of the second, and invalid slots
    rng = np.random.default_rng(38)
    base = rng.normal(size=(400, 1))
    steps = TIE_COST * rng.choice([0.0, 0.3, 0.6, 0.99, 1.01, 1e7], size=(400, 4))
    cost = base + np.cumsum(steps, axis=1)[:, rng.permutation(4)]
    lam = rng.normal(size=(400, 4, 2))
    valid = rng.uniform(size=(400, 4)) < 0.85
    got_lam, got_cost, got_valid = _preference_order(lam, np.where(valid, cost, 0.0), valid)
    reordered = 0
    for i in range(400):
        sols = [(lam[i, k], cost[i, k]) for k in range(4) if valid[i, k]]
        want = reference_preference_order(sols)
        assert got_valid[i].tolist() == [k < len(sols) for k in range(4)]
        assert [l.tolist() for l in got_lam[i, : len(sols)]] == [l.tolist() for l, _ in want]
        reordered += [c for _, c in want] != sorted(c for _, c in want)
    assert reordered >= 50


def multipoint_cases(rng, view, n):
    """``(kind, rays, points)`` of detections in ``view``."""
    center = view.camera_center
    while n > 0:
        a, b = (np.array([*rng.uniform(-1.5, 1.5, size=2), rng.uniform(3.0, 7.0)]) for _ in "ab")
        gt = Segment3D(view.R.T @ (a - view.t), view.R.T @ (b - view.t))
        seg = project_segment(gt, view)
        if seg is None or seg.length < 5.0:
            continue
        rays = np.array(endpoint_rays(seg, view))
        along = lambda k: gt.start + rng.uniform(-0.2, 1.2, size=(k, 1)) * (gt.end - gt.start)  # noqa: E731
        k = int(rng.integers(2, 6))
        yield "on line", rays, along(k)
        yield "noisy", rays, along(k) + 0.01 * rng.normal(size=(k, 3))
        yield "random", rays, rng.normal(size=(k, 3)) * 3.0
        n -= 1
        if rng.uniform() < 0.7:
            continue
        yield "one point", rays, along(1)
        yield "no point", rays, np.zeros((0, 3))
        yield "coincident", rays, np.tile(gt.midpoint, (3, 1))
        ray = view.R.T @ normalized(rays[0])
        yield "parallel", rays, center + np.array([2.0, 3.0, 5.0])[:, None] * ray
        yield "behind", rays, 2.0 * center - along(k)
        yield "nan", rays, np.vstack([along(2), [[np.nan, 0.0, 1.0]]])


def test_multipoint_block_equals_the_scalar_oracle_row_by_row():
    rng = np.random.default_rng(36)
    view = make_view((1.0, -2.0, -3.0), target=(0.0, 0.0, 4.0))
    cases = list(multipoint_cases(rng, view, 120))
    rays = np.array([c[1] for c in cases])
    owner = np.repeat(np.arange(len(cases)), [len(c[2]) for c in cases])
    points = np.concatenate([c[2] for c in cases])
    with np.errstate(all="raise"):
        rows = triangulate_multipoint(rays, view, points, owner)
    with np.errstate(all="ignore"):
        want = [oracle_outcome(reference_triangulate_multipoint, r, view, p) for _, r, p in cases]
    outcomes = assert_rows_match_the_oracle(rows, want, [c[0] for c in cases])
    reached = {o for _, o in outcomes}
    assert reached >= {
        "segment",
        "TriangulationError: need at least two 3D points to fit a line",
        "DegenerateTriangulationError: 3D points are coincident; no line direction",
        "DegenerateTriangulationError: fitted line is parallel to an endpoint ray",
        "CheiralityError: fitted segment lies behind the reference view",
        "flagged",
    }, outcomes
    assert sum(c for (k, o), c in outcomes.items() if o == "segment") >= 300
    # one detection is a block of one row, bit for bit
    for i in range(0, len(cases), 5):
        if cases[i][0] == "nan":
            continue
        one = oracle_outcome(triangulate_multipoint, rays[i], view, cases[i][2])
        got = row_outcome(rows, i)
        if isinstance(got[0], type):
            assert one == got
        else:
            assert np.array(one).tobytes() == np.array(got).tobytes()


def test_trim_block_equals_the_scalar_oracle_line_by_line():
    rng = np.random.default_rng(37)
    views = [make_view(normalized(rng.normal(size=3)) * rng.uniform(4.0, 6.0)) for _ in range(8)]
    lines, rays, support_views, owner, supports = [], [], [], [], []
    for li in range(60):
        a, b = rng.uniform(-1.0, 1.0, size=(2, 3))
        line = PluckerLine.from_two_points(a, b)
        mine = []
        for _ in range(int(rng.integers(0, 9))):
            view = views[int(rng.integers(len(views)))]
            s, e = (a + rng.uniform(-0.3, 1.3) * (b - a) for _ in "se")
            x = [view.R @ p + view.t for p in (s, e)]
            if rng.uniform() < 0.1:
                # a ray along the line has no closest point and is skipped
                x[0] = view.R @ line.d
            if rng.uniform() < 0.2:
                x[1] = x[1] + rng.normal(size=3) * 0.1
            mine.append((np.array(x), view))
        lines.append(line)
        supports.append(mine)
        for r, view in mine:
            rays.append(r)
            support_views.append(view)
            owner.append(li)
    with np.errstate(all="raise"):
        got = segment_on_line_from_supports(
            lines, np.array(rays).reshape(-1, 2, 3), support_views, np.array(owner, dtype=np.intp)
        )
    nones = 0
    for line, mine, seg in zip(lines, supports, got):
        want = reference_segment_on_line_from_supports(line, mine)
        assert (seg is None) == (want is None)
        if want is None:
            nones += 1
            continue
        assert close_rows(seg.endpoints(), want.endpoints(), 1e-9 * SCENE_SCALE)
        one = segment_on_line_from_supports(line, np.array([r for r, _ in mine]), [v for _, v in mine])
        assert one.endpoints().tobytes() == seg.endpoints().tobytes()
    assert 1 <= nones < 20
    # no lines, no segments
    assert segment_on_line_from_supports([], np.zeros((0, 2, 3)), [], np.zeros(0, dtype=np.intp)) == []

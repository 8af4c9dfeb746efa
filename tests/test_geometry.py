import math

import numpy as np
import pytest

from linemap.association import principal_direction
from linemap.geometry import (
    EPS,
    CameraView,
    MinimalLineParam,
    PluckerLine,
    Segment2D,
    Segment3D,
    acute_angle,
    closest_point_line_to_line,
    cross3,
    distinct_index_pairs,
    dot3,
    minimal_to_plucker,
    normalized,
    planar_rows,
    plucker_from_segment,
    plucker_to_minimal,
    point_line_distance_3d,
    point_segment_distances,
    point_to_infinite_line_2d,
    project_line,
    project_point_to_line3d,
    project_segment,
    quat_exp,
    quat_mul,
    quat_to_rotmat,
    relative_pose,
    rotmat_to_quat,
)

from support import reference_planar_record


def random_rotation(rng):
    q = rng.normal(size=4)
    return quat_to_rotmat(q / np.linalg.norm(q))


def random_view(rng, f=600.0):
    K = np.array([[f, 0.0, 320.0], [0.0, f, 240.0], [0.0, 0.0, 1.0]])
    return CameraView(K, random_rotation(rng), rng.normal(size=3), 640, 480)


def sweep_min_on_line(line, fun, lo=-20.0, hi=20.0, rounds=4, n=8001):
    # coarse-to-fine scan of fun(point_on_line) over the line parameter
    best_s = 0.0
    for _ in range(rounds):
        s = np.linspace(lo, hi, n)
        pts = line.closest_point_to_origin()[None, :] + s[:, None] * line.d[None, :]
        vals = fun(pts)
        i = int(np.argmin(vals))
        best_s = s[i]
        half = (hi - lo) / (n - 1) * 2
        lo, hi = best_s - half, best_s + half
    return line.point_at(best_s)


# ---------------------------------------------------------------------------
# hand-checked values
# ---------------------------------------------------------------------------


def test_plucker_from_axis_aligned_segment():
    seg = Segment3D(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]))
    line = plucker_from_segment(seg)
    np.testing.assert_allclose(line.d, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(line.m, [0.0, 1.0, 0.0], atol=1e-15)


def test_minimal_param_of_unit_offset_line():
    line = PluckerLine(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    par = plucker_to_minimal(line)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(par.w, [r, r], atol=1e-15)
    U = par.rotation()
    np.testing.assert_allclose(U[:, 0], line.d, atol=1e-12)
    np.testing.assert_allclose(U[:, 1], line.m, atol=1e-12)
    back = minimal_to_plucker(par)
    np.testing.assert_allclose(back.d, line.d, atol=1e-12)
    np.testing.assert_allclose(back.m, line.m, atol=1e-12)


def test_project_point_onto_offset_line():
    line = PluckerLine(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    p = np.array([0.0, 2.0, 0.0])
    np.testing.assert_allclose(project_point_to_line3d(p, line), [0.0, 0.0, 1.0], atol=1e-14)


def test_closest_point_between_skew_axis_lines():
    l1 = PluckerLine.from_two_points(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    l2 = PluckerLine.from_two_points(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]))
    np.testing.assert_allclose(closest_point_line_to_line(l1, l2), [0.0, 0.0, 0.0], atol=1e-14)


def test_closest_point_parallel_lines_raises():
    l1 = PluckerLine.from_two_points(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    l2 = PluckerLine.from_two_points(np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        closest_point_line_to_line(l1, l2)


# ---------------------------------------------------------------------------
# properties over random instances
# ---------------------------------------------------------------------------


def test_plucker_sign_is_canonical():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, q = rng.normal(size=3), rng.normal(size=3)
        a = PluckerLine.from_two_points(p, q)
        b = PluckerLine.from_two_points(q, p)
        np.testing.assert_allclose(a.d, b.d, atol=1e-12)
        np.testing.assert_allclose(a.m, b.m, atol=1e-12)


def test_sign_free_directions_skip_a_leading_component_within_eps():
    d = np.array([1e-13, -1.0, 0.0])
    m = cross3(np.array([1.0, 0.0, 0.0]), d)
    for line in (PluckerLine(d, m), PluckerLine(-d, -m)):
        assert line.d.tolist() == [-1e-13, 1.0, 0.0]
        assert line.m.tolist() == [0.0, 0.0, 1.0]
    for dirs in ([d], [-d], [d, -d]):
        got = principal_direction(np.array(dirs))
        assert got[1] > 0
        np.testing.assert_allclose(got, [0.0, 1.0, 0.0], atol=1e-12)


def test_moment_is_point_independent():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p, q = rng.normal(size=3), rng.normal(size=3)
        line = PluckerLine.from_two_points(p, q)
        s = rng.uniform(-5, 5)
        other = PluckerLine.from_point_direction(p + s * (q - p), q - p)
        np.testing.assert_allclose(line.m, other.m, atol=1e-10)


def test_minimal_roundtrip_random_lines():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        line = PluckerLine.from_two_points(rng.normal(size=3), rng.normal(size=3))
        back = minimal_to_plucker(plucker_to_minimal(line))
        worst = max(worst, np.max(np.abs(back.d - line.d)), np.max(np.abs(back.m - line.m)))
    assert worst < 1e-9


def test_minimal_roundtrip_line_through_origin():
    line = PluckerLine.from_two_points(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert np.linalg.norm(line.m) < 1e-15
    back = minimal_to_plucker(plucker_to_minimal(line))
    np.testing.assert_allclose(back.d, line.d, atol=1e-12)
    np.testing.assert_allclose(back.m, 0.0, atol=1e-12)


def test_point_projection_matches_sweep_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        line = PluckerLine.from_two_points(rng.normal(size=3), rng.normal(size=3))
        p = rng.normal(size=3) * 3
        foot = project_point_to_line3d(p, line)
        oracle = sweep_min_on_line(line, lambda pts: np.linalg.norm(pts - p[None, :], axis=1))
        assert np.linalg.norm(foot - oracle) < 1e-6
        # foot is on the line and the residual is orthogonal to it
        assert point_line_distance_3d(foot, line) < 1e-10
        assert abs((p - foot) @ line.d) < 1e-10


def test_line_line_closest_matches_sweep_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        l1 = PluckerLine.from_two_points(rng.normal(size=3), rng.normal(size=3))
        l2 = PluckerLine.from_two_points(rng.normal(size=3), rng.normal(size=3))
        pc = closest_point_line_to_line(l1, l2)
        # distance of many points to l2 at once:  |d2 x p + m2|
        dist = lambda pts: np.linalg.norm(np.cross(np.broadcast_to(l2.d, pts.shape), pts) + l2.m, axis=1)
        oracle = sweep_min_on_line(l1, dist)
        assert np.linalg.norm(pc - oracle) < 1e-6


def test_projected_line_contains_projected_points():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 100:
        view = random_view(rng)
        line = PluckerLine.from_two_points(rng.normal(size=3) * 2, rng.normal(size=3) * 2)
        l2d = project_line(line, view)
        for s in rng.uniform(-3, 3, size=4):
            p = line.point_at(s)
            try:
                px = view.project_point(p)
            except ValueError:
                continue
            assert point_to_infinite_line_2d(px, l2d) < 1e-6
            checked += 1


def test_project_line_through_center_raises():
    rng = np.random.default_rng(13)
    view = random_view(rng)
    c = view.camera_center
    line = PluckerLine.from_two_points(c, c + np.array([0.1, 0.2, 1.0]))
    with pytest.raises(ValueError):
        project_line(line, view)


def test_project_segment_consistent_with_project_point():
    rng = np.random.default_rng(14)
    view = CameraView(np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]]), np.eye(3), np.zeros(3), 640, 480)
    seg = Segment3D(np.array([0.2, -0.1, 3.0]), np.array([-0.4, 0.3, 5.0]))
    s2 = project_segment(seg, view)
    np.testing.assert_allclose(s2.start, view.project_point(seg.start))
    np.testing.assert_allclose(s2.end, view.project_point(seg.end))
    for _ in range(200):
        view = random_view(rng)
        seg = Segment3D(rng.normal(size=3) * 3, rng.normal(size=3) * 3)
        if view.depth(seg.start) <= 1e-3 or view.depth(seg.end) <= 1e-3:
            continue
        s2 = project_segment(seg, view)
        ref = Segment2D(view.project_point(seg.start), view.project_point(seg.end))
        assert s2.start.tobytes() == ref.start.tobytes()
        assert s2.end.tobytes() == ref.end.tobytes()


def test_project_segment_is_none_at_or_behind_the_camera_plane():
    K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]])
    view = CameraView(K, np.eye(3), np.zeros(3), 640, 480)
    front = np.array([0.2, -0.1, 3.0])
    behind = np.array([0.1, 0.4, -2.0])
    on_plane = np.array([0.3, 0.2, 0.0])
    for a, b in ((behind, front), (front, behind), (on_plane, front), (front, on_plane)):
        assert project_segment(Segment3D(a, b), view) is None
    with pytest.raises(ValueError):
        view.project_point(behind)


def project_line_camera_frame(line, view):
    """Line image from the camera-frame Plucker pair: ``K^-T (R m + t x R d)``."""
    d_c = view.R @ line.d
    l = np.linalg.solve(view.K.T, view.R @ line.m + cross3(view.t, d_c))
    return l / np.linalg.norm(l[:2])


def test_project_line_matches_the_camera_frame_formula():
    rng = np.random.default_rng(18)
    for _ in range(1000):
        f = rng.uniform(200.0, 2000.0)
        fy, cx, cy = f * rng.uniform(0.9, 1.1), rng.uniform(0, 640), rng.uniform(0, 480)
        K = np.array([[f, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
        view = CameraView(K, random_rotation(rng), rng.normal(size=3) * 5, 640, 480)
        line = PluckerLine.from_two_points(rng.normal(size=3) * 5, rng.normal(size=3) * 5)
        got, ref = project_line(line, view), project_line_camera_frame(line, view)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def centre_by_rows(view):
    """``-(R^T t)`` with each entry summed as ``(a0*b0 + a1*b1) + a2*b2``."""
    Rt, t = view.R.T.tolist(), view.t.tolist()
    return np.array([-dot3(row, t) for row in Rt])


def test_cached_attributes_are_computed_once():
    rng = np.random.default_rng(19)
    view = random_view(rng)
    seg2 = Segment2D([1.0, 2.0], [30.0, -4.0])
    seg3 = Segment3D([1.0, 2.0, 3.0], [-2.0, 0.5, 1.0])
    for obj, names in (
        (view, ("focal", "camera_center", "projection", "line_map", "floats")),
        (seg2, ("length", "direction", "infinite_line")),
        (seg3, ("length", "direction")),
    ):
        for name in names:
            assert getattr(obj, name) is getattr(obj, name)
    # the centre is -(R^T t) summed term by term, which no BLAS kernel rounds
    assert view.camera_center.tobytes() == centre_by_rows(view).tobytes()
    np.testing.assert_allclose(view.camera_center, -view.R.T @ view.t, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        Segment2D([1.0, 2.0, 3.0], [4.0, 5.0])
    with pytest.raises(ValueError):
        Segment2D([1.0, 2.0], [[4.0, 5.0]])


def test_segment_float_record_keeps_the_bits_of_its_float_length():
    # Segment3D.length is sqrt((d0*d0 + d1*d1) + d2*d2) of d = end - start on
    # Python floats, and the direction divides d by it term by term;
    # normalized() divides by numpy's BLAS norm, whose kernel may fuse the
    # sum and round the last bit differently
    rng = np.random.default_rng(20)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-4, 4)
        seg = Segment3D(rng.normal(size=3) * scale, rng.normal(size=3) * scale)
        d = (seg.end - seg.start).tolist()
        n = math.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])
        assert seg.length == n
        assert seg.direction.tolist() == [x / n for x in d]
        np.testing.assert_allclose(seg.direction, normalized(seg.end - seg.start), rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        Segment3D([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).direction


def test_segment2d_line_keeps_the_bits_and_the_sign_of_zero():
    # the supporting line is (y1 - y2, x2 - x1, x1*y2 - x2*y1) / length term
    # by term: a level or plumb segment has a zero coefficient, and its sign
    # (+0.0 from y1 - y2, where -(y2 - y1) gives -0.0) moves VP estimation
    rng = np.random.default_rng(21)
    cases = [(0.0, 0.0, 5.0, 0.0), (5.0, -0.0, -0.0, -0.0), (0.0, 0.0, 0.0, 5.0), (-0.0, 5.0, -0.0, 0.0)]
    for _ in range(500):
        x1, y1, x2, y2 = rng.uniform(-700.0, 700.0, 4).tolist()
        cases += [(x1, y1, x2, y2), (x1, y1, x2, y1), (x1, y1, x1, y2)]  # random, level, plumb
    zeros = 0
    for x1, y1, x2, y2 in cases:
        seg, want = Segment2D([x1, y1], [x2, y2]), reference_planar_record(x1, y1, x2, y2)
        got = seg.infinite_line.tolist() + seg.direction.tolist()
        for g, r in zip(got, want.line + want.direction[:2]):
            assert g == r and math.copysign(1.0, g) == math.copysign(1.0, r), (x1, y1, x2, y2)
            zeros += g == 0.0
    assert zeros >= 1000
    for name in ("direction", "infinite_line"):
        with pytest.raises(ValueError):
            getattr(Segment2D([1.0, 2.0], [1.0, 2.0]), name)


def test_planar_rows_equal_the_scalar_record_bit_for_bit():
    # random, level and plumb segments, two kinds of length near EPS (on
    # both sides of it), and signed zeros
    rng = np.random.default_rng(22)
    n = 2500
    x1, y1, x2, y2 = rng.uniform(-700.0, 700.0, (4, n))
    tiny = rng.uniform(0.25, 4.0, (2, n)) * EPS * rng.choice([-1.0, 1.0], (2, n))
    kinds = [
        (x1, y1, x2, y2),
        (x1, y1, x2, y1),
        (x1, y1, x1, y2),
        (x1, y1, x1 + tiny[0], y1 + tiny[1]),
        (x1, y1, x1 + tiny[0], y1),
    ]
    zeros = [
        (0.0, 0.0, 5.0, 0.0),
        (5.0, -0.0, -0.0, -0.0),
        (0.0, 0.0, 0.0, 5.0),
        (-0.0, 5.0, -0.0, 0.0),
        (0.0, 0.0, 5.0, -0.0),  # dy = -0.0
        (0.0, 5.0, -0.0, 0.0),  # dx = -0.0
    ]
    x1, y1, x2, y2 = (np.concatenate(c) for c in zip(*kinds, np.array(zeros).T))
    rows = planar_rows(x1, y1, x2, y2)
    assert len(rows.ok) > 10_000
    fields = ("u", "v", "l0", "l2", "length")
    short = 0
    for i, case in enumerate(zip(x1.tolist(), y1.tolist(), x2.tolist(), y2.tolist())):
        want = reference_planar_record(*case)
        assert bool(rows.ok[i]) == (want is not None), case
        if want is None:
            short += 1
            continue
        assert [rows.x1[i], rows.y1[i], rows.x2[i], rows.y2[i]] == list(case)
        expected = (*want.direction[:2], want.line[0], want.line[2], want.length)
        for name, w in zip(fields, expected):
            g = float(getattr(rows, name)[i])
            assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), (name, case)
        assert float(rows.u[i]) == want.line[1]
    assert short > 100 and (rows.ok & (rows.length < 4 * EPS)).sum() > 100


def test_relative_pose_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a, b = random_view(rng), random_view(rng)
        R, t = relative_pose(a, b)
        assert all(isinstance(v, float) for row in (*R, t) for v in row)
        R, t = np.array(R), np.array(t)
        X = rng.normal(size=3)
        Xa = a.R @ X + a.t
        Xb = b.R @ X + b.t
        np.testing.assert_allclose(R @ Xa + t, Xb, atol=1e-10)


def test_quaternion_rotation_roundtrip():
    rng = np.random.default_rng(16)
    for _ in range(200):
        R = random_rotation(rng)
        q = rotmat_to_quat(R)
        assert q[0] >= 0
        np.testing.assert_allclose(quat_to_rotmat(q), R, atol=1e-12)


def test_stacked_quaternion_helpers_equal_the_single_ones_bit_for_bit():
    rng = np.random.default_rng(18)
    q = rng.normal(size=(20, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    r = np.roll(q, 1, axis=0)
    delta = rng.normal(scale=0.3, size=(20, 3))
    delta[:3] *= 1e-13  # the small-angle branch
    Rs, qr, qe = quat_to_rotmat(q), quat_mul(q, r), quat_exp(delta)
    assert Rs.shape == (20, 3, 3) and qr.shape == (20, 4) and qe.shape == (20, 4)
    for k in range(20):
        assert np.array_equal(Rs[k], quat_to_rotmat(q[k]))
        assert np.array_equal(qr[k], quat_mul(q[k], r[k]))
        assert np.array_equal(qe[k], quat_exp(delta[k]))


def test_acute_angle_ignores_orientation():
    rng = np.random.default_rng(17)
    for _ in range(100):
        u, v = rng.normal(size=3), rng.normal(size=3)
        a = acute_angle(u, v)
        assert abs(a - acute_angle(-u, v)) < 1e-12
        assert 0.0 <= a <= np.pi / 2 + 1e-12


def test_point_to_segment_distance_clamps_to_endpoints():
    pts = np.array([[1.0, 1.0], [-3.0, 4.0], [4.0, 0.0]])
    d = point_segment_distances(pts, np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
    np.testing.assert_allclose(d[:, 0], [1.0, 5.0, 2.0], rtol=1e-15)


def test_point_segment_distances_in_3d_and_shape():
    starts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
    ends = np.array([[0.0, 0.0, 2.0], [3.0, 0.0, 5.0]])
    pts = np.array([[0.0, 3.0, 1.0], [0.0, 0.0, 4.0], [6.0, 4.0, 5.0]])
    d = point_segment_distances(pts, starts, ends)
    assert d.shape == (3, 2)
    # interior foot, past an end, and a clamped diagonal (3-4-5 triangle)
    np.testing.assert_allclose(d[0], [3.0, 5.0], rtol=1e-15)
    np.testing.assert_allclose(d[1], [2.0, 1.0], rtol=1e-15)
    np.testing.assert_allclose(d[2, 1], 5.0, rtol=1e-15)


def test_minimal_param_normalizes_inputs():
    par = MinimalLineParam(np.array([2.0, 0.0, 0.0, 0.0]), np.array([3.0, 4.0]))
    assert np.linalg.norm(par.q) == pytest.approx(1.0)
    assert np.linalg.norm(par.w) == pytest.approx(1.0)


def test_cross3_equals_np_cross_bit_for_bit():
    rng = np.random.default_rng(60)
    n = 12000
    # magnitudes from 1e-8 to 1e8, per vector and per component, both signs
    a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    b = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 3))
    b[::7] = a[::7] * rng.uniform(-2, 2, size=(len(a[::7]), 1))  # (anti)parallel pairs
    a[::11, 1] = 0.0
    for x, y in zip(a, b):
        got = cross3(x, y)
        ref = np.cross(x, y)
        assert got.dtype == ref.dtype and got.shape == ref.shape == (3,)
        assert got.tobytes() == ref.tobytes()  # equal bits, signed zeros included


@pytest.mark.parametrize("n", [2, 3, 58, 5000, 2**31 + 7])
def test_distinct_index_pairs_equal_successive_choice_calls(n):
    # the same pairs and the same generator state afterwards, so a caller
    # that draws its pairs up front keeps every later draw
    for seed in range(100):
        for k in (0, 1, 7, 500):
            loop, batch = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [loop.choice(n, size=2, replace=False).tolist() for _ in range(k)]
            got = distinct_index_pairs(batch, n, k)
            assert got.shape == (k, 2) and got.dtype == np.int64
            assert got.tolist() == want
            assert batch.bit_generator.state == loop.bit_generator.state


def test_distinct_index_pairs_need_two_indices():
    with pytest.raises(ValueError):
        distinct_index_pairs(np.random.default_rng(0), 1, 3)

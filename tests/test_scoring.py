import math

import numpy as np
import pytest

from linemap.config import PipelineConfig
from linemap.geometry import (
    CameraView,
    Segment2D,
    Segment3D,
    plucker_from_segment,
    project_point_to_line3d,
    project_segment,
)
from linemap.scoring import (
    angular_distance,
    innerseg_distance,
    innerseg_scale,
    mutual_overlap,
    normalize_distance,
    overlap_ratio,
    perpendicular_distance_2d,
    perspective_distance,
    selection_pair_score,
    track_pair_score,
)

from support import identity_view, intrinsics, make_view, selection_score


def seg3(a, b):
    return Segment3D(np.asarray(a, float), np.asarray(b, float))


def seg2(a, b):
    return Segment2D(np.asarray(a, float), np.asarray(b, float))


# ---------------------------------------------------------------------------
# raw distances, hand values
# ---------------------------------------------------------------------------


def test_angular_distance_3d_is_acute():
    a = seg3([0, 0, 0], [1, 0, 0])
    b = seg3([0, 0, 0], [np.cos(np.radians(30)), np.sin(np.radians(30)), 0])
    assert angular_distance(a, b) == pytest.approx(30.0, abs=1e-9)
    flipped = seg3(b.end, b.start)
    assert angular_distance(a, flipped) == pytest.approx(30.0, abs=1e-9)


def test_angular_distance_2d_hand_value():
    a = seg2([0, 0], [1, 0])
    b = seg2([0, 0], [1, 1])
    assert angular_distance(a, b) == pytest.approx(45.0, abs=1e-9)


def test_perpendicular_distance_parallel_offset():
    a = seg2([0, 0], [10, 0])
    b = seg2([0, 3], [10, 3])
    assert perpendicular_distance_2d(a, b) == pytest.approx(3.0)


def test_perpendicular_distance_symmetrizes():
    a = seg2([0, 0], [10, 0])
    b = seg2([0, 0], [10, 4])  # tilted: one-sided distances differ
    # a's far endpoint lies 40/sqrt(116) from b's line; b's lies 4 from a's
    expect = 0.5 * (40.0 / math.sqrt(116.0) + 4.0)
    assert perpendicular_distance_2d(a, b) == pytest.approx(expect, rel=1e-12)
    assert perpendicular_distance_2d(b, a) == pytest.approx(expect, rel=1e-12)


def test_perspective_distance_scales_by_ray_depth():
    view = identity_view()
    a = seg3([0, 0, 2], [0, 1, 2])
    # same rays, pushed along them by 1%
    b = seg3([0, 0, 2.02], [0, 1.01, 2.02])
    d = perspective_distance(a, b, view)
    d_s = np.linalg.norm(a.start)
    d_e = np.linalg.norm(a.end)
    expect = max(0.02 / d_s, np.linalg.norm(b.end - a.end) / d_e)
    assert d == pytest.approx(expect, rel=1e-12)


def test_overlap_ratio_hand_case():
    a = seg3([0, 0, 0], [1, 0, 0])
    b = seg3([0.5, 0, 0], [2.0, 0, 0])
    assert overlap_ratio(a, b) == pytest.approx(0.5 / 1.5)
    assert overlap_ratio(b, a) == pytest.approx(0.5)
    assert mutual_overlap(a, b) == pytest.approx(1.0 / 3.0)


def test_overlap_ratio_disjoint_2d_is_zero():
    a = seg2([0, 0], [1, 0])
    b = seg2([2, 0], [3, 0])
    assert overlap_ratio(a, b) == 0.0


def test_innerseg_identical_is_zero():
    a = seg3([0, 1, 2], [3, 1, 2])
    assert innerseg_distance(a, a) == 0.0


def test_innerseg_collinear_gap_equals_gap():
    # spanning interval coordinates 0..11 split with a unit gap
    a = seg3([0, 0, 0], [5, 0, 0])
    b = seg3([6, 0, 0], [11, 0, 0])
    assert innerseg_distance(a, b) == pytest.approx(1.0)
    assert innerseg_distance(b, a) == pytest.approx(1.0)


def test_innerseg_orientation_invariant():
    rng = np.random.default_rng(40)
    for _ in range(50):
        a = seg3(rng.normal(size=3), rng.normal(size=3))
        b = seg3(rng.normal(size=3), rng.normal(size=3))
        d = innerseg_distance(a, b)
        assert innerseg_distance(seg3(b.end, b.start), a) == pytest.approx(
            innerseg_distance(b, a), abs=1e-9
        )
        assert innerseg_distance(b, a) == pytest.approx(d, abs=1e-9)


def innerseg_oracle(a, b):
    """Inner-segment distance from Plücker feet, clipped to each extent."""

    def clip_onto(points, seg):
        line = plucker_from_segment(seg)
        out = []
        for p in points:
            t = float((project_point_to_line3d(p, line) - seg.start) @ seg.direction)
            out.append(seg.start + min(max(t, 0.0), seg.length) * seg.direction)
        return out

    b_pts = (b.start, b.end) if a.direction @ b.direction >= 0 else (b.end, b.start)
    on_b = clip_onto([a.start, a.end], b)
    on_a = clip_onto(b_pts, a)
    return max(np.linalg.norm(on_a[i] - on_b[i]) for i in range(2))


def test_innerseg_matches_plucker_oracle():
    # 200 pairs: 100 random, 50 anti-parallel overlapping, 50 collinear disjoint
    rng = np.random.default_rng(44)
    for k in range(200):
        a = seg3(rng.normal(size=3), rng.normal(size=3))
        if k % 4 == 1:  # b runs back along a
            b = seg3(a.end + rng.normal(scale=0.05, size=3), a.start + rng.normal(scale=0.05, size=3))
        elif k % 4 == 2:  # b lies on a's line past a's end, in either orientation
            d = a.end - a.start
            b = seg3(a.end + rng.uniform(0.2, 1.0) * d, a.end + rng.uniform(1.5, 2.5) * d)
            if k % 8 == 2:
                b = seg3(b.end, b.start)
        else:
            b = seg3(rng.normal(size=3), rng.normal(size=3))
        assert innerseg_distance(a, b) == pytest.approx(innerseg_oracle(a, b), abs=1e-12)
        assert innerseg_distance(b, a) == pytest.approx(innerseg_oracle(b, a), abs=1e-12)


def test_innerseg_scale_uses_min_depth_over_focal():
    va = identity_view(f=600.0)
    vb = identity_view(f=300.0)
    a = seg3([0, 0, 6], [1, 0, 6])
    b = seg3([0, 0, 9], [1, 0, 9])
    assert innerseg_scale(a, va, b, vb) == pytest.approx(min(6 / 600, 9 / 300))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_at_tau_is_gated_off():
    # exp(-1) ~ 0.37 falls below the 0.5 gate
    assert normalize_distance(5.0, 5.0) == 0.0


def test_normalize_at_half_similarity_boundary():
    tau = 5.0
    r = tau * math.sqrt(math.log(2.0))
    assert normalize_distance(r, tau) == pytest.approx(0.5)


def test_normalize_zero_distance_is_one():
    assert normalize_distance(0.0, 3.0) == 1.0


# ---------------------------------------------------------------------------
# pair scores
# ---------------------------------------------------------------------------


def two_views():
    return make_view([3.0, 0.5, -0.5]), make_view([2.5, -1.0, 1.0])


def test_identical_proposals_score_one():
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    a = seg3([-0.5, 0.1, 0.3], [0.6, 0.2, -0.2])
    assert selection_score(a, a, ref, va, vb) == pytest.approx(1.0)
    assert track_pair_score(a, va, a, vb) == pytest.approx(1.0)


def test_pair_score_is_symmetric():
    rng = np.random.default_rng(41)
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    for _ in range(30):
        a = seg3(rng.uniform(-0.6, 0.6, 3), rng.uniform(-0.6, 0.6, 3))
        b = seg3(a.start + rng.normal(scale=0.01, size=3), a.end + rng.normal(scale=0.01, size=3))
        s_ab = selection_score(a, b, ref, va, vb)
        s_ba = selection_score(b, a, ref, vb, va)
        assert s_ab == s_ba  # exact: proposal selection scores each pair once
        t_ab = track_pair_score(a, va, b, vb)
        t_ba = track_pair_score(b, vb, a, va)
        assert t_ab == t_ba  # exact: the inner-segment feet pair up in either order


def test_pair_score_range():
    rng = np.random.default_rng(42)
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    for _ in range(100):
        a = seg3(rng.uniform(-0.7, 0.7, 3), rng.uniform(-0.7, 0.7, 3))
        b = seg3(rng.uniform(-0.7, 0.7, 3), rng.uniform(-0.7, 0.7, 3))
        for s in (selection_score(a, b, ref, va, vb), track_pair_score(a, va, b, vb)):
            assert s == 0.0 or 0.5 <= s <= 1.0


def test_wildly_different_proposals_score_zero():
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    a = seg3([-0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    b = seg3([0.0, -0.5, 0.4], [0.1, 0.5, 0.4])  # nearly perpendicular, displaced
    assert track_pair_score(a, va, b, vb) == 0.0


def test_scores_are_scale_invariant():
    rng = np.random.default_rng(43)
    cfg = PipelineConfig()
    for s in (1e-3, 1e3):
        for _ in range(20):
            ref0 = make_view([0.0, 0.0, -4.0])
            va0, vb0 = two_views()
            a0 = seg3(rng.uniform(-0.6, 0.6, 3), rng.uniform(-0.6, 0.6, 3))
            b0 = seg3(a0.start + rng.normal(scale=0.02, size=3), a0.end + rng.normal(scale=0.02, size=3))

            def scale_view(v):
                return CameraView(v.K, v.R, v.t * s, v.width, v.height)

            a1 = seg3(a0.start * s, a0.end * s)
            b1 = seg3(b0.start * s, b0.end * s)
            s0 = selection_score(a0, b0, ref0, va0, vb0, cfg)
            s1 = selection_score(a1, b1, scale_view(ref0), scale_view(va0), scale_view(vb0), cfg)
            assert s1 == pytest.approx(s0, abs=1e-9)
            t0 = track_pair_score(a0, va0, b0, vb0, cfg)
            t1 = track_pair_score(a1, scale_view(va0), b1, scale_view(vb0), cfg)
            assert t1 == pytest.approx(t0, abs=1e-9)


def test_behind_camera_scores_zero():
    ref = identity_view()
    behind = CameraView(intrinsics(), np.eye(3), np.array([0.0, 0.0, 10.0]), 640, 480)
    a = seg3([0.0, 0.0, -8.0], [0.5, 0.0, -8.0])  # in front of `behind`? no: z_cam = 2 > 0
    b = seg3([0.0, 0.1, -8.0], [0.5, 0.1, -8.0])
    # place the pair behind the reference view instead
    assert track_pair_score(a, ref, b, ref) == 0.0


def test_selection_score_is_zero_when_a_projection_is_none():
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    a = seg3([-0.5, 0.1, 0.3], [0.6, 0.2, -0.2])
    pairs = [[project_segment(a, v), project_segment(a, v)] for v in (va, vb)]
    assert selection_pair_score(a, a, ref, pairs) == pytest.approx(1.0)
    for i in range(2):
        for j in range(2):
            missing = [list(p) for p in pairs]
            missing[i][j] = None
            assert selection_pair_score(a, a, ref, missing) == 0.0

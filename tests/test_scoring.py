import math
from collections import Counter

import numpy as np
import pytest

from linemap import scoring
from linemap.config import PipelineConfig
from linemap.geometry import (
    CameraView,
    Segment2D,
    Segment3D,
    normalized,
    plucker_from_segment,
    project_point_to_line3d,
    project_segment,
    quat_to_rotmat,
)
from linemap.scoring import (
    normalize_distance,
    perspective_distance,
    proposal_block,
    selection_pair_score,
    track_block,
    track_pair_score,
)

from support import (
    angular_distance,
    identity_view,
    innerseg_distance,
    make_view,
    mutual_overlap,
    overlap_ratio,
    perpendicular_distance_2d,
    reference_selection_pair_score,
    reference_track_pair_score,
)


def seg3(a, b):
    return Segment3D(np.asarray(a, float), np.asarray(b, float))


def seg2(a, b):
    return Segment2D(np.asarray(a, float), np.asarray(b, float))


def endpoint_rows(segments):
    """The starts and the ends of ``segments``, as ``(n, 3)`` arrays."""
    return tuple(np.array([getattr(s, end) for s in segments]) for end in ("start", "end"))


def pair_block(a, b, ref, view_a, view_b):
    """The block of ``a`` and ``b``, generated in their views for a detection of ``ref``."""
    return proposal_block(*endpoint_rows([a, b]), [0, 1], {0: view_a, 1: view_b}, ref)


def selection(a, b, ref, view_a, view_b, config=PipelineConfig()):
    """Selection score of ``a`` and ``b``, a block of one pair."""
    (score,) = selection_pair_score(pair_block(a, b, ref, view_a, view_b), [0], [1], config)
    return float(score)


def owned_block(a, view_a, b, view_b):
    """The track block of ``a`` and ``b``, owned by their views."""
    return track_block([a, b], [0, 1], {0: view_a, 1: view_b})


def track(a, view_a, b, view_b, config=PipelineConfig()):
    """Track score of ``a`` and ``b``, owned by their views, a block of one pair."""
    (score,) = track_pair_score(owned_block(a, view_a, b, view_b), [0], [1], config)
    return float(score)


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
    (d,) = perspective_distance(pair_block(a, b, view, view, view), [0], [1])
    # each segment scales the endpoint distances by its own ray depths
    d_start, d_end = 0.02, np.linalg.norm(b.end - a.end)
    by_a = max(d_start / np.linalg.norm(a.start), d_end / np.linalg.norm(a.end))
    by_b = max(d_start / np.linalg.norm(b.start), d_end / np.linalg.norm(b.end))
    assert d == pytest.approx(0.5 * (by_a + by_b), rel=1e-12)
    assert by_b < by_a  # b lies farther along the rays
    # symmetric bit for bit
    assert perspective_distance(pair_block(b, a, view, view, view), [0], [1]) == [d]


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
    # each row holds its own midpoint depth over focal length; the track
    # score divides by the smaller one, as the reference does
    assert owned_block(a, va, b, vb).scale.tolist() == pytest.approx([6 / 600, 9 / 300])


def test_float_projection_matches_project_segment():
    # random intrinsics, poses and segments, about two thirds of them cut by
    # the camera plane, each segment owned by its own view in one block: a
    # row's projection is missing exactly where project_segment gives None,
    # and otherwise agrees with it to 1e-12 relative
    rng = np.random.default_rng(46)
    segments, views = [], {}
    for i in range(1000):
        f = rng.uniform(200.0, 2000.0)
        fy, cx, cy = f * rng.uniform(0.9, 1.1), rng.uniform(0, 640), rng.uniform(0, 480)
        K = np.array([[f, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
        q = rng.normal(size=4)
        views[i] = CameraView(K, quat_to_rotmat(q / np.linalg.norm(q)), rng.normal(size=3) * 5, 640, 480)
        segments.append(seg3(rng.normal(size=3) * 5, rng.normal(size=3) * 5))
    own = track_block(segments, list(views), views).own
    outcomes = Counter()
    for i, seg in enumerate(segments):
        ref = project_segment(seg, views[i])
        outcomes[ref is None] += 1
        assert (not own.ok[i]) == (ref is None)
        if ref is None:
            continue
        for got, want in (((own.x1[i], own.y1[i]), ref.start), ((own.x2[i], own.y2[i]), ref.end)):
            assert np.linalg.norm(np.array(got) - want) <= 1e-12 * np.linalg.norm(want)
        assert own.length[i] == pytest.approx(ref.length, rel=1e-12)
        assert np.abs(np.array([own.u[i], own.v[i]]) - ref.direction).max() <= 1e-12
        line = np.array([own.l0[i], own.u[i]])
        assert np.abs(line - ref.infinite_line[:2]).max() <= 1e-12
    assert outcomes[True] >= 200 and outcomes[False] >= 200


def test_a_segment_along_a_viewing_ray_scores_zero():
    # a and b lie on the optical axis of `axis`, so each projects there to a
    # single pixel with no direction: the pair scores 0, as a segment behind
    # a view does, where another view scores it as a match
    axis = identity_view()
    side = make_view([3.0, 0.5, 3.0], target=(0.0, 0.0, 3.0))
    other = make_view([-3.0, 0.5, 3.0], target=(0.0, 0.0, 3.0))
    a = seg3([0, 0, 2], [0, 0, 4])
    b = seg3([0, 0, 2.05], [0, 0, 4.1])
    assert not track_block([a], [0], {0: axis}).own.ok[0]
    assert track(a, other, b, side) > 0.0
    for args in ((a, axis, b, side), (b, side, a, axis)):
        assert track(*args) == 0.0
        assert reference_track_pair_score(*args) == 0.0
    near = seg3([0, 0, 2.001], [0, 0, 4.002])
    assert selection(a, near, side, other, side) > 0.0
    for views in ((axis, side), (side, axis)):
        assert selection(a, near, side, *views) == 0.0
        assert reference_selection_pair_score(a, near, side, *views) == 0.0


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
    assert selection(a, a, ref, va, vb) == pytest.approx(1.0)
    assert track(a, va, a, vb) == pytest.approx(1.0)


def test_pair_score_is_symmetric():
    rng = np.random.default_rng(41)
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    for _ in range(30):
        a = seg3(rng.uniform(-0.6, 0.6, 3), rng.uniform(-0.6, 0.6, 3))
        b = seg3(a.start + rng.normal(scale=0.01, size=3), a.end + rng.normal(scale=0.01, size=3))
        s_ab = selection(a, b, ref, va, vb)
        s_ba = selection(b, a, ref, vb, va)
        assert s_ab == s_ba  # exact: proposal selection scores each pair once
        t_ab = track(a, va, b, vb)
        t_ba = track(b, vb, a, va)
        assert t_ab == t_ba  # exact: the inner-segment feet pair up in either order


def test_pair_score_range():
    rng = np.random.default_rng(42)
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    for _ in range(100):
        a = seg3(rng.uniform(-0.7, 0.7, 3), rng.uniform(-0.7, 0.7, 3))
        b = seg3(rng.uniform(-0.7, 0.7, 3), rng.uniform(-0.7, 0.7, 3))
        for s in (selection(a, b, ref, va, vb), track(a, va, b, vb)):
            assert s == 0.0 or 0.5 <= s <= 1.0


def test_wildly_different_proposals_score_zero():
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    a = seg3([-0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    b = seg3([0.0, -0.5, 0.4], [0.1, 0.5, 0.4])  # nearly perpendicular, displaced
    assert track(a, va, b, vb) == 0.0


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
            s0 = selection(a0, b0, ref0, va0, vb0, cfg)
            s1 = selection(
                a1, b1, scale_view(ref0), scale_view(va0), scale_view(vb0), cfg
            )
            assert s1 == pytest.approx(s0, abs=1e-9)
            t0 = track(a0, va0, b0, vb0, cfg)
            t1 = track(a1, scale_view(va0), b1, scale_view(vb0), cfg)
            assert t1 == pytest.approx(t0, abs=1e-9)


def cutting_view(x, looking):
    """A view whose camera plane is ``x = x``, looking along ``looking`` * +x."""
    center = np.array([x, 0.1, 0.0])
    return make_view(center, target=center + [looking, 0.0, 0.0])


def test_behind_camera_scores_zero():
    # the camera plane of `cut` crosses the pair: the start is behind it, the
    # midpoint in front, so the inner-segment scale is positive and every 3D
    # component is 1; only the projection rules the pair out
    a = seg3([-0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    va, _ = two_views()
    cut = cutting_view(-0.2, +1.0)
    assert track_block([a], [0], {0: cut}).scale[0] > 0
    assert project_segment(a, cut) is None
    assert track(a, va, a, va) == pytest.approx(1.0)
    assert track(a, va, a, cut) == 0.0
    assert track(a, cut, a, va) == 0.0
    assert reference_track_pair_score(a, va, a, cut) == 0.0


def test_selection_score_is_zero_when_a_projection_is_none():
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = two_views()
    # collinear, shifted by 0.04: a cutting view between the two starts (or
    # the two ends) has exactly one of them behind it
    a = seg3([-0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    b = seg3([-0.46, 0.0, 0.0], [0.54, 0.0, 0.0])
    assert selection(a, b, ref, va, vb) > 0.0
    for cut, behind in ((cutting_view(-0.48, +1.0), a), (cutting_view(0.52, -1.0), b)):
        assert [project_segment(s, cut) is None for s in (a, b)] == [s is behind for s in (a, b)]
        for views in ((cut, vb), (va, cut)):
            assert selection(a, b, ref, *views) == 0.0
            assert selection(b, a, ref, *views[::-1]) == 0.0
            assert reference_selection_pair_score(a, b, ref, *views) == 0.0


def test_pair_scores_equal_the_full_min_reference(monkeypatch):
    # random pairs, near copies and strays, seen from cameras close enough to
    # cut some segments: each score equals the minimum over all of its
    # components, bit for bit, whichever way it ends
    project_rows = scoring._project_rows
    cross = []  # `ok` of each row a block projects into the other segment's view

    def recorded_rows(*args):
        rows = project_rows(*args)
        cross.extend(rows.ok.tolist())
        return rows

    def outcome(block, score):
        # gated on the 3D components, behind a view (or a point in it), or
        # projected and scored in full: the block's own projections, then its
        # two cross projections of the pair
        if not cross:
            return "gated", score > 0
        projected = all(cross) and all(block.own.ok.tolist())
        return "projected" if projected else "behind", score > 0

    monkeypatch.setattr(scoring, "_project_rows", recorded_rows)
    rng = np.random.default_rng(44)
    cfg = PipelineConfig()
    outcomes = Counter()
    for _ in range(600):
        a = seg3(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        spread = rng.choice([0.0005, 0.005, 0.03, 0.5])
        jitter = rng.normal(scale=spread, size=(2, 3))
        b = seg3(a.start + jitter[0], a.end + jitter[1])
        ref, va, vb = (
            make_view(normalized(rng.normal(size=3)) * rng.uniform(0.6, 4.0)) for _ in range(3)
        )
        if rng.uniform() < 0.5:
            # a camera beside a, between its start and midpoint, looking along it
            beside = a.start + rng.uniform(0.05, 0.45) * (a.end - a.start) + rng.normal(0, 0.05, 3)
            va = make_view(beside, target=beside + a.direction)
        block = pair_block(a, b, ref, va, vb)
        cross.clear()
        (s,) = selection_pair_score(block, [0], [1], cfg)
        outcomes["selection", *outcome(block, s)] += 1
        assert s == reference_selection_pair_score(a, b, ref, va, vb, cfg)
        block = owned_block(a, va, b, vb)
        cross.clear()
        (t,) = track_pair_score(block, [0], [1], cfg)
        outcomes["track", *outcome(block, t)] += 1
        assert t == reference_track_pair_score(a, va, b, vb, cfg)
    for kind in ("selection", "track"):
        assert outcomes[kind, "gated", False] >= 20
        assert outcomes[kind, "behind", False] >= 20
        assert outcomes[kind, "projected", True] >= 20


def test_selection_block_equals_the_reference_pair_by_pair():
    # one block of many proposals from four generating views, scored in one
    # call: near copies, strays, segments cut by a camera beside them,
    # segments along a viewing ray (a point in that view) and NaN segments
    rng = np.random.default_rng(45)
    cfg = PipelineConfig()
    ref = make_view([0.0, 0.0, -4.0])
    base = [seg3(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(8)]
    beside = base[0].start + 0.3 * (base[0].end - base[0].start)
    axis = make_view([0.2, -0.1, -3.0], target=(0.0, 0.0, 0.0))
    views = {
        0: make_view([3.0, 0.5, -0.5]),
        1: make_view([2.5, -1.0, 1.0]),
        2: make_view(beside, target=beside + base[0].direction),
        3: axis,
    }
    segments = []
    for b in base:
        for spread in (0.0, 0.0, 0.0002, 0.0005, 0.001, 0.005, 0.03, 0.5):
            jitter = rng.normal(scale=spread, size=(2, 3))
            segments.append(seg3(b.start + jitter[0], b.end + jitter[1]))
    # along the optical axis of `axis`, and a near copy off it
    c, d = axis.camera_center, axis.R[2]
    segments += [seg3(c + 2.0 * d, c + 4.0 * d), seg3(c + 2.001 * d, c + 4.002 * d)]
    segments += [seg3([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]), seg3(base[1].start, [0.3, np.nan, 0.1])]
    gens = rng.integers(0, 4, size=len(segments)).tolist()
    gens[0], gens[-4:] = 2, [3, 0, 1, 2]
    n = len(segments)
    first, second = zip(*[(i, j) for i in range(n) for j in range(i + 1, n) if gens[i] != gens[j]])
    block = proposal_block(*endpoint_rows(segments), gens, views, ref)
    scores = selection_pair_score(block, first, second, cfg)
    kinds = Counter()
    for i, j, s in zip(first, second, scores.tolist()):
        want = reference_selection_pair_score(
            segments[i], segments[j], ref, views[gens[i]], views[gens[j]], cfg
        )
        assert s == want, (i, j)
        nan = not np.isfinite(np.concatenate([segments[k].endpoints() for k in (i, j)])).all()
        kinds["nan" if nan else "positive" if s > 0 else "zero"] += 1
    assert not block.own.ok[-4]  # a point in its generating view
    assert not block.own.ok[0]  # its start behind its generating view
    assert kinds["nan"] >= 50 and kinds["positive"] >= 20 and kinds["zero"] >= 500


def test_track_block_equals_the_reference_pair_by_pair():
    # one block of segments owned by five views, every pair scored in one
    # call: near copies and strays, anti-parallel copies (the reversed feet
    # of the inner-segment distance), collinear disjoint segments (its gap
    # case), segments cut by a camera beside them, segments behind their own
    # view (scale <= 0), one along a viewing ray (a point in that view) and
    # NaN segments
    rng = np.random.default_rng(47)
    cfg = PipelineConfig()
    base = [seg3(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(6)]
    beside = base[0].start + 0.3 * (base[0].end - base[0].start)
    axis = make_view([0.2, -0.1, -3.0], target=(0.0, 0.0, 0.0))
    views = {
        0: make_view([3.0, 0.5, -0.5]),
        1: make_view([2.5, -1.0, 1.0]),
        2: make_view(beside, target=beside + base[0].direction),
        3: axis,
        4: make_view([0.0, 0.3, 4.0], target=(0.0, 0.3, 8.0)),  # faces away from the scene
    }
    segments = []
    for b in base:
        for spread in (0.0, 0.0005, 0.001, 0.005, 0.03, 0.5):
            jitter = rng.normal(scale=spread, size=(2, 3))
            segments.append(seg3(b.start + jitter[0], b.end + jitter[1]))
            segments.append(seg3(b.end + jitter[1], b.start + jitter[0]))
        d = b.end - b.start
        segments.append(seg3(b.end + 0.2 * d, b.end + 1.2 * d))  # on b's line, past its end
    # along the optical axis of `axis`, and a near copy off it
    c, d = axis.camera_center, axis.R[2]
    segments += [seg3(c + 2.0 * d, c + 4.0 * d), seg3(c + 2.001 * d, c + 4.002 * d)]
    segments += [seg3([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]), seg3(base[1].start, [0.3, np.nan, 0.1])]
    owners = rng.choice([0, 1, 2], p=[0.45, 0.45, 0.1], size=len(segments)).tolist()
    owners[:3], owners[-4:] = [2, 4, 4], [3, 0, 1, 2]
    n = len(segments)
    first, second = zip(*[(i, j) for i in range(n) for j in range(i + 1, n)])
    block = track_block(segments, owners, views)
    scores = track_pair_score(block, first, second, cfg)
    kinds = Counter()
    for i, j, s in zip(first, second, scores.tolist()):
        want = reference_track_pair_score(
            segments[i], views[owners[i]], segments[j], views[owners[j]], cfg
        )
        assert s == want, (i, j)
        nan = not np.isfinite(np.concatenate([segments[k].endpoints() for k in (i, j)])).all()
        turned = segments[i].direction @ segments[j].direction < 0
        kinds["nan" if nan else "turned" if turned and s > 0 else "positive" if s > 0 else "zero"] += 1
    assert not block.own.ok[0] and block.scale[0] > 0  # its start behind its own view
    assert (block.scale[1:3] < 0).all()  # behind its own view
    assert not block.own.ok[-4]  # a point in its own view
    assert kinds["nan"] >= 50 and kinds["zero"] >= 500
    assert kinds["positive"] >= 40 and kinds["turned"] >= 60


# ---------------------------------------------------------------------------
# the gated kernels: array filters, math only where a value counts
# ---------------------------------------------------------------------------


def gated_scores(terms):
    """Each row's score from gated ``terms`` as the pair scores combine them:
    0 unless every gate passes, else the smallest similarity."""
    n = len(terms[0].y)
    rows = np.flatnonzero(scoring._gate_rows(terms, np.ones(n, dtype=bool)))
    scores = np.zeros(n)
    scores[rows] = scoring._min_similarity([term.take(rows) for term in terms])
    return scores


def ulps(x, k):
    """``x`` moved ``k`` representable doubles (toward +inf when k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def squares_that_differ(rng, low, high, count):
    """Values in [low, high) whose ``x ** 2`` differs from ``x * x``."""
    found = []
    while len(found) < count:
        for x in rng.uniform(low, high, 20_000).tolist():
            if x**2 != x * x:
                found.append(x)
    return found[:count]


def test_gate_limit_is_the_largest_y_whose_similarity_passes():
    y = scoring.GATE_Y
    assert math.exp(-y) >= scoring.SCORE_GATE > math.exp(-math.nextafter(y, math.inf))
    assert abs(y - math.log(2.0)) < 1e-15


def test_distance_kernel_equals_normalize_distance_row_by_row():
    # y within a few ulps of the gate, x where x ** 2 != x * x, NaN, +-inf,
    # +-0.0, negative and large distances, under two taus
    rng = np.random.default_rng(61)
    edge = math.sqrt(scoring.GATE_Y)
    xs = [ulps(edge, k) for k in range(-6, 7)]
    xs += squares_that_differ(rng, 0.0, 1.2, 200)
    xs += [math.nan, math.inf, -math.inf, 0.0, -0.0, -0.5, -edge, 1e-300, 5e-162, 1e100]
    xs += rng.uniform(0.0, 1.5, 300).tolist()
    for tau in (1.0, 0.015, 7.0):
        r = np.array(xs) * tau
        (term,) = terms = [scoring._distance_term(r, tau)]
        want = [normalize_distance(x, tau) for x in r.tolist()]
        assert gated_scores(terms).tolist() == want
        band = np.abs(term.y - scoring.GATE_Y) <= scoring.FILTER_BAND * scoring.GATE_Y
        assert band.sum() >= 6  # rows decided by math.exp, not by the filter


def test_several_components_equal_the_minimum_of_normalize_distance():
    # the smallest similarity over components that tie exactly, lie one ulp
    # apart (equal or unequal x * x), straddle the gate, or are all zero
    rng = np.random.default_rng(62)
    edge = math.sqrt(scoring.GATE_Y)
    base = squares_that_differ(rng, 0.2, 0.9, 100) + [ulps(edge, k) for k in range(-4, 5)]
    base += rng.uniform(0.0, 1.0, 200).tolist() + [0.0, -0.0, 1e-9, math.nan]
    columns = [base]
    columns.append(base[:])  # exact ties
    columns.append([ulps(x, 1) if math.isfinite(x) else x for x in base])
    columns.append([ulps(x, -1) if math.isfinite(x) and x > 0 else 0.0 for x in base])
    columns.append(rng.permutation(base).tolist())
    taus = (1.0, 3.0, 0.5, 2.0, 10.0)
    terms = [scoring._distance_term(np.array(col) * tau, tau) for col, tau in zip(columns, taus)]
    want = [
        min(normalize_distance(x * tau, tau) for x, tau in zip(row, taus)) for row in zip(*columns)
    ]
    assert gated_scores(terms).tolist() == want


def angle_oracle(dots, tau):
    """``normalize_distance`` of each acute angle, as the reference scores compute it."""
    return [
        normalize_distance(math.degrees(math.acos(min(1.0, abs(d)))), tau) for d in dots
    ]


@pytest.mark.parametrize("tau", [10.0, 8.0, 60.0, 0.1])
def test_angle_kernel_equals_the_scalar_angle_row_by_row(tau):
    # |cos| = 1, -0.0, NaN, cosines just past 1, cosines a few ulps around the
    # gate's angle, and angles well past the series' 30 degrees; a 60 degree
    # tau gates at 50 degrees, so those rows fall back to math.acos
    rng = np.random.default_rng(63)
    gate = math.cos(math.radians(tau * math.sqrt(scoring.GATE_Y)))
    dots = [ulps(gate, k) for k in range(-40, 41)] + [-ulps(gate, k) for k in range(-3, 4)]
    dots += [1.0, -1.0, 0.0, -0.0, math.nan, ulps(1.0, 1), -ulps(1.0, 1), ulps(1.0, -1), 1.5]
    dots += np.cos(np.radians(rng.uniform(0.0, 90.0, 400))).tolist()
    dots += np.cos(np.radians(rng.uniform(0.0, 1e-3, 50))).tolist()
    c = scoring._clipped_cosines(np.array(dots))
    (term,) = terms = [scoring._angle_term((c,), tau)]
    assert gated_scores(terms).tolist() == angle_oracle(dots, tau)
    # the mean of two angles, as the image components average two views
    other = rng.permutation(dots).tolist()
    c2 = scoring._clipped_cosines(np.array(other))
    degrees = [math.degrees(math.acos(min(1.0, abs(d)))) for d in dots]
    other_degrees = [math.degrees(math.acos(min(1.0, abs(d)))) for d in other]
    want = [normalize_distance(0.5 * (a + b), tau) for a, b in zip(degrees, other_degrees)]
    assert gated_scores([scoring._angle_term((c, c2), tau)]).tolist() == want
    # with a distance that ties the angle exactly on each row
    tie = scoring._distance_term(np.array(degrees), tau)
    assert gated_scores([term, tie]).tolist() == angle_oracle(dots, tau)
    if tau == 60.0:
        far = c < scoring._SERIES_COS
        assert far.sum() > 50 and np.isfinite(term.y[far]).all()


def test_pair_scores_near_the_angle_gate_equal_the_reference():
    # b turned about a's midpoint by angles a few 1e-13 around the 3D angle
    # gate, and at 50 degrees under a 60 degree tau (the acos fallback):
    # every row equals the scalar reference, the selection and track scores
    ref = make_view([0.0, 0.0, -4.0])
    va, vb = make_view([3.0, 0.5, -0.5]), make_view([2.5, -1.0, 1.0])
    a = seg3([-0.5, 0.1, 0.2], [0.6, -0.2, 0.1])
    axis = normalized(np.cross(a.direction, [0.0, 0.0, 1.0]))
    mid = 0.5 * (a.start + a.end)
    for tau in (10.0, 60.0):
        cfg = PipelineConfig(tau_angle_3d=tau, tau_perspective=1.0, tau_innerseg=1e3)
        gate = tau * math.sqrt(scoring.GATE_Y)
        angles = [gate * (1.0 + k * 1e-13) for k in range(-20, 21)] + [0.0, 50.0, 0.5 * gate]
        segments = [a]
        for deg in angles:
            half = math.radians(deg) / 2.0
            R = quat_to_rotmat(np.array([math.cos(half), *(math.sin(half) * axis)]))
            segments.append(seg3(mid + R @ (a.start - mid), mid + R @ (a.end - mid)))
        first = [0] * len(angles)
        second = list(range(1, len(segments)))
        owners = [0] + [1] * len(angles)
        block = proposal_block(*endpoint_rows(segments), owners, {0: va, 1: vb}, ref)
        scores = selection_pair_score(block, first, second, cfg).tolist()
        want = [reference_selection_pair_score(a, b, ref, va, vb, cfg) for b in segments[1:]]
        assert scores == want
        assert 0 < sum(s > 0 for s in scores) < len(scores)
        block = track_block(segments, owners, {0: va, 1: vb})
        scores = track_pair_score(block, first, second, cfg).tolist()
        assert scores == [reference_track_pair_score(a, va, b, vb, cfg) for b in segments[1:]]

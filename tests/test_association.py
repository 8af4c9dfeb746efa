import numpy as np
import pytest

from linemap.association import (
    _vp_residuals,
    associate_points_to_segments,
    build_vp_tracks,
    estimate_vps,
    principal_direction,
    vp_direction_world,
    vp_from_direction,
    vp_line_residual,
)
from linemap.geometry import EPS, Segment2D
from linemap.synthetic import ObservationConfig, SceneConfig, build_scene, observe_scene

from support import make_view


def seg(a, b):
    return Segment2D(np.asarray(a, float), np.asarray(b, float))


# ---------------------------------------------------------------------------
# point-segment association
# ---------------------------------------------------------------------------


def test_associate_by_perpendicular_distance():
    segs = [seg([0, 0], [10, 0]), seg([0, 10], [10, 10])]
    pts = np.array([[5.0, 0.0], [5.0, 1.5], [5.0, 3.0], [5.0, 9.0]])
    edges = associate_points_to_segments(pts, segs, threshold_px=2.0)
    assert edges == [(0, 0), (1, 0), (3, 1)]
    assert all(type(i) is int for pair in edges for i in pair)


def test_associate_measures_to_finite_segment():
    segs = [seg([0, 0], [10, 0])]
    pts = np.array([[11.0, 0.0], [14.0, 0.0]])
    edges = associate_points_to_segments(pts, segs, threshold_px=2.0)
    assert edges == [(0, 0)]  # 1 px past the tip associates, 4 px does not


def test_junction_point_joins_both_segments():
    segs = [seg([0, 0], [10, 0]), seg([5, -5], [5, 5])]
    pts = np.array([[5.0, 0.0]])
    assert associate_points_to_segments(pts, segs) == [(0, 0), (0, 1)]


def test_associate_without_segments_or_points_is_empty():
    pts = np.array([[5.0, 0.0], [1.0, 1.0]])
    assert associate_points_to_segments(pts, []) == []
    assert associate_points_to_segments(np.zeros((0, 2)), [seg([0, 0], [10, 0])]) == []


# ---------------------------------------------------------------------------
# VP residual
# ---------------------------------------------------------------------------


def test_vp_on_supporting_line_has_zero_residual():
    s = seg([0, 0], [10, 0])
    assert vp_line_residual(s, np.array([100.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    # same for a VP at infinity along the segment direction
    assert vp_line_residual(s, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_vp_perpendicular_to_segment_residual():
    s = seg([0, 0], [10, 0])
    # line through midpoint (5, 0) and VP (5, 10): vertical, endpoints 5 px away
    assert vp_line_residual(s, np.array([5.0, 10.0, 1.0])) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# sequential RANSAC estimation
# ---------------------------------------------------------------------------


def concurrent_segments(rng, vp_xy, count, box=(0, 640, 0, 480)):
    out = []
    vp = np.asarray(vp_xy, float)
    for _ in range(count):
        p = np.array([rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3])])
        d = vp - p
        d = d / np.linalg.norm(d)
        half = rng.uniform(20, 60)
        out.append(seg(p - half * d, p + half * d))
    return out


def test_single_vp_recovered_exactly():
    rng = np.random.default_rng(50)
    segs = concurrent_segments(rng, (800.0, 300.0), 12)
    segs += [seg(rng.uniform(0, 600, 2), rng.uniform(0, 600, 2)) for _ in range(10)]
    vps, assignment = estimate_vps(segs, inlier_px=1.0, min_support=5, seed=3)
    assert len(vps) == 1
    members = np.flatnonzero(assignment == 0)
    assert set(members) >= set(range(12))
    v = vps[0] / vps[0][2]
    np.testing.assert_allclose(v[:2], [800.0, 300.0], atol=1e-6)


def test_two_vps_partitioned():
    rng = np.random.default_rng(51)
    g1 = concurrent_segments(rng, (1500.0, 240.0), 10)
    g2 = concurrent_segments(rng, (320.0, -900.0), 10)
    segs = g1 + g2
    vps, assignment = estimate_vps(segs, seed=4)
    assert len(vps) == 2
    first = set(np.flatnonzero(assignment == assignment[0]))
    assert first == set(range(10)) or first == set(range(10, 20))
    assert set(np.flatnonzero(assignment >= 0)) == set(range(20))


def test_insufficient_support_yields_no_model():
    rng = np.random.default_rng(52)
    segs = concurrent_segments(rng, (800.0, 300.0), 4)
    vps, assignment = estimate_vps(segs, min_support=5, seed=5)
    assert vps == []
    assert np.all(assignment == -1)


def test_estimation_is_deterministic():
    rng = np.random.default_rng(53)
    segs = concurrent_segments(rng, (700.0, 100.0), 9)
    segs += [seg(rng.uniform(0, 600, 2), rng.uniform(0, 600, 2)) for _ in range(8)]
    r1 = estimate_vps(segs, seed=11)
    r2 = estimate_vps(segs, seed=11)
    assert len(r1[0]) == len(r2[0])
    for a, b in zip(r1[0], r2[0]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(r1[1], r2[1])


@pytest.mark.parametrize("min_support", [0, 1])
@pytest.mark.parametrize(
    "segs, n_vps",
    [
        ([], 0),
        ([seg([0, 0], [10, 0])], 0),
        ([seg([0, 0], [10, 0]), seg([0, 5], [10, 7])], 1),
        ([seg([0, 0], [10, 0]), seg([20, 0], [30, 0])], 0),  # one supporting line
    ],
    ids=["none", "one", "two", "collinear"],
)
def test_few_segments_do_not_raise(segs, n_vps, min_support):
    vps, assignment = estimate_vps(segs, min_support=min_support, seed=0)
    assert len(vps) == n_vps
    assert assignment.shape == (len(segs),)


def _loop_residuals(mids_h, starts_h, ends_h, vp):
    lines = np.cross(mids_h, np.asarray(vp, dtype=np.float64))
    norms = np.hypot(lines[:, 0], lines[:, 1])
    num = np.maximum(
        np.abs(np.einsum("ij,ij->i", lines, starts_h)),
        np.abs(np.einsum("ij,ij->i", lines, ends_h)),
    )
    return np.where(norms < EPS, np.inf, num / np.maximum(norms, EPS))


def estimate_vps_loop(segments, inlier_px=1.0, min_support=5, max_models=8, iterations=500, seed=0):
    """Sequential RANSAC scoring one hypothesis per Python iteration: the oracle."""
    min_support = max(min_support, 2)
    rng = np.random.default_rng(seed)
    n = len(segments)
    assignment = np.full(n, -1, dtype=np.int64)
    lines = [s.infinite_line for s in segments]
    if n:
        mids_h = np.stack([np.append(s.midpoint, 1.0) for s in segments])
        starts_h = np.stack([np.append(s.start, 1.0) for s in segments])
        ends_h = np.stack([np.append(s.end, 1.0) for s in segments])
    remaining = np.arange(n)
    vps = []
    while len(remaining) >= min_support and len(vps) < max_models:
        rm, rs, re = mids_h[remaining], starts_h[remaining], ends_h[remaining]
        best_count = 0
        best_inliers = remaining[:0]
        for _ in range(iterations):
            i, j = rng.choice(len(remaining), size=2, replace=False)
            a, b = remaining[int(i)], remaining[int(j)]
            vp = np.cross(lines[a], lines[b])
            if np.linalg.norm(vp) < EPS:
                continue  # identical supporting lines
            mask = _loop_residuals(rm, rs, re, vp) <= inlier_px
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_inliers = remaining[mask]
        if best_count < min_support:
            break
        rows = np.stack([segments[i].infinite_line for i in best_inliers])
        vp = np.linalg.svd(rows)[2][-1]
        inl = remaining[_loop_residuals(rm, rs, re, vp) <= inlier_px]
        if len(inl) < min_support:
            break
        vps.append(vp)
        assignment[inl] = len(vps) - 1
        remaining = remaining[assignment[remaining] == -1]
    return vps, assignment


def assert_same_vps(got, want):
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got[1], want[1])


def test_batched_rounds_match_the_loop_on_the_noisy_scene():
    scene = build_scene(SceneConfig(n_views=16))
    obs = observe_scene(scene, ObservationConfig(noise_px=1.0, outlier_fraction=0.2, seed=7))
    n_vps = 0
    for img in sorted(obs.detections):
        want = estimate_vps_loop(obs.detections[img])
        assert_same_vps(estimate_vps(obs.detections[img]), want)
        n_vps += len(want[0])
    assert n_vps == 50


def random_segment_set(rng, kind):
    if kind == "parallel":  # one direction only: every VP lies at infinity
        d = np.array([1.0, 0.0])
        return [seg(p, p + rng.uniform(20, 80) * d) for p in rng.uniform(0, 600, size=(12, 2))]
    segs = concurrent_segments(rng, rng.uniform(-2000, 2000, 2), int(rng.integers(5, 12)))
    segs += concurrent_segments(rng, rng.uniform(-2000, 2000, 2), int(rng.integers(3, 9)))
    segs += [seg(rng.uniform(0, 600, 2), rng.uniform(0, 600, 2)) for _ in range(6)]
    if kind == "duplicates":  # repeated and collinear segments: near-zero candidates
        for i in rng.integers(0, len(segs), size=len(segs)):
            s, (t0, t1) = segs[int(i)], np.sort(rng.uniform(-0.5, 1.5, 2))
            if t1 - t0 >= 0.5:
                s = seg(s.start + t0 * (s.end - s.start), s.start + t1 * (s.end - s.start))
            segs.append(s)
    if kind == "few":
        segs = segs[: int(rng.integers(0, 5))]
    return segs


@pytest.mark.parametrize("kind", ["mixed", "duplicates", "few", "parallel"])
def test_batched_rounds_match_the_loop_on_random_sets(kind):
    rng = np.random.default_rng(["mixed", "duplicates", "few", "parallel"].index(kind))
    zero_norm = 0
    for trial in range(8):
        segs = random_segment_set(rng, kind)
        for min_support, iterations in ((5, 500), (2, 60)):
            kw = dict(min_support=min_support, iterations=iterations, seed=trial)
            assert_same_vps(estimate_vps(segs, **kw), estimate_vps_loop(segs, **kw))
        lines = [s.infinite_line for s in segs]
        zero_norm += sum(
            np.linalg.norm(np.cross(lines[i], lines[j])) < EPS
            for i in range(len(lines))
            for j in range(i)
        )
    assert (zero_norm > 0) == (kind == "duplicates")


def test_single_residual_equals_the_batched_row():
    rng = np.random.default_rng(55)
    segs = [seg(rng.uniform(0, 600, 2), rng.uniform(0, 600, 2)) for _ in range(20)]
    vps = rng.normal(size=(30, 3)) * 10.0 ** rng.uniform(-3, 3, size=(30, 1))
    vps[0, 2] = 0.0  # at infinity
    vps[1] = np.append(segs[3].midpoint, 1.0)  # on a midpoint: infinite residual
    rows = [
        np.stack([np.append(getattr(s, end), 1.0) for s in segs])
        for end in ("midpoint", "start", "end")
    ]
    batched = _vp_residuals(*rows, vps)
    assert batched.shape == (30, 20)
    assert np.isinf(batched[1, 3])
    for k, vp in enumerate(vps):
        single = np.array([vp_line_residual(s, vp) for s in segs])
        assert single.tobytes() == batched[k].tobytes()
        assert _vp_residuals(*rows, vp).tobytes() == batched[k].tobytes()


# ---------------------------------------------------------------------------
# world directions
# ---------------------------------------------------------------------------


def test_vp_direction_roundtrip():
    rng = np.random.default_rng(54)
    for _ in range(25):
        view = make_view(rng.normal(size=3) * 3)
        d = rng.normal(size=3)
        d = d / np.linalg.norm(d)
        back = vp_direction_world(view, vp_from_direction(view, d))
        assert min(np.linalg.norm(back - d), np.linalg.norm(back + d)) < 1e-10


def test_principal_direction_averages_sign_free():
    dirs = np.array([[1.0, 0.01, 0.0], [-1.0, 0.01, 0.0], [1.0, -0.02, 0.0]])
    d = principal_direction(dirs)
    assert abs(d[0]) > 0.999
    assert d[0] > 0  # canonical sign


# ---------------------------------------------------------------------------
# VP tracks
# ---------------------------------------------------------------------------


def test_vp_tracks_cluster_by_direction_and_sharing():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    dirs = {}
    for img in range(3):
        dirs[(img, 0)] = x
        dirs[(img, 1)] = y
    counts = {}
    for a in range(3):
        for b in range(a + 1, 3):
            counts[((a, 0), (b, 0))] = 5
            counts[((a, 1), (b, 1))] = 4
            counts[((a, 0), (b, 1))] = 5  # heavily shared but 90 degrees apart
    tracks = build_vp_tracks(dirs, counts)
    assert len(tracks) == 2
    sets = [set(t.members) for t in tracks]
    assert {(0, 0), (1, 0), (2, 0)} in sets
    assert {(0, 1), (1, 1), (2, 1)} in sets
    for t in tracks:
        d = t.direction
        assert abs(abs(d @ x) - 1) < 1e-9 or abs(abs(d @ y) - 1) < 1e-9


def test_vp_tracks_never_take_two_from_one_image():
    x = np.array([1.0, 0.0, 0.0])
    dirs = {(0, 0): x, (0, 1): x, (1, 0): x}
    counts = {
        ((0, 0), (1, 0)): 10,
        ((0, 1), (1, 0)): 9,
    }
    tracks = build_vp_tracks(dirs, counts)
    assert len(tracks) == 1
    assert set(tracks[0].members) == {(0, 0), (1, 0)}


def test_vp_tracks_respect_min_shared():
    x = np.array([1.0, 0.0, 0.0])
    dirs = {(0, 0): x, (1, 0): x}
    tracks = build_vp_tracks(dirs, {((0, 0), (1, 0)): 2}, min_shared=3)
    assert tracks == []


def test_vp_track_order_follows_union_by_size_roots():
    # A three-member x group absorbs (0, 0), which sorts before all of its
    # members; the merged group keeps the larger group's root (2, 0), so the
    # y group rooted at (1, 1) comes first.  Tracks are listed by root, so a
    # change to the root rule reorders the VP tracks in tracks.json.
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    dirs = {(0, 0): x, (2, 0): x, (3, 0): x, (4, 0): x, (1, 1): y, (2, 1): y}
    counts = {
        ((2, 0), (3, 0)): 10,
        ((2, 0), (4, 0)): 10,
        ((0, 0), (2, 0)): 5,
        ((1, 1), (2, 1)): 5,
    }
    tracks = build_vp_tracks(dirs, counts)
    assert [t.members for t in tracks] == [
        [(1, 1), (2, 1)],
        [(0, 0), (2, 0), (3, 0), (4, 0)],
    ]

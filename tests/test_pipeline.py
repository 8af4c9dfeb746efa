"""End-to-end pipeline tests on the synthetic box scene."""

from collections import Counter

import numpy as np
import pytest

from linemap import pipeline
from linemap.config import PipelineConfig
from linemap.geometry import CameraView, Segment2D, Segment3D, acute_angle
from linemap.metrics import length_recall
from linemap.pipeline import PipelineInput, compute_neighbors, run_pipeline
from linemap.synthetic import (
    ObservationConfig,
    SceneConfig,
    build_scene,
    observe_scene,
    scene_diameter,
)
from linemap.tracks import TrackCandidate
from linemap.triangulation import TriangulationError

from support import identity_view, selection_score


@pytest.fixture(scope="module")
def clean_scene():
    scene = build_scene(SceneConfig())
    obs = observe_scene(scene, ObservationConfig())
    inp = PipelineInput(
        views=scene.views,
        detections=obs.detections,
        matches=obs.matches,
        points3d=scene.junctions,
        point_obs=obs.points2d,
    )
    return scene, obs, inp


@pytest.fixture(scope="module")
def clean_result(clean_scene):
    _, _, inp = clean_scene
    return run_pipeline(inp, PipelineConfig())


def track_to_gt(track, obs):
    votes = Counter(obs.det_gt[img][det] for img, det in track.supports)
    return votes.most_common(1)[0][0]


def test_every_gt_line_becomes_exactly_one_track(clean_scene, clean_result):
    scene, obs, _ = clean_scene
    assert len(clean_result.tracks) == len(scene.segments3d)
    owners = Counter(track_to_gt(t, obs) for t in clean_result.tracks)
    assert sorted(owners) == list(range(len(scene.segments3d)))
    assert set(owners.values()) == {1}


def test_recall_at_one_percent_diameter(clean_scene, clean_result):
    scene, _, _ = clean_scene
    tau = 0.01 * scene_diameter(scene)
    recall = length_recall(scene.segments3d, [t.segment for t in clean_result.tracks], tau)
    assert recall >= 0.999


def test_vp_tracks_align_with_gt_axes(clean_scene, clean_result):
    scene, _, _ = clean_scene
    assert len(clean_result.vp_tracks) == 3
    hits = set()
    for vt in clean_result.vp_tracks:
        angles = [acute_angle(vt.direction, axis) for axis in scene.vp_directions]
        best = int(np.argmin(angles))
        assert np.degrees(angles[best]) < 2.0
        hits.add(best)
    assert hits == {0, 1, 2}


def test_junction_edges_are_a_subset_of_gt(clean_scene, clean_result):
    scene, obs, _ = clean_scene
    gt_edges = {(j, s) for j, s in scene.junction_edges}
    mapped = {
        (point_idx, track_to_gt(clean_result.tracks[track_idx], obs))
        for point_idx, track_idx in clean_result.point_line_edges
    }
    assert mapped <= gt_edges
    assert len(mapped) == len(clean_result.point_line_edges)


def test_stats_describe_the_run(clean_result):
    stats = clean_result.stats
    for key in ("images", "detections", "proposals", "accepted", "tracks", "vp_tracks"):
        assert key in stats
    assert stats["images"] == 8
    assert stats["tracks"] == len(clean_result.tracks)
    # no wall-clock entries: stats must be reproducible across runs
    assert all("time" not in k and "seconds" not in k for k in stats)


def test_refinement_preserves_track_membership(clean_scene, clean_result):
    _, _, inp = clean_scene
    unrefined = run_pipeline(inp, PipelineConfig(optimize=False))
    assert [t.supports for t in unrefined.tracks] == [
        t.supports for t in clean_result.tracks
    ]


def test_select_best_scores_each_cross_image_pair_once(monkeypatch):
    gens = [1, 2, 2, 3, 1]
    proposals = [
        (TrackCandidate(Segment3D(np.array([i, 0.0, 5.0]), np.array([i, 1.0, 5.0]))), gen)
        for i, gen in enumerate(gens)
    ]
    index = {id(cand.segment): i for i, (cand, _) in enumerate(proposals)}
    pairs = []

    def score(a, b, ref_view, projections, config):
        pairs.append(frozenset((index[id(a)], index[id(b)])))
        return 0.75

    monkeypatch.setattr(pipeline, "selection_pair_score", score)
    view = identity_view()
    best = pipeline._select_best(proposals, view, {g: view for g in gens}, PipelineConfig())
    cross = {
        frozenset((a, b))
        for a in range(len(gens))
        for b in range(a + 1, len(gens))
        if gens[a] != gens[b]
    }
    assert len(pairs) == len(cross) == 8
    assert set(pairs) == cross
    # every proposal sums 0.75 from each of two other images: the first one wins the tie
    assert best is proposals[0][0]


def _select_best_reference(proposals, ref_view, views, config):
    """The selection rule as a plain loop that scores each pair in both directions."""
    best, best_score = None, -1.0
    for cand, gen in proposals:
        per_image = {}
        for other, j in proposals:
            if j != gen:
                s = selection_score(
                    cand.segment, other.segment, ref_view, views[gen], views[j], config
                )
                per_image[j] = max(per_image.get(j, 0.0), s)
        total = sum(per_image.values())
        if total > best_score:
            best, best_score = cand, total
    return best if best_score >= config.accept_threshold else None


def test_select_best_matches_the_two_direction_loop(clean_scene, monkeypatch):
    select = pipeline._select_best
    accepted = []

    def checked(proposals, ref_view, views, config):
        best = select(proposals, ref_view, views, config)
        assert best is _select_best_reference(proposals, ref_view, views, config)
        accepted.append(best is not None)
        return best

    monkeypatch.setattr(pipeline, "_select_best", checked)
    run_pipeline(clean_scene[2], PipelineConfig(use_vps=False, optimize=False))
    assert sum(accepted) > 100


def test_compute_neighbors_ranks_by_point_overlap():
    point_obs = {
        0: [(0, np.zeros(2)), (1, np.zeros(2)), (2, np.zeros(2))],
        1: [(0, np.zeros(2)), (1, np.zeros(2))],
        2: [(2, np.zeros(2))],
        3: [],
    }
    nb = compute_neighbors([0, 1, 2, 3], point_obs, n_neighbors=3)
    assert nb[0] == [1, 2, 3]
    assert nb[1][0] == 0
    # an image with no shared points falls back to ascending ids
    assert nb[3] == [0, 1, 2]


def test_compute_neighbors_limits_list_length():
    nb = compute_neighbors(list(range(6)), {}, n_neighbors=2)
    assert all(len(v) == 2 for v in nb.values())
    assert nb[5] == [0, 1]


def test_rescue_receives_a_detections_points_in_association_order(monkeypatch):
    # points 5 and 2 lie on detection 0, in that observation order; 9 lies off it
    points3d = np.arange(30.0).reshape(10, 3)
    inp = PipelineInput(
        views={0: identity_view()},
        detections={0: [Segment2D(np.array([100.0, 240.0]), np.array([500.0, 240.0]))]},
        points3d=points3d,
        point_obs={
            0: [
                (5, np.array([200.0, 240.5])),
                (2, np.array([300.0, 239.0])),
                (9, np.array([300.0, 300.0])),
            ]
        },
    )
    received = []

    def multipoint(rays, view, pts):
        received.append(np.array(pts))
        raise TriangulationError("recorded")

    monkeypatch.setattr(pipeline, "triangulate_multipoint", multipoint)
    run_pipeline(inp, PipelineConfig(use_vps=False, optimize=False))
    assert len(received) == 1
    np.testing.assert_array_equal(received[0], points3d[[5, 2]])


@pytest.fixture(scope="module")
def noisy_scene():
    scene = build_scene(SceneConfig(n_views=16))
    obs = observe_scene(scene, ObservationConfig(noise_px=1.0, outlier_fraction=0.2, seed=7))
    inp = PipelineInput(
        views=scene.views,
        detections=obs.detections,
        matches=obs.matches,
        points3d=scene.junctions,
        point_obs=obs.points2d,
    )
    return obs, inp


def test_each_endpoint_ray_is_solved_once_per_run(noisy_scene, monkeypatch):
    # the noisy 16-view scene: every IoU gate and triangulation reads the ray table
    obs, inp = noisy_scene
    solves = Counter()
    solve = CameraView.pixel_to_normalized

    def counted(view, pixel):
        solves["pixel_to_normalized"] += 1
        return solve(view, pixel)

    monkeypatch.setattr(CameraView, "pixel_to_normalized", counted)
    run_pipeline(inp, PipelineConfig())
    n_detections = sum(len(dets) for dets in obs.detections.values())
    assert n_detections == 931
    assert solves["pixel_to_normalized"] == 2 * n_detections


def test_select_best_projects_each_proposal_once_per_generating_image(noisy_scene, monkeypatch):
    _, inp = noisy_scene
    counts = Counter()
    inside = []
    project_point = CameraView.project_point
    projection = pipeline.project_segment
    select = pipeline._select_best

    def counted_point(view, p):
        if inside:
            counts["project_point"] += 1
            try:
                return project_point(view, p)
            except ValueError:
                counts["behind"] += 1
                raise
        return project_point(view, p)

    def counted_projection(seg, view):
        counts["projection"] += 1
        return projection(seg, view)

    def checked(proposals, ref_view, views, config):
        gens = {j for _, j in proposals}
        if len(gens) > 1:  # with one generating image no pair is scored
            counts["expected"] += len(proposals) * len(gens)
        inside.append(True)
        try:
            return select(proposals, ref_view, views, config)
        finally:
            inside.pop()

    monkeypatch.setattr(CameraView, "project_point", counted_point)
    monkeypatch.setattr(pipeline, "project_segment", counted_projection)
    monkeypatch.setattr(pipeline, "_select_best", checked)
    run_pipeline(inp, PipelineConfig(optimize=False))
    assert counts["expected"] > 50_000
    assert counts["projection"] == counts["expected"]
    # two points per projection, less the end point skipped after a start behind a view
    assert 2 * counts["expected"] - counts["behind"] <= counts["project_point"]
    assert counts["project_point"] <= 2 * counts["expected"]

"""End-to-end pipeline tests on the synthetic box scene."""

import dataclasses
import time
import warnings
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from linemap import pipeline, scoring, tracks
from linemap.config import PipelineConfig
from linemap.geometry import CameraView, Segment2D, Segment3D, acute_angle
from linemap.metrics import evaluate_segments
from linemap.optimize import OptimizeConfig
from linemap.pipeline import PipelineInput, compute_neighbors, run_pipeline
from linemap.synthetic import (
    ObservationConfig,
    SceneConfig,
    build_scene,
    observe_scene,
    scene_diameter,
)
from linemap.io import canonical_dumps, tracks_payload
from linemap.tracks import TrackCandidate
from linemap.triangulation import Poses, RescueRows

from support import identity_view, intrinsics, reference_selection_pair_score


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
    segs = [t.segment for t in clean_result.tracks]
    recall = evaluate_segments(scene.segments3d, segs, taus=(tau,)).recall[0]
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
    for key in (
        "images",
        "detections",
        "proposals",
        "degenerate_matches",
        "point_rescues",
        "vp_rescues",
        "unrescued_matches",
        "multipoint_proposals",
        "accepted",
        "tracks",
        "vp_tracks",
    ):
        assert key in stats
    assert stats["images"] == 8
    assert stats["tracks"] == len(clean_result.tracks)
    # every degenerate match is rescued by a point, by a VP or not at all
    assert stats["degenerate_matches"] == (
        stats["point_rescues"] + stats["vp_rescues"] + stats["unrescued_matches"]
    )
    # no wall-clock entries: stats must be reproducible across runs
    assert all("time" not in k and "seconds" not in k for k in stats)


def test_refinement_preserves_track_membership(clean_scene, clean_result):
    _, _, inp = clean_scene
    unrefined = run_pipeline(inp, PipelineConfig(optimize=False))
    assert [t.supports for t in unrefined.tracks] == [
        t.supports for t in clean_result.tracks
    ]


def test_opt_max_iterations_caps_joint_refinement(clean_scene, monkeypatch):
    class Stop(Exception):
        pass

    def optimize(problem, config):
        passed.append(config)
        raise Stop

    passed = []
    monkeypatch.setattr(pipeline, "optimize", optimize)
    with pytest.raises(Stop):
        run_pipeline(clean_scene[2], PipelineConfig(use_points=False, opt_max_iterations=7))
    # the cap is the one key refinement reads; the losses keep OptimizeConfig's defaults
    assert passed == [OptimizeConfig(max_iterations=7)]


def _proposals(gens, start, end):
    """An ``ImageProposals`` of one image: detection ``d`` has a proposal per
    entry of ``gens[d]``, generated in that image."""
    flat = [gen for det in gens for gen in det]
    return pipeline.ImageProposals(
        start,
        end,
        ["algebraic"] * len(flat),
        flat,
        [len(det) for det in gens],
        [[] for _ in gens],
        Counter(),
    )


def test_select_best_scores_each_cross_image_pair_once(monkeypatch):
    # two detections of one image: their proposals form one block, and only
    # pairs of one detection from different generating images are scored
    gens = [[1, 2, 2, 3, 1], [2, 2], [], [3, 1]]
    rows = [(i, d) for d, det in enumerate(gens) for i in range(len(det))]
    start = np.array([[i, d, 5.0] for i, d in rows])
    props = _proposals(gens, start, start + [0.0, 1.0, 0.0])
    views = {g: identity_view(f=600.0 + g) for g in props.gens}
    blocks, pairs = [], []

    def score(block, first, second, config):
        # each proposal is measured in the image that generated it
        kr = [(views[g].K @ views[g].R).tolist() for g in props.gens]
        assert [row.tolist() for row in block.kr] == kr
        assert block.start.tolist() == props.start.tolist()
        blocks.append(block)
        pairs.extend(frozenset(p) for p in zip(first.tolist(), second.tolist()))
        return np.full(len(first), 0.75)

    monkeypatch.setattr(pipeline, "selection_pair_score", score)
    best = pipeline._select_best(props, identity_view(), views, PipelineConfig())
    assert len(blocks) == 1
    cross = {
        frozenset((a, b))
        for a in range(5)
        for b in range(a + 1, 5)
        if gens[0][a] != gens[0][b]
    }
    assert len(pairs) == len(cross) + 1 == 9
    assert set(pairs) == cross | {frozenset((7, 8))}
    # in the first detection every proposal sums 0.75 from each of two other
    # images: the first one wins the tie; the second detection has one
    # generating image and no support, the third no proposal
    assert best == [0, None, None, None]
    config = PipelineConfig(accept_threshold=0.75)
    assert pipeline._select_best(props, identity_view(), views, config) == [0, None, None, 7]


def _select_best_reference(proposals, ref_view, views, config):
    """The selection rule as a plain loop over one detection's proposals that
    scores each pair in both directions with the reference pair score: the
    position of the best-supported ``(segment, generating image)``, or None."""
    best, best_score = None, -1.0
    for k, (seg, gen) in enumerate(proposals):
        per_image = {}
        for other, j in proposals:
            if j != gen:
                s = reference_selection_pair_score(
                    seg, other, ref_view, views[gen], views[j], config
                )
                per_image[j] = max(per_image.get(j, 0.0), s)
        total = sum(per_image.values())
        if total > best_score:
            best, best_score = k, total
    return best if best_score >= config.accept_threshold else None


def test_select_best_matches_the_two_direction_loop(clean_scene, monkeypatch):
    select = pipeline._select_best
    accepted = []

    def checked(props, ref_view, views, config):
        best = select(props, ref_view, views, config)
        offsets = np.cumsum([0] + props.counts).tolist()
        want = []
        for lo, hi in zip(offsets, offsets[1:]):
            det = [
                (Segment3D(props.start[i], props.end[i]), props.gens[i]) for i in range(lo, hi)
            ]
            k = _select_best_reference(det, ref_view, views, config)
            want.append(None if k is None else lo + k)
        assert best == want
        accepted.extend(b is not None for b in best)
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
    # one camera centre for all: ties fall back to ascending ids
    views = {img: identity_view() for img in range(4)}
    nb = compute_neighbors(views, point_obs, n_neighbors=3)
    assert nb[0] == [1, 2, 3]
    assert nb[1][0] == 0
    # an image with no shared points falls back to ascending ids
    assert nb[3] == [0, 1, 2]


def test_compute_neighbors_limits_list_length():
    nb = compute_neighbors({img: identity_view() for img in range(6)}, {}, n_neighbors=2)
    assert all(len(v) == 2 for v in nb.values())
    assert nb[5] == [0, 1]


def test_compute_neighbors_breaks_dice_ties_by_camera_distance():
    # six cameras along x, every one seeing the same points: every Dice score
    # is 1, so each image's neighbours are the nearest centres, and of two
    # equally near ones the lower id comes first
    views = {
        img: CameraView(intrinsics(), np.eye(3), np.array([5.0 - 2.0 * img, 0.0, 10.0]))
        for img in range(6)
    }
    point_obs = {img: [(0, np.zeros(2)), (1, np.zeros(2))] for img in views}
    nb = compute_neighbors(views, point_obs, n_neighbors=3)
    assert nb[0] == [1, 2, 3]
    assert nb[3] == [2, 4, 1]
    assert nb[5] == [4, 3, 2]
    # a larger overlap still ranks first, however far the camera
    point_obs[5] = [(0, np.zeros(2)), (1, np.zeros(2)), (2, np.zeros(2))]
    point_obs[0] = [(0, np.zeros(2)), (1, np.zeros(2)), (2, np.zeros(2))]
    assert compute_neighbors(views, point_obs, n_neighbors=3)[0] == [5, 1, 2]


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

    def multipoint(rays, ref, pts, owner):
        # one block per run: detection 0 is its one row, with image 0's pose,
        # and both points are its own
        received.append((np.array(rays), ref, np.array(pts), np.array(owner)))
        return RescueRows(np.ones(len(rays), dtype=np.intp), np.zeros((1, 3)), np.zeros((1, 3)))

    monkeypatch.setattr(pipeline, "triangulate_multipoint", multipoint)
    run_pipeline(inp, PipelineConfig(use_vps=False, optimize=False))
    assert len(received) == 1
    rays, ref, pts, owner = received[0]
    assert rays.shape == (1, 2, 3) and owner.tolist() == [0, 0]
    view = inp.views[0]
    for field, want in zip(ref, (view.R, view.t, view.camera_center)):
        assert field.shape == (1, *want.shape) and field[0].tobytes() == want.tobytes()
    np.testing.assert_array_equal(pts, points3d[[5, 2]])


def pose_groups(ref: Poses) -> list[np.ndarray]:
    """The rows of each distinct reference pose, in order of first appearance."""
    groups: dict[bytes, list[int]] = {}
    for i, (R, t) in enumerate(zip(ref.R, ref.t)):
        groups.setdefault(R.tobytes() + t.tobytes(), []).append(i)
    return [np.array(rows) for rows in groups.values()]


def one_block_per_image(solve, blocks):
    """``solve`` (a match rescue) called once per reference image among a
    run-level block's rows; ``blocks`` records each call's row count."""

    def split(rows, cues):
        m = len(rows.c)
        out = RescueRows(np.zeros(m, dtype=np.intp), np.zeros((m, 3)), np.zeros((m, 3)))
        for group in pose_groups(rows.ref):
            part = solve(rows.take(group), cues[group])
            blocks.append(len(group))
            for field, values in zip(out, part):
                field[group] = values
        return out

    return split


def multipoint_per_image(solve, blocks):
    """The multi-point fit called once per reference image among a
    run-level block's detections."""

    def split(rays, ref, points, owner):
        m = len(rays)
        out = RescueRows(np.zeros(m, dtype=np.intp), np.zeros((m, 3)), np.zeros((m, 3)))
        for group in pose_groups(ref):
            mine = np.isin(owner, group)
            part = solve(rays[group], ref.take(group), points[mine], np.searchsorted(group, owner[mine]))
            blocks.append(len(group))
            for field, values in zip(out, part):
                field[group] = values
        return out

    return split


@pytest.mark.parametrize("scene", ["noisy", "clean"])
def test_run_level_rescue_equals_one_block_per_image(scene, request, monkeypatch):
    # each rescue row's outcome does not depend on the other rows of its
    # block: splitting every run-level call into one call per reference image,
    # as the rescue ran before, gives the same tracks.json bytes
    fixture = request.getfixturevalue(f"{scene}_scene")
    inp = fixture[-1]
    want = canonical_dumps(tracks_payload(run_pipeline(inp, PipelineConfig())))
    blocks = {name: [] for name in ("triangulate_line_point", "triangulate_line_vp", "triangulate_multipoint")}
    for name, calls in blocks.items():
        split = multipoint_per_image if name == "triangulate_multipoint" else one_block_per_image
        monkeypatch.setattr(pipeline, name, split(getattr(pipeline, name), calls))
    got = canonical_dumps(tracks_payload(run_pipeline(inp, PipelineConfig())))
    assert got == want
    # each run-level call held rows of several images
    assert all(len(calls) >= 8 for calls in blocks.values())


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


def test_triangulation_counters_add_up_to_the_proposals(noisy_scene, monkeypatch):
    # the counters in stats against what each image's blocks gave: the
    # degenerate rows of the algebraic blocks, and the proposals by source
    _, inp = noisy_scene
    degenerate, sources, rescue_calls = [], Counter(), Counter()
    algebraic, proposals = pipeline.triangulate_algebraic, pipeline._image_proposals

    def triangulated(block):
        tri = algebraic(block)
        degenerate.append(int((tri.bad1 | tri.bad2).sum()))
        return tri

    def proposed(*args):
        props = proposals(*args)
        sources.update(props.sources)
        return props

    def counted(name):
        solve = getattr(pipeline, name)
        return lambda *args: rescue_calls.update([name]) or solve(*args)

    monkeypatch.setattr(pipeline, "triangulate_algebraic", triangulated)
    monkeypatch.setattr(pipeline, "_image_proposals", proposed)
    for name in ("triangulate_line_point", "triangulate_line_vp", "triangulate_multipoint"):
        monkeypatch.setattr(pipeline, name, counted(name))
    stats = run_pipeline(inp, PipelineConfig(optimize=False)).stats
    assert stats["degenerate_matches"] == sum(degenerate) > 0
    assert stats["vp_rescues"] == sources["vp"] > 0
    assert stats["point_rescues"] + stats["multipoint_proposals"] == sources["point"]
    assert stats["point_rescues"] > 0 and stats["multipoint_proposals"] > 0
    assert stats["unrescued_matches"] == (
        stats["degenerate_matches"] - stats["point_rescues"] - stats["vp_rescues"]
    )
    assert stats["proposals"] == sum(sources.values())
    # one block per run and cue, whatever the number of images: the point
    # rescue at most twice (first point, then second), the others once
    assert rescue_calls["triangulate_multipoint"] == 1 and rescue_calls["triangulate_line_vp"] == 1
    assert 1 <= rescue_calls["triangulate_line_point"] <= 2


def test_each_endpoint_ray_is_solved_once_per_run(noisy_scene, monkeypatch):
    # the noisy 16-view scene: the ray table solves each image's endpoints
    # as one broadcast solve, and every block reads its rows from it
    obs, inp = noisy_scene
    solves = Counter()
    solve = CameraView.pixel_to_normalized

    def counted(view, pixels):
        solves["calls"] += 1
        solves["rows"] += len(pixels)
        return solve(view, pixels)

    monkeypatch.setattr(CameraView, "pixel_to_normalized", counted)
    run_pipeline(inp, PipelineConfig())
    n_detections = sum(len(dets) for dets in obs.detections.values())
    assert n_detections == 931
    assert solves == {"calls": 16, "rows": 2 * n_detections}


def test_neighbours_of_sixteen_views_are_every_other_image(noisy_scene):
    # the cap of 20 neighbours covers all 15 other images, so the camera
    # distance tie-break reorders each list but changes no neighbour set
    _, inp = noisy_scene
    nb = compute_neighbors(inp.views, inp.point_obs)
    assert {img: set(row) for img, row in nb.items()} == {
        img: set(inp.views) - {img} for img in inp.views
    }


def test_a_wide_ring_maps_every_line():
    # 48 views around the box, every junction seen from every view, so every
    # Dice score ties: ranking the ties by image id gave every image the
    # neighbours 0-19 and recall 0.778; by camera distance it is 1.0, with
    # 88 tracks, in 3.2 s on a 2-vCPU Xeon VM (the limit is about 5x that)
    scene = build_scene(SceneConfig(n_views=48, n_segments=80, seed=1))
    obs = observe_scene(scene, ObservationConfig(noise_px=1.0, outlier_fraction=0.2, seed=1))
    inp = PipelineInput(
        views=scene.views,
        detections=obs.detections,
        matches=obs.matches,
        points3d=scene.junctions,
        point_obs=obs.points2d,
    )
    start = time.perf_counter()
    result = run_pipeline(inp, PipelineConfig())
    elapsed = time.perf_counter() - start
    tau = 0.01 * scene_diameter(scene)
    report = evaluate_segments(scene.segments3d, [t.segment for t in result.tracks], taus=(tau,))
    assert report.recall[0] >= 0.95
    assert report.precision[0] >= 0.95
    assert elapsed < 15.0


def test_each_relative_pose_is_computed_once_per_run(noisy_scene, monkeypatch):
    # one block per reference image, one row per match into a neighbour, and
    # one relative pose per ordered image pair that a block row reaches
    _, inp = noisy_scene
    image_of = {id(view): img for img, view in inp.views.items()}
    computed = Counter()  # (reference image, matched image) -> relative_pose calls
    blocks = []  # (reference image, rows) of each block
    pose_fn, rows_fn = pipeline.relative_pose, pipeline.match_rows

    def counted_pose(ref, match):
        computed[image_of[id(ref)], image_of[id(match)]] += 1
        return pose_fn(ref, match)

    def recorded_rows(ref_view, *args):
        rows = rows_fn(ref_view, *args)
        blocks.append((image_of[id(ref_view)], len(rows.c)))
        return rows

    monkeypatch.setattr(pipeline, "relative_pose", counted_pose)
    monkeypatch.setattr(pipeline, "match_rows", recorded_rows)
    run_pipeline(inp, PipelineConfig())
    neighbors = compute_neighbors(inp.views, inp.point_obs)
    eligible = Counter(
        (img, j)
        for img, rows in inp.matches.items()
        for row in rows
        for j, _ in row
        if j != img and j in neighbors[img]
    )
    assert [img for img, _ in blocks] == sorted(inp.views)
    assert sum(n for _, n in blocks) == sum(eligible.values()) == 23_112
    assert set(computed) == set(eligible) and len(computed) == 16 * 15
    assert set(computed.values()) == {1}


def test_pair_scores_project_only_pairs_past_the_3d_gate(noisy_scene, monkeypatch):
    # each selection block projects every proposal into its generating view
    # once, when it is built, and each track block every segment into its
    # owning view; a pair whose 3D components give 0 projects nothing, and
    # any other pair projects each segment into the other's view
    _, inp = noisy_scene
    counts = Counter()
    passes = []  # the rows each track block scores
    made = []  # row projections made by each open builder or pair score
    project_rows, build = scoring._project_rows, pipeline.build_tracks

    def counted_rows(start, end, kr, kt):
        made[-1].append(len(start))
        return project_rows(start, end, kr, kt)

    def built_block(start, *args):
        made.append([])
        block = scoring.proposal_block(start, *args)
        assert made.pop() == [len(start)]
        counts["selection", "records"] += len(start)
        counts["selection", "projections"] += len(start)
        return block

    def scored_block(block, first, second, config):
        made.append([])
        s = scoring.selection_pair_score(block, first, second, config)
        rows = made.pop()
        counts["selection", "blocks"] += 1
        counts["selection", "pairs"] += len(first)
        # b into a's view and a into b's view, for the same rows
        assert len(rows) == 2 and rows[0] == rows[1]
        counts["selection", "past the gate"] += rows[0]
        counts["selection", "projections"] += sum(rows)
        return s

    def built_track_block(segments, *args):
        made.append([])
        block = scoring.track_block(segments, *args)
        assert made.pop() == [len(segments)]
        passes.append(0)
        counts["tracks", "blocks"] += 1
        counts["tracks", "records"] += len(segments)
        counts["tracks", "projections"] += len(segments)
        return block

    def scored_slice(block, first, second, config):
        made.append([])
        s = scoring.track_pair_score(block, first, second, config)
        rows = made.pop()
        assert 0 < len(first) <= tracks.SCORE_ROWS
        passes[-1] += len(first)
        counts["tracks", "slices"] += 1
        counts["tracks", "pairs"] += len(first)
        assert len(rows) == 2 and rows[0] == rows[1]
        counts["tracks", "past the gate"] += rows[0]
        counts["tracks", "projections"] += sum(rows)
        return s

    def building(candidates, edges, *args):
        # the match edges between accepted detections, each counted once
        joined = {frozenset(e) for e in edges if e[0] != e[1] and set(e) <= candidates.keys()}
        counts["tracks", "edges"] = len(joined)
        return build(candidates, edges, *args)

    monkeypatch.setattr(scoring, "_project_rows", counted_rows)
    monkeypatch.setattr(pipeline, "proposal_block", built_block)
    monkeypatch.setattr(pipeline, "selection_pair_score", scored_block)
    monkeypatch.setattr(pipeline, "build_tracks", building)
    monkeypatch.setattr(tracks, "track_block", built_track_block)
    monkeypatch.setattr(tracks, "track_pair_score", scored_slice)
    result = run_pipeline(inp, PipelineConfig(optimize=False))
    # one selection block per image, one row per proposal; one track block
    # for the accepted candidates, with a row per deduplicated match edge,
    # and one for the tracks entering remerge, with a row per pair of them
    assert result.stats["proposals"] == 9_695
    assert result.stats["accepted"] == 895
    assert passes == [counts["tracks", "edges"], 40 * 39 // 2]
    assert counts == {
        ("selection", "blocks"): 16,
        ("selection", "records"): 9_695,
        ("selection", "pairs"): 42_698,
        ("selection", "past the gate"): 22_444,
        ("selection", "projections"): 2 * 22_444 + 9_695,
        ("tracks", "edges"): 6_547,
        ("tracks", "blocks"): 2,
        ("tracks", "records"): 935,
        ("tracks", "slices"): 7 + 1,
        ("tracks", "pairs"): 7_327,
        ("tracks", "past the gate"): 5_359,
        ("tracks", "projections"): 2 * 5_359 + 935,
    }


def test_scored_segments_keep_only_their_fields_and_cached_properties(noisy_scene, monkeypatch):
    # per-segment scoring work lives in the array blocks of one pass, so every
    # selected proposal, every track entering remerge and every track built
    # holds nothing beyond its dataclass fields and cached properties afterwards
    _, inp = noisy_scene
    segments = []
    remerge, build = tracks.remerge_tracks, pipeline.build_tracks

    def remerged(found, *args):
        segments.extend(t.segment for t in found)
        return remerge(found, *args)

    def built(candidates, *args):
        found = build(candidates, *args)
        segments.extend(c.segment for c in candidates.values())
        segments.extend(t.segment for t in found)
        return found

    monkeypatch.setattr(tracks, "remerge_tracks", remerged)
    monkeypatch.setattr(pipeline, "build_tracks", built)
    run_pipeline(inp, PipelineConfig(optimize=False))
    allowed = {f.name for f in dataclasses.fields(Segment3D)}
    allowed |= {k for k, v in vars(Segment3D).items() if isinstance(v, cached_property)}
    assert len(segments) > 895
    assert sorted({k for seg in segments for k in vars(seg)} - allowed) == []


def test_noisy_scene_maps_without_a_floating_point_event(noisy_scene):
    # no overflow, invalid operation, division by zero or warning anywhere in a default run
    _, inp = noisy_scene
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        result = run_pipeline(inp, PipelineConfig())
    assert len(result.tracks) > 30
    assert np.isfinite(result.stats["opt_final_cost"])


def test_mirrored_cameras_map_as_the_unmirrored_ones():
    # negating both focal lengths in K and turning R and t by pi about the
    # optical axis leaves every pixel where it was; the depth/focal scales of
    # track scoring read the focal magnitude, so the tracks stay the same
    scene = build_scene(SceneConfig())
    obs = observe_scene(scene, ObservationConfig(noise_px=1.0))
    turn = np.diag([-1.0, -1.0, 1.0])
    mirrored = {}
    for img, view in scene.views.items():
        K = view.K.copy()
        K[0, 0], K[1, 1] = -K[0, 0], -K[1, 1]
        mirrored[img] = CameraView(K, turn @ view.R, turn @ view.t, view.width, view.height)
        for p in scene.junctions:
            np.testing.assert_array_equal(mirrored[img].project_point(p), view.project_point(p))
        assert mirrored[img].focal == view.focal
    plain, flipped = (
        run_pipeline(
            PipelineInput(
                views=views,
                detections=obs.detections,
                matches=obs.matches,
                points3d=scene.junctions,
                point_obs=obs.points2d,
            ),
            PipelineConfig(optimize=False),
        )
        for views in (scene.views, mirrored)
    )
    assert len(plain.tracks) == 38
    assert [t.supports for t in flipped.tracks] == [t.supports for t in plain.tracks]
    for a, b in zip(flipped.tracks, plain.tracks):
        np.testing.assert_allclose(a.segment.endpoints(), b.segment.endpoints(), rtol=0, atol=1e-9)

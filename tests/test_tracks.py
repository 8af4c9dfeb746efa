import numpy as np
import pytest

from linemap import tracks as tracks_module
from linemap.config import PipelineConfig
from linemap.geometry import Segment3D, trimmed_extent
from linemap.scoring import track_block, track_pair_score
from linemap.tracks import (
    SCORE_ROWS,
    LineTrack,
    TrackCandidate,
    build_tracks,
    fit_segment_to_endpoints,
)

from support import make_view


def ring_views(n=6, radius=4.0):
    views = {}
    for i in range(n):
        a = 2 * np.pi * i / n
        views[i] = make_view([radius * np.cos(a), 0.6, radius * np.sin(a)])
    return views


def on_x_axis(t0, t1, y=0.0, z=0.0):
    return Segment3D(np.array([t0, y, z]), np.array([t1, y, z]))


def test_extent_keeps_third_outermost():
    # twelve projections at integer offsets: extent spans [2, 9]
    pts = np.array([[float(i), 0.0, 0.0] for i in range(12)])
    seg = fit_segment_to_endpoints(pts)
    ts = sorted([seg.start[0], seg.end[0]])
    assert ts == pytest.approx([2.0, 9.0])


def test_extent_falls_back_to_full_span_when_few():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0], [4.0, 0, 0]])
    seg = fit_segment_to_endpoints(pts)
    ts = sorted([seg.start[0], seg.end[0]])
    assert ts == pytest.approx([0.0, 4.0])


@pytest.mark.parametrize(
    "ts, expected",
    [
        ([], None),
        ([3.0], None),
        ([4.0, 0.0, 3.0, 1.0, 2.5], (0.0, 4.0)),  # fewer than six: full span
        ([float(i) for i in (7, 0, 11, 3, 9, 1, 5, 10, 2, 8, 4, 6)], (2.0, 9.0)),
        ([0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0], None),  # third-outermost values coincide
        ([1.0, 1.0], None),
    ],
    ids=["empty", "one", "five", "twelve", "collapsed_trim", "collapsed_span"],
)
def test_trimmed_extent(ts, expected):
    assert trimmed_extent(ts) == expected
    assert trimmed_extent(np.array(ts)) == expected


def test_degenerate_endpoints_return_none():
    pts = np.tile(np.array([1.0, 2.0, 3.0]), (8, 1))
    assert fit_segment_to_endpoints(pts) is None


def make_candidates(views, portions, line_y=0.0, line_z=0.0, source="algebraic"):
    """One candidate per (image, idx) covering the given x-axis portion."""
    cands = {}
    for (img, idx), (t0, t1) in portions.items():
        cands[(img, idx)] = TrackCandidate(on_x_axis(t0, t1, line_y, line_z), source)
    return cands


def test_consistent_component_forms_single_track():
    views = ring_views()
    portions = {(i, 0): (-0.6 + 0.05 * i, 0.6 + 0.05 * i) for i in range(6)}
    cands = make_candidates(views, portions)
    edges = [((i, 0), ((i + 1) % 6, 0)) for i in range(6)]
    tracks = build_tracks(cands, edges, views, PipelineConfig(min_images=4))
    assert len(tracks) == 1
    assert tracks[0].supports == sorted(portions.keys())
    assert tracks[0].source_counts == {"algebraic": 6}
    # refit stays on the ground-truth line
    assert abs(tracks[0].segment.start[1]) < 1e-9
    assert abs(tracks[0].segment.start[2]) < 1e-9


def test_inconsistent_edge_splits_components():
    views = ring_views()
    cands = {}
    for i in range(3):
        cands[(i, 0)] = TrackCandidate(on_x_axis(-0.5, 0.5))
    for i in range(3, 6):
        cands[(i, 0)] = TrackCandidate(on_x_axis(-0.5, 0.5, y=0.9))  # different line
    edges = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((3, 0), (4, 0)), ((4, 0), (5, 0))]
    edges.append(((2, 0), (3, 0)))  # bogus cross-line match
    tracks = build_tracks(cands, edges, views, PipelineConfig(min_images=3, remerge=False))
    assert len(tracks) == 2
    assert {tuple(t.supports) for t in tracks} == {
        (((0, 0)), ((1, 0)), ((2, 0))),
        (((3, 0)), ((4, 0)), ((5, 0))),
    }


def test_small_components_are_dropped():
    views = ring_views()
    cands = {(0, 0): TrackCandidate(on_x_axis(-0.5, 0.5)), (1, 0): TrackCandidate(on_x_axis(-0.5, 0.5))}
    tracks = build_tracks(cands, [((0, 0), (1, 0))], views, PipelineConfig(min_images=2))
    assert tracks == []


def test_min_image_support_filter():
    views = ring_views()
    portions = {(0, 0): (-0.5, 0.5), (0, 1): (-0.4, 0.6), (1, 0): (-0.5, 0.5)}
    cands = make_candidates(views, portions)
    edges = [((0, 0), (1, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 1))]
    assert build_tracks(cands, edges, views, PipelineConfig(min_images=3)) == []
    kept = build_tracks(cands, edges, views, PipelineConfig(min_images=2))
    assert len(kept) == 1
    assert len(kept[0].supports) == 3


def test_remerge_joins_duplicate_tracks():
    views = ring_views()
    left = {(i, 0): (-1.0 + 0.02 * i, 0.1 + 0.02 * i) for i in range(3)}
    right = {(i, 1): (-0.1 + 0.02 * i, 1.0 + 0.02 * i) for i in range(3, 6)}
    cands = make_candidates(views, {**left, **right})
    edges = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((3, 1), (4, 1)), ((4, 1), (5, 1))]
    split = build_tracks(cands, edges, views, PipelineConfig(min_images=3, remerge=False))
    assert len(split) == 2
    merged = build_tracks(cands, edges, views, PipelineConfig(min_images=3, remerge=True))
    assert len(merged) == 1
    assert merged[0].supports == sorted(list(left) + list(right))


def test_build_is_deterministic():
    views = ring_views()
    portions = {(i, k): (-0.6 + 0.03 * i + 0.01 * k, 0.6) for i in range(6) for k in range(2)}
    cands = make_candidates(views, portions)
    edges = [((i, 0), (j, 1)) for i in range(6) for j in range(6) if i != j]
    t1 = build_tracks(cands, edges, views)
    t2 = build_tracks(dict(reversed(list(cands.items()))), list(reversed(edges)), views)
    assert [t.supports for t in t1] == [t.supports for t in t2]
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a.segment.start, b.segment.start)
        np.testing.assert_array_equal(a.segment.end, b.segment.end)


def test_sliced_scores_equal_scoring_each_row_alone(monkeypatch):
    # about 2.5 slices of rows scored through the slicing helper give, row for
    # row, what each row scored alone gives: a slice seam never shifts, drops
    # or repeats a row
    rng = np.random.default_rng(48)
    views = ring_views()
    segments = []
    for line in range(5):
        y, z = rng.uniform(-0.3, 0.3, 2)
        for _ in range(12):
            t0 = rng.uniform(-0.8, -0.2)
            seg = on_x_axis(t0, t0 + rng.uniform(0.6, 1.4), y, z)
            jitter = rng.normal(scale=rng.choice([0.001, 0.005, 0.02]), size=(2, 3))
            segments.append(Segment3D(seg.start + jitter[0], seg.end + jitter[1]))
    owners = rng.integers(0, len(views), size=len(segments)).tolist()
    block = track_block(segments, owners, views)
    rows = int(2.5 * SCORE_ROWS)
    first = rng.integers(0, len(segments), size=rows)
    second = (first + rng.integers(1, len(segments), size=rows)) % len(segments)
    sizes = []

    def counted(block, first, second, config):
        sizes.append(len(first))
        return track_pair_score(block, first, second, config)

    monkeypatch.setattr(tracks_module, "track_pair_score", counted)
    cfg = PipelineConfig()
    sliced = tracks_module._pair_scores(block, first, second, cfg)
    alone = [float(track_pair_score(block, [i], [j], cfg)[0]) for i, j in zip(first, second)]
    assert sizes == [SCORE_ROWS, SCORE_ROWS, rows - 2 * SCORE_ROWS]
    assert sliced == alone
    assert sum(s > 0 for s in alone) >= 200 and len(set(alone)) >= 100

import numpy as np
import pytest

from linemap.config import PipelineConfig
from linemap.geometry import Segment3D, trimmed_extent
from linemap.tracks import (
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

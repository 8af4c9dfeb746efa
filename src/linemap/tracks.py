"""Grouping per-detection 3D hypotheses into multi-view line tracks.

Detections are graph nodes keyed by ``(image id, segment index)``; 2D match
edges are kept only where the two endpoints' best 3D hypotheses score as
consistent.  Connected components become tracks, each refit by
:func:`~linemap.geometry.principal_line` through all member endpoints and
trimmed by :func:`~linemap.geometry.trimmed_extent`.  A stricter second
merging pass joins duplicate tracks that the match graph failed to connect.
Each pass stacks its segments into one :func:`~linemap.scoring.track_block`
and scores its pairs as rows of that block, :data:`SCORE_ROWS` rows per
call, before it unites any of them.  The pair scores' ``tau_*``
thresholds, ``min_images`` and ``remerge`` are read from
:class:`~linemap.config.PipelineConfig`; the edge and remerge score
thresholds, the support floor and the slice size are constants of this
module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .geometry import CameraView, Segment3D, principal_line, trimmed_extent
from .scoring import TrackBlock, track_block, track_pair_score

Node = tuple[int, int]  # (image id, segment index)

EDGE_SCORE_MIN = 0.5  # a match edge joins two detections at this pair score
MIN_SUPPORTS = 3  # smallest component that becomes a track
REMERGE_SCORE_MIN = 0.75  # stricter pair score that merges two tracks
SCORE_ROWS = 1024  # pair rows scored per call, which keeps peak memory flat


@dataclass(frozen=True)
class TrackCandidate:
    """Best 3D hypothesis of one 2D detection."""

    segment: Segment3D
    source: str = "algebraic"


@dataclass
class LineTrack:
    segment: Segment3D
    supports: list[Node]
    source_counts: dict[str, int] = field(default_factory=dict)

    @property
    def image_ids(self) -> set[int]:
        return {img for img, _ in self.supports}


class UnionFind:
    """Disjoint sets: union by set size, ties to the first root, path halving."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = dict.fromkeys(self.parent, 1)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of ``a`` and ``b``; returns the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if self.size[ra] < self.size[rb]:
                ra, rb = rb, ra
            self.parent[rb] = ra
            self.size[ra] += self.size[rb]
        return ra


def fit_segment_to_endpoints(endpoints: np.ndarray) -> Segment3D | None:
    """Principal line through a set of endpoints, trimmed robustly.

    Returns None when the points do not define a direction or the trimmed
    extent collapses.
    """
    pts = np.asarray(endpoints, dtype=np.float64)
    mean, d, spread = principal_line(pts)
    if spread <= 1e-12 * max(1.0, float(np.abs(pts).max()) ** 2):
        return None
    extent = trimmed_extent((pts - mean) @ d)
    if extent is None:
        return None
    lo, hi = extent
    return Segment3D(mean + lo * d, mean + hi * d)


def _pair_scores(block: TrackBlock, first, second, config: PipelineConfig) -> list[float]:
    """:func:`~linemap.scoring.track_pair_score` of the rows ``(first[i],
    second[i])`` of ``block``, :data:`SCORE_ROWS` rows per call."""
    first, second = np.asarray(first, dtype=np.intp), np.asarray(second, dtype=np.intp)
    scores = []
    for k in range(0, len(first), SCORE_ROWS):
        rows = slice(k, k + SCORE_ROWS)
        scores += track_pair_score(block, first[rows], second[rows], config).tolist()
    return scores


def _make_track(nodes: list[Node], candidates: dict[Node, TrackCandidate]) -> LineTrack | None:
    seg = fit_segment_to_endpoints(
        np.concatenate([candidates[n].segment.endpoints() for n in nodes])
    )
    if seg is None:
        return None
    counts = Counter(candidates[n].source for n in nodes)
    return LineTrack(seg, sorted(nodes), dict(sorted(counts.items())))


def build_tracks(
    candidates: dict[Node, TrackCandidate],
    edges: list[tuple[Node, Node]],
    views: dict[int, CameraView],
    config: PipelineConfig = PipelineConfig(),
) -> list[LineTrack]:
    """Cluster per-detection hypotheses into 3D line tracks.

    Args:
        candidates: accepted best hypothesis per detection node.
        edges: 2D match edges between detection nodes (any direction).
        views: camera of each image id.
        config: ``min_images``, ``remerge`` and the pair score thresholds
            used for edge verification.
    """
    nodes = sorted(candidates.keys())
    index = {n: i for i, n in enumerate(nodes)}
    block = track_block([candidates[n].segment for n in nodes], [n[0] for n in nodes], views)
    # each edge once, in the order and direction it first appears
    first_seen: dict[tuple[Node, Node], tuple[Node, Node]] = {}
    for a, b in edges:
        if a in index and b in index and a != b:
            first_seen.setdefault((a, b) if a <= b else (b, a), (a, b))
    pairs = list(first_seen.values())
    scores = _pair_scores(block, [index[a] for a, _ in pairs], [index[b] for _, b in pairs], config)
    uf = UnionFind(nodes)
    for (a, b), score in zip(pairs, scores):
        if score >= EDGE_SCORE_MIN:
            uf.union(a, b)

    components: dict[Node, list[Node]] = {}
    for n in nodes:
        components.setdefault(uf.find(n), []).append(n)

    tracks: list[LineTrack] = []
    for comp in sorted(components.values()):  # each sorted; ordered by first node
        if len(comp) < MIN_SUPPORTS:
            continue
        track = _make_track(comp, candidates)
        if track is not None:
            tracks.append(track)

    if config.remerge and len(tracks) > 1:
        tracks = remerge_tracks(tracks, candidates, views, config)

    tracks = [t for t in tracks if len(t.image_ids) >= config.min_images]
    tracks.sort(key=lambda t: t.supports[0])
    return tracks


def remerge_tracks(
    tracks: list[LineTrack],
    candidates: dict[Node, TrackCandidate],
    views: dict[int, CameraView],
    config: PipelineConfig,
) -> list[LineTrack]:
    """Second-pass merging of duplicate tracks under a stricter threshold.

    Tracks are compared through their refit segments, each owned by the
    view of its first support; every pair is scored in one block,
    qualifying pairs are united and the merged groups refit from scratch.
    Components do not depend on the order of the unions.
    """
    block = track_block([t.segment for t in tracks], [t.supports[0][0] for t in tracks], views)
    first, second = np.triu_indices(len(tracks), 1)  # every i < j, ordered by i, then j
    scores = _pair_scores(block, first, second, config)
    uf = UnionFind(range(len(tracks)))
    for i, j, score in zip(first.tolist(), second.tolist(), scores):
        if score >= REMERGE_SCORE_MIN:
            uf.union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(len(tracks)):
        groups.setdefault(uf.find(i), []).append(i)

    merged: list[LineTrack] = []
    for idxs in sorted(groups.values()):  # ordered by lowest track index
        if len(idxs) == 1:
            merged.append(tracks[idxs[0]])
            continue
        nodes = sorted({n for i in idxs for n in tracks[i].supports})
        track = _make_track(nodes, candidates)
        if track is not None:
            merged.append(track)
    return merged

"""Grouping per-detection 3D hypotheses into multi-view line tracks.

Detections are graph nodes keyed by ``(image id, segment index)``; 2D match
edges are kept only where the two endpoints' best 3D hypotheses score as
consistent.  Connected components become tracks, each refit by
:func:`~linemap.geometry.principal_line` through all member endpoints and
trimmed by :func:`~linemap.geometry.trimmed_extent`.  A stricter second
merging pass joins duplicate tracks that the match graph failed to connect.
The pair scores' ``tau_*`` thresholds, ``min_images`` and ``remerge`` are
read from :class:`~linemap.config.PipelineConfig`; the edge and remerge
score thresholds and the support floor are constants of this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .geometry import CameraView, Segment3D, principal_line, trimmed_extent
from .scoring import hypothesis, track_pair_score

Node = tuple[int, int]  # (image id, segment index)

EDGE_SCORE_MIN = 0.5  # a match edge joins two detections at this pair score
MIN_SUPPORTS = 3  # smallest component that becomes a track
REMERGE_SCORE_MIN = 0.75  # stricter pair score that merges two tracks


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
    records = {n: hypothesis(candidates[n].segment, views[n[0]]) for n in nodes}
    uf = UnionFind(nodes)
    seen = set()
    for a, b in edges:
        if a not in candidates or b not in candidates or a == b:
            continue
        key = (a, b) if a <= b else (b, a)
        if key in seen:
            continue
        seen.add(key)
        if track_pair_score(records[a], records[b], config) >= EDGE_SCORE_MIN:
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

    Tracks are compared through their refit segments, each represented by
    the view of its first support; qualifying pairs are united and the
    merged groups refit from scratch.  Components do not depend on the
    order of the unions.
    """
    records = [hypothesis(t.segment, views[t.supports[0][0]]) for t in tracks]
    uf = UnionFind(range(len(tracks)))
    for i in range(len(tracks)):
        for j in range(i + 1, len(tracks)):
            if track_pair_score(records[i], records[j], config) >= REMERGE_SCORE_MIN:
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

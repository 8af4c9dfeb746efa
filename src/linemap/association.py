"""2D structural associations: points on segments and vanishing points.

Vanishing points live in homogeneous pixel coordinates (possibly at
infinity).  Estimation uses sequential RANSAC with a two-segment minimal
model: the best model is refined on its inliers and its support removed
before searching for the next one.  Cross-image VP tracks are built by
greedily merging VP detections that share supporting line tracks and agree
in world direction, never taking two detections from the same image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import EPS, CameraView, Segment2D, leading_sign, normalized, point_segment_distances
from .tracks import UnionFind


def associate_points_to_segments(
    points2d: np.ndarray,
    segments: list[Segment2D],
    threshold_px: float = 2.0,
) -> list[tuple[int, int]]:
    """Indices ``(point, segment)`` of points lying on a segment.

    Distance is measured to the finite segment (beyond the ends the nearest
    endpoint counts), so junction points slightly past a segment tip still
    associate.
    """
    if not segments:
        return []
    pts = np.asarray(points2d, dtype=np.float64).reshape(-1, 2)
    starts = np.stack([seg.start for seg in segments])
    ends = np.stack([seg.end for seg in segments])
    D = point_segment_distances(pts, starts, ends)
    return [(int(pi), int(si)) for pi, si in np.argwhere(D <= threshold_px)]


def vp_line_residual(segment: Segment2D, vp: np.ndarray) -> float:
    """Alignment error (px) between a segment and a vanishing point.

    Distance of the segment endpoints to the line joining the segment
    midpoint with the VP; zero iff the VP lies on the segment's own line,
    infinite if the VP coincides with the midpoint.
    """
    rows = [np.append(p, 1.0)[None] for p in (segment.midpoint, segment.start, segment.end)]
    return float(_vp_residuals(*rows, vp)[0])


def _refine_vp(segments: list[Segment2D], idx) -> np.ndarray:
    rows = np.stack([segments[i].infinite_line for i in idx])
    _, _, vt = np.linalg.svd(rows)
    return vt[-1]


def _vp_residuals(mids_h: np.ndarray, starts_h: np.ndarray, ends_h: np.ndarray, vp) -> np.ndarray:
    """`vp_line_residual` for many segments at once (px array).

    ``vp`` is one VP ``(3,)``, giving one residual per segment, or a stack
    ``(k, 3)``, giving a ``(k, n)`` matrix.  The cross and dot products are
    written out term by term, so each row of the matrix equals the
    single-VP result bit for bit.  The dot products add the x and w terms
    first, the order numpy's ``einsum`` sums three terms in.
    """
    v = np.asarray(vp, dtype=np.float64)
    v0, v1, v2 = (v[..., i, None] for i in range(3))  # (1,) or (k, 1): broadcast over segments
    m0, m1, m2 = mids_h.T
    l0 = m1 * v2 - m2 * v1
    l1 = m2 * v0 - m0 * v2
    l2 = m0 * v1 - m1 * v0
    norms = np.hypot(l0, l1)
    num = np.maximum(
        np.abs(l0 * starts_h[:, 0] + l2 * starts_h[:, 2] + l1 * starts_h[:, 1]),
        np.abs(l0 * ends_h[:, 0] + l2 * ends_h[:, 2] + l1 * ends_h[:, 1]),
    )
    return np.where(norms < EPS, np.inf, num / np.maximum(norms, EPS))


def estimate_vps(
    segments: list[Segment2D],
    inlier_px: float = 1.0,
    min_support: int = 5,
    max_models: int = 8,
    iterations: int = 500,
    seed: int = 0,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Sequential RANSAC vanishing point detection.

    Returns ``(vps, assignment)`` where ``assignment[i]`` is the VP index of
    segment ``i`` or -1.  Each round samples two-segment models, keeps the
    one with the largest support among the not-yet-assigned segments (the
    first one on ties), and refines it on its inliers (null vector of the
    stacked line equations).  A round's hypotheses are scored together as
    one residual matrix; a pair with identical supporting lines counts no
    support.  A model needs two segments, so ``min_support`` below 2 counts
    as 2.  Deterministic for a fixed seed.
    """
    min_support = max(min_support, 2)
    rng = np.random.default_rng(seed)
    n = len(segments)
    assignment = np.full(n, -1, dtype=np.int64)
    if n:
        lines = np.stack([s.infinite_line for s in segments])
        mids_h = np.stack([np.append(s.midpoint, 1.0) for s in segments])
        starts_h = np.stack([np.append(s.start, 1.0) for s in segments])
        ends_h = np.stack([np.append(s.end, 1.0) for s in segments])
    remaining = np.arange(n)
    vps: list[np.ndarray] = []

    while len(remaining) >= min_support and len(vps) < max_models:
        rm, rs, re = mids_h[remaining], starts_h[remaining], ends_h[remaining]
        draws = [rng.choice(len(remaining), size=2, replace=False) for _ in range(iterations)]
        pairs = remaining[np.array(draws, dtype=np.int64).reshape(-1, 2)]
        cand = np.cross(lines[pairs[:, 0]], lines[pairs[:, 1]])
        inliers = _vp_residuals(rm, rs, re, cand) <= inlier_px
        counts = inliers.sum(axis=1)
        counts[np.sqrt(np.einsum("ij,ij->i", cand, cand)) < EPS] = 0  # identical supporting lines
        if counts.size == 0 or counts.max() < min_support:
            break
        vp = _refine_vp(segments, remaining[inliers[np.argmax(counts)]])
        inl = remaining[_vp_residuals(rm, rs, re, vp) <= inlier_px]
        if len(inl) < min_support:
            break
        vp_id = len(vps)
        vps.append(vp)
        assignment[inl] = vp_id
        remaining = remaining[assignment[remaining] == -1]
    return vps, assignment


# ---------------------------------------------------------------------------
# world directions
# ---------------------------------------------------------------------------


def vp_from_direction(view: CameraView, dir_world: np.ndarray) -> np.ndarray:
    """Homogeneous pixel-space vanishing point of a world direction."""
    return view.K @ (view.R @ np.asarray(dir_world, dtype=np.float64))


def vp_direction_world(view: CameraView, vp: np.ndarray) -> np.ndarray:
    """Unit world direction whose image vanishing point is ``vp``."""
    d = view.R.T @ np.linalg.solve(view.K, np.asarray(vp, dtype=np.float64))
    return normalized(d)


# ---------------------------------------------------------------------------
# VP tracks across images
# ---------------------------------------------------------------------------


VPNode = tuple[int, int]  # (image id, per-image vp index)


@dataclass
class VPTrack:
    """A cluster of per-image VP detections believed to share a direction."""

    members: list[VPNode]
    direction: np.ndarray = field(default_factory=lambda: np.zeros(3))


def principal_direction(dirs: np.ndarray) -> np.ndarray:
    """Sign-free mean direction: top eigenvector of the summed outer products."""
    dirs = np.asarray(dirs, dtype=np.float64)
    M = dirs.T @ dirs
    _, vecs = np.linalg.eigh(M)
    d = vecs[:, -1]
    return d if leading_sign(d) > 0 else -d


def build_vp_tracks(
    directions: dict[VPNode, np.ndarray],
    shared_counts: dict[tuple[VPNode, VPNode], int],
    min_shared: int = 3,
    max_angle_deg: float = 10.0,
) -> list[VPTrack]:
    """Merge per-image VP detections into cross-image tracks.

    ``shared_counts`` gives, for pairs of detections in different images,
    how many line tracks are supported by segments assigned to both.  Pairs
    sharing at least ``min_shared`` tracks and agreeing in world direction
    within ``max_angle_deg`` become merge candidates, processed by
    descending count; a merge is skipped if it would put two detections of
    the same image into one track.
    """
    nodes = sorted(directions.keys())
    cos_min = np.cos(np.radians(max_angle_deg))
    edges = []
    for (a, b), cnt in shared_counts.items():
        if cnt < min_shared or a[0] == b[0]:
            continue
        if a not in directions or b not in directions:
            continue
        if abs(float(directions[a] @ directions[b])) < cos_min:
            continue
        key = (a, b) if a <= b else (b, a)
        edges.append((cnt, key[0], key[1]))
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))

    uf = UnionFind(nodes)
    images = {v: {v[0]} for v in nodes}  # image ids per root
    for _, a, b in edges:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb or images[ra] & images[rb]:
            continue  # already joined, or would put two VPs of one image in a track
        root = uf.union(ra, rb)
        images[root] = images[ra] | images[rb]

    groups: dict[VPNode, list[VPNode]] = {}
    for v in nodes:
        groups.setdefault(uf.find(v), []).append(v)

    tracks = []
    for root in sorted(groups):
        members = sorted(groups[root])
        if len(members) < 2:  # one image's detection is no cross-image track
            continue
        dirs = np.stack([directions[m] for m in members])
        tracks.append(VPTrack(members, principal_direction(dirs)))
    return tracks

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

from .geometry import (
    EPS,
    CameraView,
    Segment2D,
    cross_rows,
    distinct_index_pairs,
    leading_sign,
    normalized,
    point_segment_distances,
    stack_segments_2d,
)
from .scoring import FILTER_BAND
from .tracks import UnionFind

VP_MAX_MODELS = 8  # vanishing points one image can give
VP_ITERATIONS = 500  # two-segment hypotheses per RANSAC round
VP_BLOCK = 128  # distinct hypotheses scored per residual block
VP_TRACK_MAX_ANGLE_DEG = 10.0  # world-direction disagreement two merged VP detections may have


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


def _refine_vp(lines: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(lines)
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


def _vp_inliers(
    mids: np.ndarray, starts: np.ndarray, ends: np.ndarray, vps: np.ndarray, inlier_px: float
) -> np.ndarray:
    """``_vp_residuals(mids, starts, ends, vps) <= inlier_px`` for a ``(k, 3)``
    stack of VPs, as a ``(k, n)`` mask, for homogeneous rows whose last
    coordinate is 1.0.

    A product with that 1.0 is its other factor, so those products are left
    out and the lines and numerators keep their bits.  Outside a relative
    :data:`~linemap.scoring.FILTER_BAND` of equality, ``num**2`` against
    ``inlier_px**2 * (l0**2 + l1**2)`` decides (each side is a few roundings
    off its exact value); ``hypot`` and the division run only on the
    elements inside the band, with a line norm below ``2 * EPS``, with a
    square past ``_HUGE`` or not finite, or for a threshold outside
    ``_PX_RANGE``.
    """
    v0, v1, v2 = vps[:, 0, None], vps[:, 1, None], vps[:, 2, None]
    m0, m1 = mids[:, 0], mids[:, 1]
    l0 = m1 * v2 - v1
    l1 = v0 - m0 * v2
    l2 = m0 * v1 - m1 * v0
    num = np.maximum(
        np.abs(l0 * starts[:, 0] + l2 + l1 * starts[:, 1]),
        np.abs(l0 * ends[:, 0] + l2 + l1 * ends[:, 1]),
    )
    if _PX_RANGE[0] <= inlier_px <= _PX_RANGE[1]:
        sq = l0 * l0 + l1 * l1
        lhs, rhs = num * num, (inlier_px * inlier_px) * sq
        inlier = lhs < rhs * (1.0 - FILTER_BAND)
        unsure = ~(inlier | (lhs > rhs * (1.0 + FILTER_BAND)))
        unsure |= ~((sq >= _MIN_SQUARE) & (lhs <= _HUGE) & (rhs <= _HUGE))
    else:
        inlier, unsure = np.zeros(num.shape, dtype=bool), np.ones(num.shape, dtype=bool)
    i, j = np.nonzero(unsure)
    if len(i):
        norms = np.hypot(l0[i, j], l1[i, j])
        r = np.where(norms < EPS, np.inf, num[i, j] / np.maximum(norms, EPS))
        inlier[i, j] = r <= inlier_px
    return inlier


# where :func:`_vp_inliers` decides on squares: line norms of at least 2 * EPS
# (so that no residual is the infinite one), squares below _HUGE, and
# thresholds whose square is a normal double with room to spare; a numerator
# whose square underflows then lies far below any such threshold
_MIN_SQUARE = (2.0 * EPS) ** 2
_HUGE = 1e290
_PX_RANGE = (1e-100, 1e100)


def estimate_vps(
    segments: list[Segment2D],
    inlier_px: float = 1.0,
    min_support: int = 5,
    seed: int = 0,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Sequential RANSAC vanishing point detection.

    Returns ``(vps, assignment)`` where ``assignment[i]`` is the VP index of
    segment ``i`` or -1; at most :data:`VP_MAX_MODELS` VPs are found.  Each
    round samples :data:`VP_ITERATIONS` two-segment models, keeps the
    one with the largest support among the not-yet-assigned segments (the
    first one drawn on ties), and refines it on its inliers (null vector of
    the stacked line equations).  A pair with identical supporting lines
    counts no support.  A round draws its pairs in one generator call
    (:func:`~linemap.geometry.distinct_index_pairs`).  A model needs two
    segments, so ``min_support`` below 2 counts as 2.  Deterministic for a
    fixed seed.

    A pair and its reverse give negated models, whose residuals are the
    same bits (``hypot`` and ``abs`` are symmetric), so each distinct pair
    of a round is scored once, in blocks of :data:`VP_BLOCK` models
    (:func:`_vp_inliers`), and its count is read back in draw order.

    Raises:
        ValueError: if a segment is shorter than EPS.
    """
    min_support = max(min_support, 2)
    rng = np.random.default_rng(seed)
    n = len(segments)
    assignment = np.full(n, -1, dtype=np.int64)
    ends, planar = stack_segments_2d(segments)  # homogeneous endpoints (x, y, 1)
    starts_h, ends_h = ends[:, 0], ends[:, 1]
    lines = np.stack([planar.l0, planar.u, planar.l2], axis=1)
    mids_h = 0.5 * (starts_h + ends_h)  # 0.5 * (1 + 1) is 1: the rows end in 1.0
    remaining = np.arange(n)
    vps: list[np.ndarray] = []

    while len(remaining) >= min_support and len(vps) < VP_MAX_MODELS:
        left = len(remaining)
        rm, rs, re = mids_h[remaining], starts_h[remaining], ends_h[remaining]
        drawn = distinct_index_pairs(rng, left, VP_ITERATIONS)
        keys, drawn_key = np.unique(drawn.min(axis=1) * left + drawn.max(axis=1), return_inverse=True)
        cand = cross_rows(lines[remaining[keys // left]], lines[remaining[keys % left]])
        inliers = np.empty((len(keys), left), dtype=bool)
        for lo in range(0, len(keys), VP_BLOCK):
            inliers[lo : lo + VP_BLOCK] = _vp_inliers(rm, rs, re, cand[lo : lo + VP_BLOCK], inlier_px)
        counts = inliers.sum(axis=1)
        counts[np.sqrt(np.einsum("ij,ij->i", cand, cand)) < EPS] = 0  # identical supporting lines
        counts = counts[drawn_key]
        if counts.max() < min_support:
            break
        vp = _refine_vp(lines[remaining[inliers[drawn_key[np.argmax(counts)]]]])
        inl = remaining[_vp_inliers(rm, rs, re, vp[None], inlier_px)[0]]
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
) -> list[VPTrack]:
    """Merge per-image VP detections into cross-image tracks.

    ``shared_counts`` gives, for pairs of detections in different images,
    how many line tracks are supported by segments assigned to both.  Pairs
    sharing at least ``min_shared`` tracks and agreeing in world direction
    within :data:`VP_TRACK_MAX_ANGLE_DEG` become merge candidates, processed by
    descending count; a merge is skipped if it would put two detections of
    the same image into one track.
    """
    nodes = sorted(directions.keys())
    cos_min = np.cos(np.radians(VP_TRACK_MAX_ANGLE_DEG))
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

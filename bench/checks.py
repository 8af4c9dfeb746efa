"""Output checks computed with the benchmark's own numpy code.

Nothing here imports linemap: projections, distances and samples are
recomputed from plain arrays (K, R, t per camera; 3D segments as endpoint
pairs; 2D detections as ``x1, y1, x2, y2`` rows), so a fault in
``linemap.geometry`` or ``linemap.metrics`` cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

# Perpendicular endpoint error of an exact line under isotropic Gaussian
# endpoint noise: E|N(0, sigma^2)| = sigma * sqrt(2 / pi).
NOISE_FLOOR_PER_SIGMA = math.sqrt(2.0 / math.pi)


def projection_matrices(cams: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]):
    """``{image: P = K [R | t]}`` from ``{image: (K, R, t)}``."""
    return {img: K @ np.hstack([R, np.asarray(t, float).reshape(3, 1)]) for img, (K, R, t) in cams.items()}


def mean_perp_px(a3: np.ndarray, b3: np.ndarray, P: np.ndarray, ends2d: np.ndarray) -> float:
    """Mean pixel distance from 2D endpoints to projected 3D lines.

    Row ``i`` pairs the 3D line through ``a3[i]`` and ``b3[i]`` with the
    projection matrix ``P[i]`` (3x4) and one observed segment
    ``ends2d[i] = (x1, y1, x2, y2)``; both endpoints are scored.
    """
    ha = np.einsum("nij,nj->ni", P, np.hstack([a3, np.ones((len(a3), 1))]))
    hb = np.einsum("nij,nj->ni", P, np.hstack([b3, np.ones((len(b3), 1))]))
    line = np.cross(ha, hb)
    line /= np.hypot(line[:, 0], line[:, 1])[:, None]
    ones = np.ones(len(ends2d))
    p1 = np.stack([ends2d[:, 0], ends2d[:, 1], ones], axis=1)
    p2 = np.stack([ends2d[:, 2], ends2d[:, 3], ones], axis=1)
    d1 = np.abs(np.einsum("ni,ni->n", line, p1))
    d2 = np.abs(np.einsum("ni,ni->n", line, p2))
    return float(np.concatenate([d1, d2]).mean())


def sample_segments(a: np.ndarray, b: np.ndarray, spacing: float):
    """Bin-centre samples along each segment, their weights and owner index."""
    pts, weights, owner = [], [], []
    for i, (p, q) in enumerate(zip(a, b)):
        length = float(np.linalg.norm(q - p))
        n = max(2, math.ceil(length / spacing))
        ts = (np.arange(n) + 0.5) / n
        pts.append(p + ts[:, None] * (q - p))
        weights.append(np.full(n, length / n))
        owner.append(np.full(n, i))
    return np.concatenate(pts), np.concatenate(weights), np.concatenate(owner)


def distance_to_segments(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of the segments ``a[j]b[j]``."""
    ab = b - a
    denom = np.maximum(np.einsum("md,md->m", ab, ab), 1e-30)
    rel = pts[:, None, :] - a[None]
    s = np.clip(np.einsum("nmd,md->nm", rel, ab) / denom, 0.0, 1.0)
    foot = a[None] + s[..., None] * ab[None]
    return np.linalg.norm(pts[:, None, :] - foot, axis=2).min(axis=1)


def distance_to_lines(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from ``pts[i]`` to the infinite line through ``a[i]`` and ``b[i]``."""
    d = (b - a) / np.linalg.norm(b - a, axis=1)[:, None]
    rel = pts - a
    return np.linalg.norm(rel - np.einsum("nd,nd->n", rel, d)[:, None] * d, axis=1)


def length_recall(gt_a, gt_b, out_a, out_b, tau: float) -> float:
    """Share of ground-truth length within ``tau`` of some output segment."""
    if len(out_a) == 0:
        return 0.0
    pts, w, _ = sample_segments(gt_a, gt_b, tau / 4.0)
    near = distance_to_segments(pts, out_a, out_b) <= tau
    return float(w[near].sum() / w.sum())


def track_mean_distances(out_a, out_b, gt_a, gt_b, tau: float) -> np.ndarray:
    """Mean distance of each output segment's samples to the ground truth."""
    pts, _, owner = sample_segments(out_a, out_b, tau / 4.0)
    dist = distance_to_segments(pts, gt_a, gt_b)
    return np.bincount(owner, weights=dist, minlength=len(out_a)) / np.bincount(
        owner, minlength=len(out_a)
    )


def scene_diameter(a: np.ndarray, b: np.ndarray) -> float:
    pts = np.vstack([a, b])
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion ``(w, x, y, z)``."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def line_points_from_minimal(q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two points on the line of an orthonormal ``(q, w)`` line parameter.

    The frame ``U = R(q)`` has the direction as its first column and the
    moment direction as its second; ``w[1] / w[0]`` is the distance from
    the origin, so the moment is ``m = (w1 / w0) U[:, 1]`` and the foot of
    the origin is ``d x m``.
    """
    U = quat_to_rotmat(np.asarray(q, float))
    d = U[:, 0]
    m = (w[1] / w[0]) * U[:, 1]
    foot = np.cross(d, m)
    return foot, foot + d

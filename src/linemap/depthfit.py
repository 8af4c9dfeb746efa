"""Fitting 3D segments to dense depth maps.

A detected 2D segment is sampled at pixel resolution, each sample is
back-projected with its bilinearly interpolated depth, and a robust
3D line fit (RANSAC with local least-squares refinement) rejects samples
that landed on occluders or invalid depth.  The fitted segment spans the
extent of the inlier samples along the recovered line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CameraView,
    Segment2D,
    Segment3D,
    distinct_index_pairs,
    principal_line,
    sample_segment,
)

__all__ = [
    "DepthMap",
    "DepthFit",
    "backproject_samples",
    "fit_segment_to_depth",
]


@dataclass
class DepthMap:
    """Dense per-pixel z-depth; NaN marks invalid pixels."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError("depth map must be a 2D array")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def sample_bilinear(self, pixels: np.ndarray) -> np.ndarray:
        """Bilinear depth at pixel positions; NaN when any neighbor is bad.

        A sample is invalid (NaN) when its 2x2 neighborhood leaves the
        image or contains an invalid pixel.
        """
        px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
        u, v = px[:, 0], px[:, 1]
        x0 = np.floor(u).astype(int)
        y0 = np.floor(v).astype(int)
        out = np.full(len(px), np.nan, dtype=np.float64)
        ok = (x0 >= 0) & (y0 >= 0) & (x0 + 1 < self.width) & (y0 + 1 < self.height)
        if not ok.any():
            return out
        xi, yi = x0[ok], y0[ok]
        q00 = self.data[yi, xi]
        q01 = self.data[yi, xi + 1]
        q10 = self.data[yi + 1, xi]
        q11 = self.data[yi + 1, xi + 1]
        fx = u[ok] - xi
        fy = v[ok] - yi
        val = (
            q00 * (1 - fx) * (1 - fy)
            + q01 * fx * (1 - fy)
            + q10 * (1 - fx) * fy
            + q11 * fx * fy
        )
        out[ok] = val  # NaN neighbors propagate into the sample automatically
        return out


@dataclass
class DepthFit:
    segment: Segment3D
    points: np.ndarray  # back-projected valid samples, (N, 3)
    inlier_mask: np.ndarray  # bool over the valid samples
    inlier_ratio: float
    threshold: float


def backproject_samples(view: CameraView, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """World points for pixels at given z-depths."""
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    hom = np.concatenate([px, np.ones((len(px), 1))], axis=1)
    xn = hom @ np.linalg.inv(view.K).T  # z = 1 camera-frame rays
    cam = xn * np.asarray(depths, dtype=np.float64)[:, None]
    return (cam - view.t) @ view.R


def _line_distances(points: np.ndarray, anchor: np.ndarray, direction: np.ndarray) -> np.ndarray:
    rel = points - anchor
    along = rel @ direction
    return np.linalg.norm(rel - along[:, None] * direction[None, :], axis=1)


def _pca_line(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    center, direction, spread = principal_line(points)
    if not spread >= 1e-18:
        return None
    return center, direction


_MIN_SAMPLES = 4  # valid samples needed; a hypothesis draws two
_ITERATIONS = 1000  # RANSAC hypotheses
_REFINE_ROUNDS = 10  # least-squares refits per new best consensus set
_MIN_INLIER_RATIO = 0.5  # share of valid samples the fit must explain


def fit_segment_to_depth(
    seg: Segment2D,
    view: CameraView,
    depth: DepthMap,
    *,
    seed: int = 0,
) -> DepthFit | None:
    """Robustly fit a 3D segment to depth samples along a 2D segment.

    The inlier threshold adapts to scene scale as ``median_depth / focal``
    (one pixel of displacement at the median depth).  Returns None when
    fewer than half of the valid samples agree on a line, or when too few
    samples are valid.
    """
    pixels = sample_segment(seg, 1.0)
    depths = depth.sample_bilinear(pixels)
    valid = np.isfinite(depths) & (depths > 0)
    if valid.sum() < _MIN_SAMPLES:
        return None
    pixels = pixels[valid]
    depths = depths[valid]
    points = backproject_samples(view, pixels, depths)
    n = len(points)
    threshold = float(np.median(depths)) / view.focal

    rng = np.random.default_rng(seed)
    best_count = -1
    best_mask = None
    best_line = None
    for i, j in distinct_index_pairs(rng, n, _ITERATIONS).tolist():
        d = points[j] - points[i]
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        direction = d / nd
        mask = _line_distances(points, points[i], direction) <= threshold
        count = int(mask.sum())
        if count > best_count:
            # local optimization: least-squares refit on the consensus set
            anchor = points[i]
            for _ in range(_REFINE_ROUNDS):
                fit = _pca_line(points[mask])
                if fit is None:
                    break
                anchor, direction = fit
                new_mask = _line_distances(points, anchor, direction) <= threshold
                new_count = int(new_mask.sum())
                if new_count <= count:
                    break
                mask, count = new_mask, new_count
            if count > best_count:
                best_count, best_mask, best_line = count, mask, (anchor, direction)
    if best_mask is None or best_count < math.ceil(_MIN_INLIER_RATIO * n):
        return None
    anchor, direction = best_line
    fit = _pca_line(points[best_mask])
    if fit is not None:
        anchor, direction = fit
        best_mask = _line_distances(points, anchor, direction) <= threshold
    ts = (points[best_mask] - anchor) @ direction
    lo, hi = float(ts.min()), float(ts.max())
    if hi - lo < 1e-12:
        return None
    segment = Segment3D(anchor + lo * direction, anchor + hi * direction)
    return DepthFit(
        segment=segment,
        points=points,
        inlier_mask=best_mask,
        inlier_ratio=best_count / n,
        threshold=threshold,
    )

"""Length-based evaluation of reconstructed 3D segments against ground truth.

One pass per side: the ground truth and the predictions are each sampled
once, at a quarter of the smallest threshold, and each sample's exact
distance to the nearest segment on the other side is computed once.  Every
threshold then reads off those two distance vectors.  Recall is the portion
of ground-truth length within threshold of any prediction; precision
(inlier ratio) is the portion of predicted length within threshold of any
ground-truth segment; a track is an inlier when the mean (or max) distance
of its own samples is within threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Segment3D, point_segment_distances, sample_segment

__all__ = [
    "sample_segments",
    "min_distance_to_segments",
    "EvalReport",
    "evaluate_segments",
]

BLOCK_PAIRS = 65_536  # point-segment pairs measured at once by min_distance_to_segments


def _samples(segments: list[Segment3D], spacing: float):
    """Points, per-sample length weights, and the index one past each segment's samples."""
    per_seg = [sample_segment(seg, spacing) for seg in segments]
    if not per_seg:
        return np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int)
    weights = [np.full(len(p), seg.length / len(p)) for seg, p in zip(segments, per_seg)]
    ends = np.cumsum([len(p) for p in per_seg])
    return np.concatenate(per_seg), np.concatenate(weights), ends


def sample_segments(segments: list[Segment3D], spacing: float):
    """Evenly spaced points along each segment plus per-sample length weights."""
    pts, weights, _ = _samples(segments, spacing)
    return pts, weights


def min_distance_to_segments(points: np.ndarray, segments: list[Segment3D]) -> np.ndarray:
    """Exact distance from each point to the nearest of the segments.

    Points are measured in blocks of rows, so memory stays bounded by
    :data:`BLOCK_PAIRS` point-segment pairs however many points there are.
    """
    if len(segments) == 0:
        return np.full(len(points), np.inf)
    starts = np.stack([s.start for s in segments])
    ends = np.stack([s.end for s in segments])
    rows = max(1, BLOCK_PAIRS // len(segments))
    out = np.empty(len(points))
    for i in range(0, len(points), rows):
        out[i : i + rows] = point_segment_distances(points[i : i + rows], starts, ends).min(axis=1)
    return out


def _length_share(weights: np.ndarray, within: np.ndarray) -> float:
    total = float(weights.sum())
    return float(weights[within].sum()) / total if total > 0 else 0.0


@dataclass(frozen=True)
class EvalReport:
    taus: tuple[float, ...]
    recall: tuple[float, ...]
    precision: tuple[float, ...]
    n_gt: int
    n_pred: int
    total_gt_length: float
    total_pred_length: float
    inlier_pct: tuple[float, ...] = ()
    avg_image_supports: float = 0.0
    avg_line_supports: float = 0.0

    def format(self) -> str:
        lines = [f"segments: gt={self.n_gt} pred={self.n_pred}"]
        lines.append(
            f"length: gt={self.total_gt_length:.3f} pred={self.total_pred_length:.3f}"
        )
        inliers = self.inlier_pct or (float("nan"),) * len(self.taus)
        for tau, r, p, q in zip(self.taus, self.recall, self.precision, inliers):
            row = f"tau={tau:g}: recall={r:.4f} precision={p:.4f}"
            if self.inlier_pct:
                row += f" inliers={q:.1f}%"
            lines.append(row)
        if self.avg_line_supports:
            lines.append(
                f"supports: images={self.avg_image_supports:.2f} "
                f"lines={self.avg_line_supports:.2f}"
            )
        return "\n".join(lines)


def evaluate_segments(
    gt: list[Segment3D],
    pred: list[Segment3D],
    taus=(0.01, 0.025, 0.05),
    aggregate: str = "mean",
    supports: list[list[tuple[int, int]]] | None = None,
) -> EvalReport:
    """Recall/precision/inlier percentage, sampled at min(tau)/4 spacing.

    ``aggregate`` is how a track's sample distances decide its inlier test:
    ``"mean"`` (default) or ``"max"``.  ``supports``, when given, is the
    per-track list of (image, detection) observations and feeds the
    average-supports summary.
    """
    if aggregate not in ("mean", "max"):
        raise ValueError(f"aggregate must be 'mean' or 'max', got {aggregate!r}")
    spacing = min(taus) / 4.0
    gt_pts, gt_w = sample_segments(gt, spacing)
    pred_pts, pred_w, pred_ends = _samples(pred, spacing)
    gt_d = min_distance_to_segments(gt_pts, pred)
    pred_d = min_distance_to_segments(pred_pts, gt)
    reduce = np.mean if aggregate == "mean" else np.max
    track_d = np.array([reduce(d) for d in np.split(pred_d, pred_ends[:-1])] if pred else [])
    recall = tuple(_length_share(gt_w, gt_d <= t) for t in taus)
    precision = tuple(_length_share(pred_w, pred_d <= t) for t in taus)
    inlier_pct = tuple(
        100.0 * float((track_d <= t).mean()) if len(track_d) else 0.0 for t in taus
    )
    avg_images = avg_lines = 0.0
    if supports:
        avg_images = float(np.mean([len({img for img, _ in s}) for s in supports]))
        avg_lines = float(np.mean([len(s) for s in supports]))
    return EvalReport(
        taus=tuple(taus),
        recall=recall,
        precision=precision,
        n_gt=len(gt),
        n_pred=len(pred),
        total_gt_length=float(sum(s.length for s in gt)),
        total_pred_length=float(sum(s.length for s in pred)),
        inlier_pct=inlier_pct,
        avg_image_supports=avg_images,
        avg_line_supports=avg_lines,
    )

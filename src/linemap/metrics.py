"""Length-based evaluation of reconstructed 3D segments against ground truth.

Segments are densely sampled (spacing of a quarter of the smallest
threshold) and each sample queries its exact distance to the nearest
segment on the other side.  Recall is the portion of ground-truth length
within threshold of any prediction; precision (inlier ratio) is the
portion of predicted length within threshold of any ground-truth segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Segment3D, point_segment_distances, sample_segment

__all__ = [
    "sample_segments",
    "min_distance_to_segments",
    "length_recall",
    "length_precision",
    "track_distances",
    "inlier_percentage",
    "EvalReport",
    "evaluate_segments",
]


def sample_segments(segments: list[Segment3D], spacing: float):
    """Evenly spaced points along each segment plus per-sample length weights."""
    pts = []
    weights = []
    for seg in segments:
        samples = sample_segment(seg, spacing)
        pts.append(samples)
        weights.append(np.full(len(samples), seg.length / len(samples)))
    if not pts:
        return np.zeros((0, 3)), np.zeros(0)
    return np.concatenate(pts), np.concatenate(weights)


def min_distance_to_segments(points: np.ndarray, segments: list[Segment3D]) -> np.ndarray:
    """Exact distance from each point to the nearest of the segments."""
    if len(segments) == 0:
        return np.full(len(points), np.inf)
    starts = np.stack([s.start for s in segments])
    ends = np.stack([s.end for s in segments])
    return point_segment_distances(points, starts, ends).min(axis=1)


def _covered_fraction(source, target, tau, spacing):
    pts, w = sample_segments(source, spacing)
    if len(pts) == 0:
        return 0.0, 0.0
    d = min_distance_to_segments(pts, target)
    total = float(w.sum())
    covered = float(w[d <= tau].sum())
    return covered, total


def length_recall(
    gt: list[Segment3D], pred: list[Segment3D], tau: float, spacing: float | None = None
) -> float:
    """Portion of ground-truth length lying within ``tau`` of a prediction."""
    spacing = tau / 4.0 if spacing is None else spacing
    covered, total = _covered_fraction(gt, pred, tau, spacing)
    return covered / total if total > 0 else 0.0


def length_precision(
    pred: list[Segment3D], gt: list[Segment3D], tau: float, spacing: float | None = None
) -> float:
    """Portion of predicted length lying within ``tau`` of the ground truth."""
    spacing = tau / 4.0 if spacing is None else spacing
    covered, total = _covered_fraction(pred, gt, tau, spacing)
    return covered / total if total > 0 else 0.0


def track_distances(
    pred: list[Segment3D], gt: list[Segment3D], spacing: float, aggregate: str = "mean"
) -> np.ndarray:
    """Per-track aggregated sample distance to the ground truth.

    ``aggregate`` selects how a track's samples are summarized: ``"mean"``
    (default) or ``"max"``.
    """
    if aggregate not in ("mean", "max"):
        raise ValueError(f"aggregate must be 'mean' or 'max', got {aggregate!r}")
    out = np.empty(len(pred))
    for i, seg in enumerate(pred):
        pts, _ = sample_segments([seg], spacing)
        d = min_distance_to_segments(pts, gt)
        out[i] = d.mean() if aggregate == "mean" else d.max()
    return out


def inlier_percentage(
    pred: list[Segment3D],
    gt: list[Segment3D],
    tau: float,
    spacing: float | None = None,
    aggregate: str = "mean",
) -> float:
    """Percent of tracks whose aggregated sample distance is at most ``tau``."""
    if not pred:
        return 0.0
    spacing = tau / 4.0 if spacing is None else spacing
    d = track_distances(pred, gt, spacing, aggregate)
    return 100.0 * float((d <= tau).mean())


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

    ``supports``, when given, is the per-track list of (image, detection)
    observations and feeds the average-supports summary.
    """
    spacing = min(taus) / 4.0
    recall = tuple(length_recall(gt, pred, t, spacing) for t in taus)
    precision = tuple(length_precision(pred, gt, t, spacing) for t in taus)
    track_d = track_distances(pred, gt, spacing, aggregate) if pred else np.zeros(0)
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

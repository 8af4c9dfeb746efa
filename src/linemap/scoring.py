"""Pairwise consistency scoring between 3D line segment hypotheses.

Scores combine several scale-invariant distances.  Each raw distance ``r``
is mapped through ``exp(-(r/tau)^2)`` and gated to zero below
``score_gate`` (0.5); a pair score is the minimum over its components, so
it is either 0 (some check failed clearly) or lies in [0.5, 1].  This keeps
a sum of pair scores interpretable as a support count.  The ``tau_*``
thresholds and the gate are read from :class:`~linemap.config.PipelineConfig`.

Two phases use different component sets.  During proposal selection both
hypotheses explain the same 2D detection, so endpoint-wise comparisons are
meaningful (perspective distance); 2D distances are measured in the views
whose matches generated the hypotheses.  During track building hypotheses
belong to different detections and overlap/inner-segment distances replace
the endpoint comparison, with 2D distances measured in the owning views.
"""

from __future__ import annotations

import math

import numpy as np

from .config import PipelineConfig
from .geometry import (
    CameraView,
    PluckerLine,
    Segment2D,
    Segment3D,
    acute_angle,
    plucker_from_segment,
    project_point_to_line3d,
    project_segment,
)


# ---------------------------------------------------------------------------
# raw distances
# ---------------------------------------------------------------------------


def angular_distance_3d(a: Segment3D, b: Segment3D) -> float:
    """Acute angle between segment directions, in degrees."""
    return math.degrees(acute_angle(a.direction, b.direction))


def angular_distance_2d(a: Segment2D, b: Segment2D) -> float:
    """Acute angle between 2D segment directions, in degrees."""
    c = abs(float(a.direction @ b.direction))
    return math.degrees(math.acos(min(1.0, c)))


def _endpoints_to_unit_line(seg: Segment2D, line) -> float:
    # `line` comes from infinite_line(), whose normal is unit length
    d1 = abs(line[0] * seg.start[0] + line[1] * seg.start[1] + line[2])
    d2 = abs(line[0] * seg.end[0] + line[1] * seg.end[1] + line[2])
    return float(max(d1, d2))


def perpendicular_distance_2d(a: Segment2D, b: Segment2D, symmetric: bool = True) -> float:
    """Max orthogonal distance of ``a``'s endpoints to the line of ``b``.

    With ``symmetric=True`` (the default) both directions are averaged.
    """
    d_ab = _endpoints_to_unit_line(a, b.infinite_line())
    if not symmetric:
        return d_ab
    d_ba = _endpoints_to_unit_line(b, a.infinite_line())
    return 0.5 * (d_ab + d_ba)


def _dist3(p, q) -> float:
    d = p - q
    return math.sqrt(float(d @ d))


def perspective_distance(a: Segment3D, b: Segment3D, view: CameraView) -> float:
    """Endpoint distance scaled by the endpoint ray depths of ``a``.

    Assumes the two segments lie on the same endpoint rays of ``view`` (the
    proposal-selection setting), so corresponding endpoints are comparable.
    """
    c = view.camera_center()
    return max(
        _dist3(a.start, b.start) / _dist3(a.start, c),
        _dist3(a.end, b.end) / _dist3(a.end, c),
    )


def overlap_ratio(a: Segment2D | Segment3D, b: Segment2D | Segment3D) -> float:
    """Fraction of ``b`` covered by the orthogonal projection of ``a`` (2D or 3D)."""
    d = b.direction
    ta, tb = float((a.start - b.start) @ d), float((a.end - b.start) @ d)
    inter = min(max(ta, tb), b.length) - max(min(ta, tb), 0.0)
    return max(0.0, inter) / b.length


def mutual_overlap(a: Segment2D | Segment3D, b: Segment2D | Segment3D) -> float:
    return min(overlap_ratio(a, b), overlap_ratio(b, a))


def innerseg_distance(a: Segment3D, b: Segment3D) -> float:
    """Distance between the mutually clipped inner segments.

    Each segment's endpoints are orthogonally projected onto the other's
    supporting line and clipped to its extent; the result is one inner
    segment per line and the distance is the larger of the two aligned
    endpoint distances.  For collinear disjoint segments both inner segments
    collapse and the value equals the gap.
    """
    da, db = a.direction, b.direction
    b_pts = (b.start, b.end) if float(da @ db) >= 0 else (b.end, b.start)

    line_a = plucker_from_segment(a)
    line_b = plucker_from_segment(b)

    def clip_onto(points, seg: Segment3D, line: PluckerLine):
        d = seg.direction
        out = []
        for p in points:
            foot = project_point_to_line3d(p, line)
            t = float(np.clip((foot - seg.start) @ d, 0.0, seg.length))
            out.append(seg.start + t * d)
        return out

    inner_on_b = clip_onto([a.start, a.end], b, line_b)
    inner_on_a = clip_onto(b_pts, a, line_a)
    return max(
        float(np.linalg.norm(inner_on_a[0] - inner_on_b[0])),
        float(np.linalg.norm(inner_on_a[1] - inner_on_b[1])),
    )


def innerseg_scale(a: Segment3D, view_a: CameraView, b: Segment3D, view_b: CameraView) -> float:
    """Uncertainty scale for the inner-segment distance.

    The minimum over both segments of midpoint depth divided by focal
    length; one pixel of image noise displaces a 3D point by roughly this
    amount, which makes the scaled distance unit-free.
    """
    return min(view_a.depth(a.midpoint) / view_a.focal, view_b.depth(b.midpoint) / view_b.focal)


# ---------------------------------------------------------------------------
# normalization and pair scores
# ---------------------------------------------------------------------------


def normalize_distance(r: float, tau: float, gate: float = 0.5) -> float:
    """Map a raw distance to a gated similarity in {0} or [gate, 1]."""
    s = math.exp(-((r / tau) ** 2))
    return s if s >= gate else 0.0


def _binary_overlap(ratio: float, tau: float) -> float:
    return 1.0 if ratio >= tau else 0.0


def _project_pair(a: Segment3D, b: Segment3D, view: CameraView):
    try:
        return project_segment(a, view), project_segment(b, view)
    except ValueError:
        return None


def selection_pair_score(
    a: Segment3D,
    b: Segment3D,
    ref_view: CameraView,
    view_a: CameraView,
    view_b: CameraView,
    config: PipelineConfig = PipelineConfig(),
) -> float:
    """Consistency of two proposals for the same reference detection.

    ``view_a`` and ``view_b`` are the matched views the proposals were
    triangulated from; both proposals lie on the endpoint rays of
    ``ref_view``.  Returns 0 when a projection is invalid (a hypothesis
    behind a scoring camera cannot support the other).
    """
    g = config.score_gate
    comps = [
        normalize_distance(angular_distance_3d(a, b), config.tau_angle_3d, g),
        normalize_distance(
            0.5
            * (
                perspective_distance(a, b, ref_view)
                + perspective_distance(b, a, ref_view)
            ),
            config.tau_perspective,
            g,
        ),
    ]
    ang2d = []
    perp2d = []
    for view in (view_a, view_b):
        pair = _project_pair(a, b, view)
        if pair is None:
            return 0.0
        pa, pb = pair
        ang2d.append(angular_distance_2d(pa, pb))
        perp2d.append(perpendicular_distance_2d(pa, pb))
    comps.append(normalize_distance(0.5 * (ang2d[0] + ang2d[1]), config.tau_angle_2d, g))
    comps.append(normalize_distance(0.5 * (perp2d[0] + perp2d[1]), config.tau_perp_2d, g))
    return min(comps)


def track_pair_score(
    a: Segment3D,
    view_a: CameraView,
    b: Segment3D,
    view_b: CameraView,
    config: PipelineConfig = PipelineConfig(),
) -> float:
    """Consistency of the best hypotheses of two different detections.

    ``view_a``/``view_b`` are the views owning the detections.  Endpoint
    correspondence across detections is meaningless here, so overlap and
    inner-segment distances substitute for the perspective distance.
    """
    g = config.score_gate
    scale = innerseg_scale(a, view_a, b, view_b)
    if scale <= 0:
        return 0.0
    comps = [
        normalize_distance(angular_distance_3d(a, b), config.tau_angle_3d, g),
        _binary_overlap(mutual_overlap(a, b), config.tau_overlap),
        normalize_distance(innerseg_distance(a, b) / scale, config.tau_innerseg, g),
    ]
    ang2d = []
    perp2d = []
    ov2d = []
    for view in (view_a, view_b):
        pair = _project_pair(a, b, view)
        if pair is None:
            return 0.0
        pa, pb = pair
        ang2d.append(angular_distance_2d(pa, pb))
        perp2d.append(perpendicular_distance_2d(pa, pb))
        ov2d.append(mutual_overlap(pa, pb))
    comps.append(normalize_distance(0.5 * (ang2d[0] + ang2d[1]), config.tau_angle_2d, g))
    comps.append(normalize_distance(0.5 * (perp2d[0] + perp2d[1]), config.tau_perp_2d, g))
    comps.append(_binary_overlap(min(ov2d), config.tau_overlap))
    return min(comps)

"""Pairwise consistency scoring between 3D line segment hypotheses.

Scores combine several scale-invariant distances.  Each raw distance ``r``
is mapped through ``exp(-(r/tau)^2)`` and gated to zero below
``score_gate`` (0.5); a pair score is the minimum over its components, so
it is either 0 (some check failed clearly) or lies in [0.5, 1].  This keeps
a sum of pair scores interpretable as a support count.  The ``tau_*``
thresholds and the gate are read from :class:`~linemap.config.PipelineConfig`.

Each distance has one home here and serves 2D and 3D segments alike where
it makes sense: one acute angle (:func:`angular_distance`), and one
projection of a segment's endpoints along another (``_along``), which
both the overlap ratio and the inner-segment distance read.

Two phases use different component sets.  During proposal selection both
hypotheses explain the same 2D detection, so endpoint-wise comparisons are
meaningful (perspective distance); 2D distances are measured in the views
whose matches generated the hypotheses.  During track building hypotheses
belong to different detections and overlap/inner-segment distances replace
the endpoint comparison, with 2D distances measured in the owning views.
Both phases score the pair's projections into their two views, and a pair
with a segment behind either view scores 0.  Track building projects the
pair as it scores it; proposal selection projects each proposal once per
generating view and hands the projections in.
"""

from __future__ import annotations

import math

from .config import PipelineConfig
from .geometry import CameraView, Segment2D, Segment3D, project_segment

Segment = Segment2D | Segment3D
Projected = tuple[Segment2D | None, Segment2D | None]  # a pair in one view; None behind it


# ---------------------------------------------------------------------------
# raw distances
# ---------------------------------------------------------------------------


def angular_distance(a: Segment, b: Segment) -> float:
    """Acute angle between segment directions (2D or 3D), in degrees."""
    c = abs(float(a.direction @ b.direction))
    return math.degrees(math.acos(min(1.0, c)))


def _endpoints_to_unit_line(seg: Segment2D, line) -> float:
    # `line` comes from infinite_line, whose normal is unit length
    d1 = abs(line[0] * seg.start[0] + line[1] * seg.start[1] + line[2])
    d2 = abs(line[0] * seg.end[0] + line[1] * seg.end[1] + line[2])
    return float(max(d1, d2))


def perpendicular_distance_2d(a: Segment2D, b: Segment2D) -> float:
    """Orthogonal endpoint distance, averaged over both directions.

    Each direction takes the larger distance of one segment's endpoints to
    the other's supporting line.
    """
    return 0.5 * (
        _endpoints_to_unit_line(a, b.infinite_line)
        + _endpoints_to_unit_line(b, a.infinite_line)
    )


def _dist3(p, q) -> float:
    d = p - q
    return math.sqrt(float(d @ d))


def perspective_distance(a: Segment3D, b: Segment3D, view: CameraView) -> float:
    """Endpoint distance scaled by the endpoint ray depths of ``a``.

    Assumes the two segments lie on the same endpoint rays of ``view`` (the
    proposal-selection setting), so corresponding endpoints are comparable.
    """
    c = view.camera_center
    return max(
        _dist3(a.start, b.start) / _dist3(a.start, c),
        _dist3(a.end, b.end) / _dist3(a.end, c),
    )


def _along(a: Segment, b: Segment) -> tuple[float, float]:
    """Where ``a``'s start and end fall along ``b``, as distances from ``b.start``."""
    d = b.direction
    return float((a.start - b.start) @ d), float((a.end - b.start) @ d)


def overlap_ratio(a: Segment, b: Segment) -> float:
    """Fraction of ``b`` covered by the orthogonal projection of ``a`` (2D or 3D)."""
    ta, tb = _along(a, b)
    inter = min(max(ta, tb), b.length) - max(min(ta, tb), 0.0)
    return max(0.0, inter) / b.length


def mutual_overlap(a: Segment, b: Segment) -> float:
    return min(overlap_ratio(a, b), overlap_ratio(b, a))


def _clipped_feet(a: Segment3D, b: Segment3D) -> list:
    """Feet of ``a``'s endpoints on ``b``'s line, clipped to ``b``'s extent."""
    return [b.start + min(max(t, 0.0), b.length) * b.direction for t in _along(a, b)]


def innerseg_distance(a: Segment3D, b: Segment3D) -> float:
    """Distance between the mutually clipped inner segments.

    Each segment's endpoints are orthogonally projected onto the other's
    supporting line and clipped to its extent; the result is one inner
    segment per line and the distance is the larger of the two aligned
    endpoint distances.  For collinear disjoint segments both inner segments
    collapse and the value equals the gap.
    """
    on_b = _clipped_feet(a, b)
    on_a = _clipped_feet(b, a)
    if float(a.direction @ b.direction) < 0:
        on_a.reverse()
    return max(_dist3(on_a[0], on_b[0]), _dist3(on_a[1], on_b[1]))


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


def _projections(a: Segment3D, b: Segment3D, view_a: CameraView, view_b: CameraView):
    """``(a, b)`` projected into ``view_a`` and into ``view_b``.

    None when either segment is behind either view: a hypothesis behind a
    scoring camera cannot support the other.
    """
    pairs = [(project_segment(a, v), project_segment(b, v)) for v in (view_a, view_b)]
    if any(p is None for pair in pairs for p in pair):
        return None
    return pairs


def _image_components(pairs, config: PipelineConfig) -> list[float]:
    """2D angle and perpendicular components, each averaged over both views."""
    (pa, pb), (qa, qb) = pairs
    g = config.score_gate
    return [
        normalize_distance(
            0.5 * (angular_distance(pa, pb) + angular_distance(qa, qb)), config.tau_angle_2d, g
        ),
        normalize_distance(
            0.5 * (perpendicular_distance_2d(pa, pb) + perpendicular_distance_2d(qa, qb)),
            config.tau_perp_2d,
            g,
        ),
    ]


def selection_pair_score(
    a: Segment3D,
    b: Segment3D,
    ref_view: CameraView,
    pairs: tuple[Projected, Projected],
    config: PipelineConfig = PipelineConfig(),
) -> float:
    """Consistency of two proposals for the same reference detection.

    ``pairs`` is ``((pa, pb), (qa, qb))``: ``a`` and ``b`` projected into
    the two matched views the proposals were triangulated from, with None
    for a segment behind a view.  Both proposals lie on the endpoint rays
    of ``ref_view``.  Returns 0 when a projection is None.
    """
    (pa, pb), (qa, qb) = pairs
    if pa is None or pb is None or qa is None or qb is None:
        return 0.0
    g = config.score_gate
    perspective = 0.5 * (
        perspective_distance(a, b, ref_view) + perspective_distance(b, a, ref_view)
    )
    return min(
        normalize_distance(angular_distance(a, b), config.tau_angle_3d, g),
        normalize_distance(perspective, config.tau_perspective, g),
        *_image_components(pairs, config),
    )


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
    scale = innerseg_scale(a, view_a, b, view_b)
    if scale <= 0:
        return 0.0
    pairs = _projections(a, b, view_a, view_b)
    if pairs is None:
        return 0.0
    g = config.score_gate
    return min(
        normalize_distance(angular_distance(a, b), config.tau_angle_3d, g),
        _binary_overlap(mutual_overlap(a, b), config.tau_overlap),
        normalize_distance(innerseg_distance(a, b) / scale, config.tau_innerseg, g),
        *_image_components(pairs, config),
        _binary_overlap(min(mutual_overlap(pa, pb) for pa, pb in pairs), config.tau_overlap),
    )

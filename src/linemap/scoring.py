"""Pairwise consistency scoring between 3D line segment hypotheses.

Scores combine several scale-invariant distances.  Each raw distance ``r``
is mapped through ``exp(-(r/tau)^2)`` and gated to zero below
:data:`SCORE_GATE` (0.5); a pair score is the minimum over its components,
so it is either 0 (some check failed clearly) or lies in [0.5, 1].  This
keeps a sum of pair scores interpretable as a support count.  The ``tau_*``
thresholds are read from :class:`~linemap.config.PipelineConfig`; the gate
is a constant of this module.

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
Both scores have one shape.  The 3D components come first; when their
minimum is 0 the pair scores 0 whatever the image components say, so the
pair is never projected.  Otherwise both segments are projected into both
views, and the score is the minimum of the 3D and the image components.  A
segment behind either view, or one that projects to less than
:data:`~linemap.geometry.EPS` px (it lies along a viewing ray), scores 0.

A pair score is a few dozen flops, so it runs on Python floats, not on
numpy arrays.  Every distance reads the float records that
:mod:`~linemap.geometry` keeps for the pinhole model:
:attr:`Segment3D.floats <linemap.geometry.Segment3D.floats>` (start, end,
direction and length, cached and bit-equal to the numpy attributes),
:attr:`Segment2D.floats <linemap.geometry.Segment2D.floats>` and a
projection by :func:`~linemap.geometry.project_floats`, both a
:class:`~linemap.geometry.PlanarFloats` record in homogeneous form, and
:meth:`CameraView.depth <linemap.geometry.CameraView.depth>` for the
inner-segment scale.  With the homogeneous form one dot product,
:func:`~linemap.geometry.dot3`, serves 2D and 3D records, a point's
distance to a line included, and it sums its terms in a fixed order with
no BLAS call.  This module adds no projection or depth of its own.

A pair score reads two :class:`ScoredSegment` records, and the caller
builds one per segment for each scoring pass: :func:`proposal` in
selection, :func:`hypothesis` in track building and remerge.  A record
holds what depends on the segment and one view alone: its floats, its own
view (the generating view, the detection's view or the track's
representative view), its projection there and the scale its 3D
distances are divided by.  A pair score makes only the two cross
projections, and the records go when the pass ends.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import PipelineConfig
from .geometry import (
    CameraView,
    PlanarFloats,
    Segment2D,
    Segment3D,
    SegmentFloats,
    dot3,
    project_floats,
)

Segment = Segment2D | Segment3D

SCORE_GATE = 0.5  # lowest nonzero similarity of one component


# ---------------------------------------------------------------------------
# raw distances
# ---------------------------------------------------------------------------


def _dist3(p, q) -> float:
    d = (p[0] - q[0], p[1] - q[1], p[2] - q[2])
    return math.sqrt(dot3(d, d))


def _angle(a, b) -> float:
    return math.degrees(math.acos(min(1.0, abs(dot3(a.direction, b.direction)))))


def angular_distance(a: Segment, b: Segment) -> float:
    """Acute angle between segment directions (2D or 3D), in degrees."""
    return _angle(a.floats, b.floats)


def _perpendicular(a: PlanarFloats, b: PlanarFloats) -> float:
    la, lb = a.line, b.line
    return 0.5 * (
        max(abs(dot3(lb, a.start)), abs(dot3(lb, a.end)))
        + max(abs(dot3(la, b.start)), abs(dot3(la, b.end)))
    )


def perpendicular_distance_2d(a: Segment2D, b: Segment2D) -> float:
    """Orthogonal endpoint distance, averaged over both directions.

    Each direction takes the larger distance of one segment's endpoints to
    the other's supporting line.
    """
    return _perpendicular(a.floats, b.floats)


def perspective_distance(a: ScoredSegment, b: ScoredSegment) -> float:
    """Endpoint distance scaled by the endpoint ray lengths, averaged over both proposals.

    Assumes the two proposals lie on the same endpoint rays of the reference
    view (the proposal-selection setting), so corresponding endpoints are
    comparable.  Each proposal divides the start and end distances by its
    own endpoints' distances to the reference camera centre (its
    :func:`proposal` scale) and keeps the larger ratio; the result is the
    mean of the two, symmetric in ``a`` and ``b`` bit for bit.
    """
    fa, fb = a.floats, b.floats
    ds, de = _dist3(fa.start, fb.start), _dist3(fa.end, fb.end)
    (sa, ea), (sb, eb) = a.scale, b.scale
    return 0.5 * (max(ds / sa, de / ea) + max(ds / sb, de / eb))


def _along(a, b) -> tuple[float, float]:
    """Where ``a``'s start and end fall along ``b``, as distances from ``b.start``."""
    (o0, o1, o2), d = b.start, b.direction
    (s0, s1, s2), (e0, e1, e2) = a.start, a.end
    return dot3((s0 - o0, s1 - o1, s2 - o2), d), dot3((e0 - o0, e1 - o1, e2 - o2), d)


def _overlap(a, b) -> float:
    ta, tb = _along(a, b)
    inter = min(max(ta, tb), b.length) - max(min(ta, tb), 0.0)
    return max(0.0, inter) / b.length


def _mutual_overlap(a, b) -> float:
    return min(_overlap(a, b), _overlap(b, a))


def overlap_ratio(a: Segment, b: Segment) -> float:
    """Fraction of ``b`` covered by the orthogonal projection of ``a`` (2D or 3D)."""
    return _overlap(a.floats, b.floats)


def mutual_overlap(a: Segment, b: Segment) -> float:
    return _mutual_overlap(a.floats, b.floats)


def _clipped_feet(a: SegmentFloats, b: SegmentFloats) -> list:
    """Feet of ``a``'s endpoints on ``b``'s line, clipped to ``b``'s extent."""
    (o0, o1, o2), (d0, d1, d2) = b.start, b.direction
    feet = []
    for t in _along(a, b):
        s = min(max(t, 0.0), b.length)
        feet.append((o0 + s * d0, o1 + s * d1, o2 + s * d2))
    return feet


def innerseg_distance(a: Segment3D | ScoredSegment, b: Segment3D | ScoredSegment) -> float:
    """Distance between the mutually clipped inner segments.

    Each segment's endpoints are orthogonally projected onto the other's
    supporting line and clipped to its extent; the result is one inner
    segment per line and the distance is the larger of the two aligned
    endpoint distances.  For collinear disjoint segments both inner segments
    collapse and the value equals the gap.
    """
    fa, fb = a.floats, b.floats
    on_b = _clipped_feet(fa, fb)
    on_a = _clipped_feet(fb, fa)
    if dot3(fa.direction, fb.direction) < 0:
        on_a.reverse()
    return max(_dist3(on_a[0], on_b[0]), _dist3(on_a[1], on_b[1]))


def _midpoint(seg: SegmentFloats) -> tuple[float, float, float]:
    (s0, s1, s2), (e0, e1, e2) = seg.start, seg.end
    return 0.5 * (s0 + e0), 0.5 * (s1 + e1), 0.5 * (s2 + e2)


# ---------------------------------------------------------------------------
# normalization, per-pass records and pair scores
# ---------------------------------------------------------------------------


def normalize_distance(r: float, tau: float) -> float:
    """Map a raw distance to a gated similarity in {0} or [SCORE_GATE, 1]."""
    s = math.exp(-((r / tau) ** 2))
    return s if s >= SCORE_GATE else 0.0


def _binary_overlap(ratio: float, tau: float) -> float:
    return 1.0 if ratio >= tau else 0.0


class ScoredSegment(NamedTuple):
    """A segment as one scoring pass reads it.

    ``own`` is the segment projected into ``view`` by
    :func:`~linemap.geometry.project_floats`, None when it is behind that
    view or projects to a point there.  ``scale`` is what its 3D distances
    are divided by: the endpoint ray lengths of a :func:`proposal`, the
    single length of a :func:`hypothesis`.
    """

    floats: SegmentFloats
    view: CameraView
    own: PlanarFloats | None
    scale: tuple[float, float] | float


def proposal(seg: Segment3D, view: CameraView, ref_view: CameraView) -> ScoredSegment:
    """``seg`` generated in ``view`` for a detection of ``ref_view``.

    Its scale is its two endpoint distances to ``ref_view``'s camera centre.
    """
    f, c = seg.floats, ref_view.floats.center
    lengths = _dist3(f.start, c), _dist3(f.end, c)
    return ScoredSegment(f, view, project_floats(seg, view), lengths)


def hypothesis(seg: Segment3D, view: CameraView) -> ScoredSegment:
    """``seg`` owned by ``view``: a detection's best hypothesis, or a track's refit.

    Its scale is its midpoint depth divided by the focal length; one pixel
    of image noise displaces a 3D point by roughly this amount, which makes
    the inner-segment distance unit-free.
    """
    f = seg.floats
    scale = view.depth(_midpoint(f)) / view.focal
    return ScoredSegment(f, view, project_floats(seg, view), scale)


def _projections(a: ScoredSegment, b: ScoredSegment):
    """``(a, b)`` projected into ``a``'s view and into ``b``'s view.

    The own projections come with the records; the two cross projections
    are made here.  None when either segment is behind either view or
    projects to a point in it: such a hypothesis cannot support the other.
    """
    pb, qa = project_floats(b, a.view), project_floats(a, b.view)
    if a.own is None or pb is None or qa is None or b.own is None:
        return None
    return (a.own, pb), (qa, b.own)


def _image_components(pairs, config: PipelineConfig) -> list[float]:
    """2D angle and perpendicular components, each averaged over both views."""
    (pa, pb), (qa, qb) = pairs
    return [
        normalize_distance(0.5 * (_angle(pa, pb) + _angle(qa, qb)), config.tau_angle_2d),
        normalize_distance(
            0.5 * (_perpendicular(pa, pb) + _perpendicular(qa, qb)), config.tau_perp_2d
        ),
    ]


def selection_pair_score(
    a: ScoredSegment, b: ScoredSegment, config: PipelineConfig = PipelineConfig()
) -> float:
    """Consistency of two :func:`proposal` records for the same reference detection.

    Both proposals lie on the endpoint rays of the reference view; the 2D
    distances are measured in the matched views they were triangulated
    from.
    """
    score = min(
        normalize_distance(_angle(a.floats, b.floats), config.tau_angle_3d),
        normalize_distance(perspective_distance(a, b), config.tau_perspective),
    )
    pairs = _projections(a, b) if score > 0.0 else None
    if pairs is None:
        return 0.0
    return min(score, *_image_components(pairs, config))


def track_pair_score(
    a: ScoredSegment, b: ScoredSegment, config: PipelineConfig = PipelineConfig()
) -> float:
    """Consistency of two :func:`hypothesis` records of different detections.

    The 2D distances are measured in the views owning the detections.
    Endpoint correspondence across detections is meaningless here, so
    overlap and inner-segment distances substitute for the perspective
    distance; the inner-segment distance is divided by the smaller scale.
    """
    scale = min(a.scale, b.scale)
    if scale <= 0:
        return 0.0
    fa, fb = a.floats, b.floats
    score = min(
        normalize_distance(_angle(fa, fb), config.tau_angle_3d),
        _binary_overlap(_mutual_overlap(fa, fb), config.tau_overlap),
        normalize_distance(innerseg_distance(a, b) / scale, config.tau_innerseg),
    )
    pairs = _projections(a, b) if score > 0.0 else None
    if pairs is None:
        return 0.0
    (pa, pb), (qa, qb) = pairs
    return min(
        score,
        *_image_components(pairs, config),
        _binary_overlap(min(_mutual_overlap(pa, pb), _mutual_overlap(qa, qb)), config.tau_overlap),
    )

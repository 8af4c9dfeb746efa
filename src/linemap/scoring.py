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

A track pair score is a few dozen flops, so it runs on Python floats, not
on numpy arrays.  Every distance reads the float records that
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
no BLAS call.  A track pair score reads two :class:`ScoredSegment`
records, which track building and remerge build once per segment and
pass (:func:`hypothesis`): the segment's floats, its own view (the
detection's view or the track's representative view), its projection
there and its inner-segment scale.  It makes only the two cross
projections.

Selection scores the proposals of all detections of one reference image
as one block (:func:`selection_pair_score`): :func:`proposal_block`
stacks the proposals' endpoints, directions, endpoint ray lengths,
generating views and projections there into arrays, and each pair is one
row of elementwise array arithmetic.  The block gives every score that
one pair at a time on Python floats gives, bit for bit.  numpy's
elementwise ``+ - * /``, ``sqrt`` and ``abs`` round as Python floats do,
and each 3-vector dot product is written out as ``(a0*b0 + a1*b1) +
a2*b2``, never handed to ``@`` or ``einsum``.  ``np.exp``, ``np.arccos``,
``np.hypot`` and ``x * x`` for ``x ** 2`` can differ from ``math.exp``,
``math.acos``, ``math.hypot`` and Python's ``**`` in the last bit, so
those run through :mod:`math` element by element.  Python's ``min(x, y)``
keeps ``x`` unless ``y < x``, NaN included, so it is written as
``np.where``, not ``np.minimum``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import PipelineConfig
from .geometry import (
    EPS,
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
# normalization, per-pass records and track pair scores
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
    view or projects to a point there.  ``scale`` is what its
    inner-segment distance is divided by.
    """

    floats: SegmentFloats
    view: CameraView
    own: PlanarFloats | None
    scale: float


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


# ---------------------------------------------------------------------------
# proposal selection: one block of pairs per reference image
# ---------------------------------------------------------------------------


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`~linemap.geometry.dot3` of matching rows of two ``(m, 3)`` arrays."""
    return (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]


def _min(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Python's ``min(x, y)`` row by row: ``y`` only where ``y < x``."""
    return np.where(y < x, y, x)


def _max(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Python's ``max(x, y)`` row by row: ``y`` only where ``y > x``."""
    return np.where(y > x, y, x)


def _acute_angles(dots: np.ndarray) -> np.ndarray:
    """``_angle`` from each row's dot product of unit directions, in degrees."""
    c = np.abs(dots)
    c = np.where(c < 1.0, c, 1.0)  # min(1.0, c): NaN gives 1.0
    return np.array([math.degrees(math.acos(x)) for x in c.tolist()])


def _normalized_rows(r: np.ndarray, tau: float) -> np.ndarray:
    """:func:`normalize_distance` of each row."""
    return np.array([normalize_distance(x, tau) for x in r.tolist()])


class PlanarRows(NamedTuple):
    """Segments projected into views, one row each, as
    :func:`~linemap.geometry.project_floats` gives them.

    ``ok`` is False where that function gives None (an endpoint at or
    behind the camera plane, or a projection shorter than EPS px); the
    other fields of such a row are placeholders.  ``(u, v)`` is the unit
    direction and ``(l0, u, l2)`` the supporting line.
    """

    ok: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    u: np.ndarray
    v: np.ndarray
    l0: np.ndarray
    l2: np.ndarray

    def take(self, idx) -> PlanarRows:
        return PlanarRows(*(field[idx] for field in self))


def _project_rows(start, end, kr, kt) -> PlanarRows:
    """Rows ``i`` of ``start`` and ``end`` projected by ``kr[i]`` (``K R``) and ``kt[i]``."""
    ws = _dot_rows(kr[:, 2], start) + kt[:, 2]
    we = _dot_rows(kr[:, 2], end) + kt[:, 2]
    ok = ~((ws <= EPS) | (we <= EPS))
    ws, we = np.where(ok, ws, 1.0), np.where(ok, we, 1.0)
    x1 = (_dot_rows(kr[:, 0], start) + kt[:, 0]) / ws
    y1 = (_dot_rows(kr[:, 1], start) + kt[:, 1]) / ws
    x2 = (_dot_rows(kr[:, 0], end) + kt[:, 0]) / we
    y2 = (_dot_rows(kr[:, 1], end) + kt[:, 1]) / we
    dx, dy = x2 - x1, y2 - y1
    n = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    ok &= ~(n < EPS)
    n = np.where(ok, n, 1.0)
    return PlanarRows(ok, x1, y1, x2, y2, dx / n, dy / n, (y1 - y2) / n, (x1 * y2 - x2 * y1) / n)


def _perpendicular_rows(a: PlanarRows, b: PlanarRows) -> np.ndarray:
    """``_perpendicular`` row by row: a line's ``dot3`` with ``(x, y, 1)``
    is ``(l0*x + l1*y) + l2``."""
    to_b = _max(
        np.abs((b.l0 * a.x1 + b.u * a.y1) + b.l2), np.abs((b.l0 * a.x2 + b.u * a.y2) + b.l2)
    )
    to_a = _max(
        np.abs((a.l0 * b.x1 + a.u * b.y1) + a.l2), np.abs((a.l0 * b.x2 + a.u * b.y2) + a.l2)
    )
    return 0.5 * (to_b + to_a)


def _angle_rows(a: PlanarRows, b: PlanarRows) -> np.ndarray:
    # the directions' third terms are 0.0 * 0.0, which abs() cannot tell from no term
    return _acute_angles(a.u * b.u + a.v * b.v)


class ProposalBlock(NamedTuple):
    """The triangulation proposals of one reference image, one row each.

    ``start``, ``end`` and ``direction`` are ``(n, 3)`` arrays equal to the
    segments' float records; ``rays`` holds each proposal's endpoint
    distances to the reference camera centre, ``(n, 2)``; ``kr`` and
    ``kt`` are the generating view's ``K R`` rows and ``K t``; ``own`` is
    the projection into the generating view.
    """

    start: np.ndarray
    end: np.ndarray
    direction: np.ndarray
    rays: np.ndarray
    kr: np.ndarray
    kt: np.ndarray
    own: PlanarRows


def proposal_block(
    segments: list[Segment3D], gens: list[int], views: dict[int, CameraView], ref_view: CameraView
) -> ProposalBlock:
    """The block of ``segments``, segment ``i`` generated in image ``gens[i]``,
    for detections of ``ref_view``.

    Raises:
        ValueError: if a segment is shorter than EPS.
    """
    start = np.array([s.start for s in segments]).reshape(-1, 3)
    end = np.array([s.end for s in segments]).reshape(-1, 3)
    d = end - start
    length = np.sqrt(_dot_rows(d, d))
    if (length < EPS).any():
        raise ValueError("cannot normalize near-zero vector")
    center = np.array(ref_view.floats.center)
    to_start, to_end = start - center, end - center
    rays = np.stack([np.sqrt(_dot_rows(to_start, to_start)), np.sqrt(_dot_rows(to_end, to_end))], 1)
    images = {g: i for i, g in enumerate(dict.fromkeys(gens))}
    rows = [images[g] for g in gens]
    kr = np.array([views[g].floats.kr for g in images]).reshape(-1, 3, 3)[rows]
    kt = np.array([views[g].floats.kt for g in images]).reshape(-1, 3)[rows]
    own = _project_rows(start, end, kr, kt)
    return ProposalBlock(start, end, d / length[:, None], rays, kr, kt, own)


def perspective_distance(block: ProposalBlock, first, second) -> np.ndarray:
    """Endpoint distance scaled by the endpoint ray lengths, averaged over both proposals.

    Row ``i`` compares proposals ``first[i]`` and ``second[i]`` of
    ``block``.  The proposals lie on the same endpoint rays of the
    reference view (the proposal-selection setting), so corresponding
    endpoints are comparable.  Each proposal divides the start and end
    distances by its own endpoints' distances to the reference camera
    centre and keeps the larger ratio; the result is the mean of the two,
    symmetric in ``first`` and ``second`` bit for bit.
    """
    ds_vec = block.start[first] - block.start[second]
    de_vec = block.end[first] - block.end[second]
    ds, de = np.sqrt(_dot_rows(ds_vec, ds_vec)), np.sqrt(_dot_rows(de_vec, de_vec))
    (sa, ea), (sb, eb) = block.rays[first].T, block.rays[second].T
    return 0.5 * (_max(ds / sa, de / ea) + _max(ds / sb, de / eb))


def selection_pair_score(
    block: ProposalBlock, first, second, config: PipelineConfig = PipelineConfig()
) -> np.ndarray:
    """Consistency of the proposal pairs ``(first[i], second[i])`` of ``block``, one per row.

    Both proposals of a pair explain the same reference detection and lie
    on the endpoint rays of the reference view; the 2D distances are
    measured in the matched views they were triangulated from.  Only the
    rows whose 3D components give a nonzero score are projected into the
    other proposal's view.
    """
    a, b = np.asarray(first, dtype=np.intp), np.asarray(second, dtype=np.intp)
    score = _min(
        _normalized_rows(
            _acute_angles(_dot_rows(block.direction[a], block.direction[b])), config.tau_angle_3d
        ),
        _normalized_rows(perspective_distance(block, a, b), config.tau_perspective),
    )
    past = np.flatnonzero(score > 0.0)
    a, b = a[past], b[past]
    pb = _project_rows(block.start[b], block.end[b], block.kr[a], block.kt[a])
    qa = _project_rows(block.start[a], block.end[a], block.kr[b], block.kt[b])
    pa, qb = block.own.take(a), block.own.take(b)
    kept = np.flatnonzero(pa.ok & pb.ok & qa.ok & qb.ok)
    pa, pb, qa, qb = (rows.take(kept) for rows in (pa, pb, qa, qb))
    angle = 0.5 * (_angle_rows(pa, pb) + _angle_rows(qa, qb))
    perpendicular = 0.5 * (_perpendicular_rows(pa, pb) + _perpendicular_rows(qa, qb))
    scores = np.zeros(len(score))
    scores[past[kept]] = _min(
        _min(score[past[kept]], _normalized_rows(angle, config.tau_angle_2d)),
        _normalized_rows(perpendicular, config.tau_perp_2d),
    )
    return scores

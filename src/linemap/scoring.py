"""Pairwise consistency scoring between 3D line segment hypotheses.

Scores combine several scale-invariant distances.  Each raw distance ``r``
is mapped through ``exp(-(r/tau)^2)`` and gated to zero below
:data:`SCORE_GATE` (0.5); a pair score is the minimum over its components,
so it is either 0 (some check failed clearly) or lies in [0.5, 1].  This
keeps a sum of pair scores interpretable as a support count.  The ``tau_*``
thresholds are read from :class:`~linemap.config.PipelineConfig`; the gate
is a constant of this module.

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

Both phases score blocks of pairs.  :func:`proposal_block` stacks the
proposals of all detections of one reference image (endpoints,
directions, endpoint ray lengths, generating views and projections there)
and :func:`selection_pair_score` scores their pairs; :func:`track_block`
stacks the segments of one track-building or remerge pass (endpoints,
directions, lengths, inner-segment scales, owning views and projections
there) and :func:`track_pair_score` scores its pairs.  Each pair is one
row of elementwise array arithmetic, and only the rows past the 3D gate
are projected into the other segment's view.

A block gives every score that one pair at a time on Python floats gives,
bit for bit (``tests/support.py`` keeps that form as the reference).
numpy's elementwise ``+ - * /``, ``sqrt`` and ``abs`` round as Python
floats do, and each 3-vector dot product is written out as ``(a0*b0 +
a1*b1) + a2*b2``, never handed to ``@`` or ``einsum``.  ``np.exp``,
``np.arccos``, ``np.hypot`` and ``x * x`` for ``x ** 2`` can differ from
``math.exp``, ``math.acos``, ``math.hypot`` and Python's ``**`` in the last
bit, so those run through :mod:`math` element by element.  Python's
``min(x, y)`` keeps ``x`` unless ``y < x``, NaN included, so it is written
as ``np.where``, not ``np.minimum``.  The views enter through their float
records (:attr:`CameraView.floats <linemap.geometry.CameraView.floats>`),
so no BLAS call touches a score.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import PipelineConfig
from .geometry import EPS, CameraView, Segment3D

SCORE_GATE = 0.5  # lowest nonzero similarity of one component


def normalize_distance(r: float, tau: float) -> float:
    """Map a raw distance to a gated similarity in {0} or [SCORE_GATE, 1]."""
    s = math.exp(-((r / tau) ** 2))
    return s if s >= SCORE_GATE else 0.0


# ---------------------------------------------------------------------------
# elementwise rows
# ---------------------------------------------------------------------------


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`~linemap.geometry.dot3` of matching rows of two ``(m, 3)`` arrays."""
    return (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]


def _dist_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance between matching rows of two ``(m, 3)`` arrays."""
    d = p - q
    return np.sqrt(_dot_rows(d, d))


def _min(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Python's ``min(x, y)`` row by row: ``y`` only where ``y < x``."""
    return np.where(y < x, y, x)


def _max(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Python's ``max(x, y)`` row by row: ``y`` only where ``y > x``."""
    return np.where(y > x, y, x)


def _acute_angles(dots: np.ndarray) -> np.ndarray:
    """Acute angle from each row's dot product of unit directions, in degrees."""
    c = np.abs(dots)
    c = np.where(c < 1.0, c, 1.0)  # min(1.0, c): NaN gives 1.0
    return np.array([math.degrees(math.acos(x)) for x in c.tolist()])


def _normalized_rows(r: np.ndarray, tau: float) -> np.ndarray:
    """:func:`normalize_distance` of each row."""
    return np.array([normalize_distance(x, tau) for x in r.tolist()])


def _binary_rows(ratio: np.ndarray, tau: float) -> np.ndarray:
    """1 where an overlap ratio reaches ``tau``, else 0 (NaN included)."""
    return np.where(ratio >= tau, 1.0, 0.0)


def _overlap_rows(t_start: np.ndarray, t_end: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Fraction of a segment of ``length`` covered by another segment whose
    endpoints fall at ``t_start`` and ``t_end`` along it."""
    inter = _min(_max(t_start, t_end), length) - _max(_min(t_start, t_end), 0.0)
    return _max(0.0, inter) / length


class PlanarRows(NamedTuple):
    """Segments projected into views, one row each, bit for bit as a
    projection on Python floats through ``dot3`` gives them.

    ``ok`` is False where an endpoint is at or behind the camera plane, or
    where the projection is shorter than EPS px; the other fields of such a
    row are placeholders.  ``(u, v)`` is the unit direction, ``(l0, u, l2)``
    the supporting line and ``length`` the :func:`math.hypot` length.
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
    length: np.ndarray

    def take(self, idx) -> PlanarRows:
        return PlanarRows(*(field[idx] for field in self))


def _project_rows(start, end, kr, kt) -> PlanarRows:
    """Rows ``i`` of ``start`` and ``end`` projected by ``kr[i]`` (``K R``) and ``kt[i]``."""
    # the last K row is (0, 0, 1), so the third coordinate is the camera-frame depth
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
    line = ((y1 - y2) / n, (x1 * y2 - x2 * y1) / n)
    return PlanarRows(ok, x1, y1, x2, y2, dx / n, dy / n, *line, n)


def _perpendicular_rows(a: PlanarRows, b: PlanarRows) -> np.ndarray:
    """Orthogonal endpoint distance, averaged over both directions; each
    direction takes the larger distance of one segment's endpoints to the
    other's supporting line.  A line's ``dot3`` with ``(x, y, 1)`` is
    ``(l0*x + l1*y) + l2``."""
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


def _along_planar(a: PlanarRows, b: PlanarRows) -> tuple[np.ndarray, np.ndarray]:
    """Where ``a``'s start and end fall along ``b``, as distances from ``b``'s
    start.  The ``dot3`` of an ``(x, y, 1)`` difference with ``(u, v, 0)``
    ends in ``+ 0.0 * 0.0``; the term stays, so each value is that ``dot3``
    bit for bit, signed zeros included."""
    return (
        ((a.x1 - b.x1) * b.u + (a.y1 - b.y1) * b.v) + 0.0,
        ((a.x2 - b.x1) * b.u + (a.y2 - b.y1) * b.v) + 0.0,
    )


def _mutual_overlap_planar(a: PlanarRows, b: PlanarRows) -> np.ndarray:
    return _min(
        _overlap_rows(*_along_planar(a, b), b.length),
        _overlap_rows(*_along_planar(b, a), a.length),
    )


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def _segment_rows(segments: list[Segment3D]):
    """Starts, ends, unit directions and lengths of ``segments``, one row
    each, equal to their float records.

    Raises:
        ValueError: if a segment is shorter than EPS.
    """
    start = np.array([s.start for s in segments]).reshape(-1, 3)
    end = np.array([s.end for s in segments]).reshape(-1, 3)
    d = end - start
    length = np.sqrt(_dot_rows(d, d))
    if (length < EPS).any():
        raise ValueError("cannot normalize near-zero vector")
    return start, end, d / length[:, None], length


def _view_rows(owners: list[int], views: dict[int, CameraView]):
    """The float records of the distinct views of ``owners``, and each owner's
    index among them."""
    images = {g: i for i, g in enumerate(dict.fromkeys(owners))}
    return [views[g].floats for g in images], [images[g] for g in owners]


def _cross_rows(block, a: np.ndarray, b: np.ndarray):
    """Rows ``a`` and ``b`` of ``block``, each projected into both segments'
    views: ``(kept, (pa, pb), (qa, qb))`` with ``p*`` in ``a``'s view and
    ``q*`` in ``b``'s, for the rows ``kept`` where all four projections exist.
    """
    pb = _project_rows(block.start[b], block.end[b], block.kr[a], block.kt[a])
    qa = _project_rows(block.start[a], block.end[a], block.kr[b], block.kt[b])
    pa, qb = block.own.take(a), block.own.take(b)
    kept = np.flatnonzero(pa.ok & pb.ok & qa.ok & qb.ok)
    pa, pb, qa, qb = (rows.take(kept) for rows in (pa, pb, qa, qb))
    return kept, (pa, pb), (qa, qb)


def _image_components(p, q, config: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """2D angle and perpendicular components, each averaged over both views."""
    (pa, pb), (qa, qb) = p, q
    angle = 0.5 * (_angle_rows(pa, pb) + _angle_rows(qa, qb))
    perpendicular = 0.5 * (_perpendicular_rows(pa, pb) + _perpendicular_rows(qa, qb))
    return (
        _normalized_rows(angle, config.tau_angle_2d),
        _normalized_rows(perpendicular, config.tau_perp_2d),
    )


# ---------------------------------------------------------------------------
# proposal selection: one block of pairs per reference image
# ---------------------------------------------------------------------------


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
    start, end, direction, _ = _segment_rows(segments)
    center = np.array(ref_view.floats.center)
    to_start, to_end = start - center, end - center
    rays = np.stack([np.sqrt(_dot_rows(to_start, to_start)), np.sqrt(_dot_rows(to_end, to_end))], 1)
    floats, rows = _view_rows(gens, views)
    kr = np.array([v.kr for v in floats]).reshape(-1, 3, 3)[rows]
    kt = np.array([v.kt for v in floats]).reshape(-1, 3)[rows]
    return ProposalBlock(start, end, direction, rays, kr, kt, _project_rows(start, end, kr, kt))


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
    ds = _dist_rows(block.start[first], block.start[second])
    de = _dist_rows(block.end[first], block.end[second])
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
    kept, p, q = _cross_rows(block, a[past], b[past])
    angle, perpendicular = _image_components(p, q, config)
    rows = past[kept]
    scores = np.zeros(len(score))
    scores[rows] = _min(_min(score[rows], angle), perpendicular)
    return scores


# ---------------------------------------------------------------------------
# track building and remerge: one block of segments per pass
# ---------------------------------------------------------------------------


class TrackBlock(NamedTuple):
    """The segments of one track-building or remerge pass, one row each.

    ``start``, ``end`` and ``direction`` are ``(n, 3)`` arrays and
    ``length`` an ``(n,)`` array, equal to the segments' float records;
    ``scale`` is each segment's inner-segment scale; ``kr`` and ``kt`` are
    the owning view's ``K R`` rows and ``K t``; ``own`` is the projection
    into the owning view.
    """

    start: np.ndarray
    end: np.ndarray
    direction: np.ndarray
    length: np.ndarray
    scale: np.ndarray
    kr: np.ndarray
    kt: np.ndarray
    own: PlanarRows


def track_block(
    segments: list[Segment3D], owners: list[int], views: dict[int, CameraView]
) -> TrackBlock:
    """The block of ``segments``, segment ``i`` owned by image ``owners[i]``:
    a detection's best hypothesis in its detection's view, or a track's refit
    in the view of its first support.

    A segment's scale is its midpoint depth in its owning view
    (:meth:`CameraView.depth <linemap.geometry.CameraView.depth>`, term by
    term) divided by that view's focal length; one pixel of image noise
    displaces a 3D point by roughly this amount, which makes the
    inner-segment distance unit-free.

    Raises:
        ValueError: if a segment is shorter than EPS.
    """
    start, end, direction, length = _segment_rows(segments)
    floats, rows = _view_rows(owners, views)
    kr = np.array([v.kr for v in floats]).reshape(-1, 3, 3)[rows]
    kt = np.array([v.kt for v in floats]).reshape(-1, 3)[rows]
    depth_row = np.array([v.R[2] for v in floats]).reshape(-1, 3)[rows]
    depth_t = np.array([v.t[2] for v in floats]).reshape(-1)[rows]
    focal = np.array([v.focal for v in floats]).reshape(-1)[rows]
    scale = (_dot_rows(depth_row, 0.5 * (start + end)) + depth_t) / focal
    own = _project_rows(start, end, kr, kt)
    return TrackBlock(start, end, direction, length, scale, kr, kt, own)


def track_pair_score(
    block: TrackBlock, first, second, config: PipelineConfig = PipelineConfig()
) -> np.ndarray:
    """Consistency of the segment pairs ``(first[i], second[i])`` of ``block``, one per row.

    The segments explain different detections (or tracks), and the 2D
    distances are measured in their owning views.  Endpoint
    correspondence across detections is meaningless here, so the overlap
    ratio and the inner-segment distance substitute for the perspective
    distance.  The inner-segment distance is divided by the smaller scale
    of the pair, and a row whose smaller scale is not positive scores 0.
    Only the rows whose 3D components give a nonzero score are projected
    into the other segment's view.

    The inner-segment distance projects each segment's endpoints onto the
    other's supporting line and clips them to its extent, which gives one
    inner segment per line; it is the larger of the two aligned endpoint
    distances, and for collinear disjoint segments it equals the gap.
    """
    a, b = np.asarray(first, dtype=np.intp), np.asarray(second, dtype=np.intp)
    sa, ea, da, la = block.start[a], block.end[a], block.direction[a], block.length[a]
    sb, eb, db, lb = block.start[b], block.end[b], block.direction[b], block.length[b]
    scale = _min(block.scale[a], block.scale[b])
    low = scale <= 0.0
    dots = _dot_rows(da, db)
    # where each segment's start and end fall along the other, from its start
    a_on_b = _dot_rows(sa - sb, db), _dot_rows(ea - sb, db)
    b_on_a = _dot_rows(sb - sa, da), _dot_rows(eb - sa, da)
    overlap = _min(_overlap_rows(*a_on_b, lb), _overlap_rows(*b_on_a, la))
    # the feet clipped to the other's extent, a's reversed where the directions oppose
    on_b = [sb + _min(_max(t, 0.0), lb)[:, None] * db for t in a_on_b]
    on_a = [sa + _min(_max(t, 0.0), la)[:, None] * da for t in b_on_a]
    turn = (dots < 0.0)[:, None]
    on_a = np.where(turn, on_a[1], on_a[0]), np.where(turn, on_a[0], on_a[1])
    inner = _max(_dist_rows(on_a[0], on_b[0]), _dist_rows(on_a[1], on_b[1]))
    score = _min(
        _min(
            _normalized_rows(_acute_angles(dots), config.tau_angle_3d),
            _binary_rows(overlap, config.tau_overlap),
        ),
        _normalized_rows(np.where(low, 0.0, inner) / np.where(low, 1.0, scale), config.tau_innerseg),
    )
    past = np.flatnonzero((score > 0.0) & ~low)
    kept, p, q = _cross_rows(block, a[past], b[past])
    angle, perpendicular = _image_components(p, q, config)
    overlap = _min(_mutual_overlap_planar(*p), _mutual_overlap_planar(*q))
    rows = past[kept]
    scores = np.zeros(len(score))
    scores[rows] = _min(
        _min(_min(score[rows], angle), perpendicular), _binary_rows(overlap, config.tau_overlap)
    )
    return scores

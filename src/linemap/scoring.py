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
``np.arccos`` and ``np.hypot`` can differ from ``math.exp``, ``math.acos``
and ``math.hypot`` in the last bit, and so can ``x * x`` from Python's
``x ** 2`` (libm's ``pow``): on one x86-64 host 1,670 of 2M random doubles
differed.  So a value that counts comes from :mod:`math`, and array
arithmetic only filters: filter first, then decide exactly.  Each
component's ``y = (r / tau) ** 2`` is estimated as ``x * x``, an angle's
``acos`` by a series in ``+ - * / sqrt`` near 1 (:func:`_degree_rows`),
within a relative :data:`FILTER_BAND` of the exact value.  A gate
``exp(-y) >= SCORE_GATE`` is ``y <= GATE_Y``; only a row whose estimate lies
within the band of :data:`GATE_Y` calls ``math.exp`` to decide it
(:func:`_gate_rows`).  A row that passes every gate scores the smallest of
its components' ``math.exp(-(x ** 2))``, and only a component whose
estimate lies within the band of the row's largest ``y`` can be that
smallest one, so one ``math.exp`` (and for an angle its ``math.acos``)
runs per row, more only on near ties (:func:`_min_similarity`).  The
filter leans on libm's error bound of one ulp, never on ``exp`` being
monotone.  A distance so large that Python's ``**`` overflows scores 0
where the scalar form raises.  Python's ``min(x, y)`` keeps ``x`` unless
``y < x``, NaN included, so it is written as ``np.where``
(:func:`~linemap.geometry.min_rows`), not ``np.minimum``; the two-view
match blocks of :mod:`~linemap.triangulation` share these row helpers.  A
block stacks its views' ``K R`` and ``K t``
(:attr:`CameraView.projection <linemap.geometry.CameraView.projection>`),
and a projection's 2D record is :func:`~linemap.geometry.planar_rows`, so no
BLAS call touches a score.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .config import PipelineConfig
from .geometry import (
    EPS,
    CameraView,
    PlanarRows,
    Segment3D,
    dot_rows,
    max_rows,
    min_rows,
    planar_rows,
)

SCORE_GATE = 0.5  # lowest nonzero similarity of one component


def normalize_distance(r: float, tau: float) -> float:
    """Map a raw distance to a gated similarity in {0} or [SCORE_GATE, 1]."""
    s = math.exp(-((r / tau) ** 2))
    return s if s >= SCORE_GATE else 0.0


# ---------------------------------------------------------------------------
# elementwise rows
# ---------------------------------------------------------------------------


def _dist_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance between matching rows of two ``(m, 3)`` arrays."""
    d = p - q
    return np.sqrt(dot_rows(d, d))


def _gate_limit() -> float:
    """The largest ``y`` with ``math.exp(-y) >= SCORE_GATE``, searched from ``ln 2``."""
    y = math.log(1.0 / SCORE_GATE)
    while math.exp(-y) < SCORE_GATE:
        y = math.nextafter(y, 0.0)
    while math.exp(-math.nextafter(y, math.inf)) >= SCORE_GATE:
        y = math.nextafter(y, math.inf)
    return y


GATE_Y = _gate_limit()
# relative bound on a filter's error, far above the few ulps between x * x and
# x ** 2 and between the acos series and math.acos (1.6e-14 at most)
FILTER_BAND = 1e-9
# absolute margin on y that keeps two computed exp(-y) in order when libm
# rounds each within one ulp (1.1e-16 on [0.5, 1])
_TIE = 4e-15
# the acos series' range: angles up to 30 degrees, cosines from cos(30°)
_SERIES_DEGREES = 30.0
_SERIES_COS = math.cos(math.radians(_SERIES_DEGREES))
# asin(s) = s * sum(c_n * s ** (2 n)) with c_n = (2n)! / (4**n (n!)**2 (2n + 1))
_ASIN_SERIES = tuple(math.comb(2 * n, n) / (4**n * (2 * n + 1)) for n in range(10))


def _clipped_cosines(dots: np.ndarray) -> np.ndarray:
    """``min(1.0, abs(dot))`` of each row: NaN gives 1.0."""
    c = np.abs(dots)
    return np.where(c < 1.0, c, 1.0)


def _exact_degrees(c: list[float]) -> list[float]:
    """The acute angle of each clipped cosine in degrees, through :mod:`math`."""
    return [math.degrees(math.acos(x)) for x in c]


def _degree_rows(c: np.ndarray, limit: float) -> np.ndarray:
    """Each clipped cosine's acute angle in degrees, within a relative
    1.6e-14 of :func:`_exact_degrees`.  Near 1 the angle is ``2 asin(s)``
    with ``s = sqrt((1 - c) / 2)`` by its series; a row past the series'
    range reads inf when its angle, over 30 degrees, exceeds ``limit``
    anyway, and :func:`_exact_degrees` otherwise."""
    half = 0.5 * (1.0 - c)  # exact: c >= 0.5 wherever it is read
    poly = np.full(len(c), _ASIN_SERIES[-1])
    for coef in _ASIN_SERIES[-2::-1]:
        poly = poly * half + coef
    degrees = (2.0 * np.sqrt(half) * poly) * (180.0 / math.pi)
    far = np.flatnonzero(c < _SERIES_COS)
    if limit < _SERIES_DEGREES:
        degrees[far] = np.inf
    elif len(far):
        degrees[far] = _exact_degrees(c[far].tolist())
    return degrees


class _Gated(NamedTuple):
    """One gated component of a block, ``exp(-(x ** 2))`` with ``x = r / tau``
    on each row.

    ``y`` estimates ``x ** 2`` within :data:`FILTER_BAND`; ``exact(rows)``
    gives those rows' ``x`` as the scalar form computes it.
    """

    y: np.ndarray
    exact: Callable[[np.ndarray], list[float]]

    def take(self, rows: np.ndarray) -> _Gated:
        return _Gated(self.y[rows], lambda sub: self.exact(rows[sub]))


def _distance_term(r: np.ndarray, tau: float) -> _Gated:
    """The component of the raw distances ``r`` (:func:`normalize_distance`)."""
    x = r / tau
    return _Gated(x * x, lambda rows: x[rows].tolist())


def _angle_term(cosines: tuple[np.ndarray, ...], tau: float) -> _Gated:
    """The component of an acute angle, or of the mean of two (the image
    components average two views), from each row's clipped cosines
    (:func:`_clipped_cosines`)."""
    # a mean at or below the gate has each angle below twice the gate's angle
    limit = len(cosines) * tau * math.sqrt(GATE_Y * (1.0 + FILTER_BAND))

    def mean(a, b=None):
        return a if b is None else 0.5 * (a + b)

    def exact(rows):
        return [mean(*d) / tau for d in zip(*(_exact_degrees(c[rows].tolist()) for c in cosines))]

    x = mean(*(_degree_rows(c, limit) for c in cosines)) / tau
    return _Gated(x * x, exact)


def _gate_rows(terms: list[_Gated], ok: np.ndarray) -> np.ndarray:
    """Which rows pass every term's gate ``exp(-y) >= SCORE_GATE``, of those
    that ``ok`` (a boolean array, updated in place) lets through.

    A row whose estimate lies within :data:`FILTER_BAND` of :data:`GATE_Y`
    is decided by :func:`normalize_distance`'s own test; NaN fails.
    """
    low, high = GATE_Y * (1.0 - FILTER_BAND), GATE_Y * (1.0 + FILTER_BAND)
    for term in terms:
        unsure = np.flatnonzero(ok & (term.y > low) & (term.y <= high))
        ok &= term.y <= GATE_Y
        ok[unsure] = [math.exp(-(x**2)) >= SCORE_GATE for x in term.exact(unsure)]
    return ok


def _min_similarity(terms: list[_Gated]) -> np.ndarray:
    """The smallest ``math.exp(-(x ** 2))`` over ``terms`` on each row, every
    row past every gate.  Only the terms whose estimate lies within
    :data:`FILTER_BAND` (plus :data:`_TIE`) of the row's largest can give
    it, and only theirs are computed."""
    y = np.stack([term.y for term in terms])
    top = y.max(axis=0, initial=0.0)
    near = y >= top - (FILTER_BAND * top + _TIE)
    out = np.full(y.shape[1], np.inf)
    for term, pick in zip(terms, near):
        sel = np.flatnonzero(pick)
        values = np.array([math.exp(-(x**2)) for x in term.exact(sel)])
        out[sel] = min_rows(out[sel], values)
    return out


def _overlap_rows(t_start: np.ndarray, t_end: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Fraction of a segment of ``length`` covered by another segment whose
    endpoints fall at ``t_start`` and ``t_end`` along it."""
    inter = min_rows(max_rows(t_start, t_end), length) - max_rows(min_rows(t_start, t_end), 0.0)
    return max_rows(0.0, inter) / length


def _project_rows(start, end, kr, kt) -> PlanarRows:
    """Rows ``i`` of ``start`` and ``end`` projected by ``kr[i]`` (``K R``) and ``kt[i]``."""
    # the last K row is (0, 0, 1), so the third coordinate is the camera-frame depth
    ws = dot_rows(kr[:, 2], start) + kt[:, 2]
    we = dot_rows(kr[:, 2], end) + kt[:, 2]
    ok = ~((ws <= EPS) | (we <= EPS))
    ws, we = np.where(ok, ws, 1.0), np.where(ok, we, 1.0)
    planar = planar_rows(
        (dot_rows(kr[:, 0], start) + kt[:, 0]) / ws,
        (dot_rows(kr[:, 1], start) + kt[:, 1]) / ws,
        (dot_rows(kr[:, 0], end) + kt[:, 0]) / we,
        (dot_rows(kr[:, 1], end) + kt[:, 1]) / we,
    )
    return planar._replace(ok=planar.ok & ok)


def _perpendicular_rows(a: PlanarRows, b: PlanarRows) -> np.ndarray:
    """Orthogonal endpoint distance, averaged over both directions; each
    direction takes the larger distance of one segment's endpoints to the
    other's supporting line.  A line's ``dot3`` with ``(x, y, 1)`` is
    ``(l0*x + l1*y) + l2``."""
    to_b = max_rows(
        np.abs((b.l0 * a.x1 + b.u * a.y1) + b.l2), np.abs((b.l0 * a.x2 + b.u * a.y2) + b.l2)
    )
    to_a = max_rows(
        np.abs((a.l0 * b.x1 + a.u * b.y1) + a.l2), np.abs((a.l0 * b.x2 + a.u * b.y2) + a.l2)
    )
    return 0.5 * (to_b + to_a)


def _cosine_rows(a: PlanarRows, b: PlanarRows) -> np.ndarray:
    # the directions' third terms are 0.0 * 0.0, which abs() cannot tell from no term
    return _clipped_cosines(a.u * b.u + a.v * b.v)


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
    return min_rows(
        _overlap_rows(*_along_planar(a, b), b.length),
        _overlap_rows(*_along_planar(b, a), a.length),
    )


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def _segment_rows(start: np.ndarray, end: np.ndarray):
    """Unit directions and lengths of the segments ``start[i]``-``end[i]``,
    ``(n, 3)`` arrays, equal to :attr:`~linemap.geometry.Segment3D.direction`
    and :attr:`~linemap.geometry.Segment3D.length`.

    Raises:
        ValueError: if a segment is shorter than EPS.
    """
    d = end - start
    length = np.sqrt(dot_rows(d, d))
    if (length < EPS).any():
        raise ValueError("cannot normalize near-zero vector")
    return d / length[:, None], length


def _view_rows(owners: list[int], views: dict[int, CameraView]):
    """The distinct views of ``owners``, each owner's index among them, and
    each owner's ``K R`` rows and ``K t``, ``(n, 3, 3)`` and ``(n, 3)``."""
    images = {g: i for i, g in enumerate(dict.fromkeys(owners))}
    distinct, rows = [views[g] for g in images], [images[g] for g in owners]
    kr = np.array([v.projection[0] for v in distinct]).reshape(-1, 3, 3)[rows]
    kt = np.array([v.projection[1] for v in distinct]).reshape(-1, 3)[rows]
    return distinct, rows, kr, kt


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


def _image_components(p, q, config: PipelineConfig) -> list[_Gated]:
    """2D angle and perpendicular components, each averaged over both views."""
    (pa, pb), (qa, qb) = p, q
    perpendicular = 0.5 * (_perpendicular_rows(pa, pb) + _perpendicular_rows(qa, qb))
    return [
        _angle_term((_cosine_rows(pa, pb), _cosine_rows(qa, qb)), config.tau_angle_2d),
        _distance_term(perpendicular, config.tau_perp_2d),
    ]


# ---------------------------------------------------------------------------
# proposal selection: one block of pairs per reference image
# ---------------------------------------------------------------------------


class ProposalBlock(NamedTuple):
    """The triangulation proposals of one reference image, one row each.

    ``start``, ``end`` and ``direction`` are ``(n, 3)`` arrays, the
    segments' own attributes bit for bit; ``rays`` holds each proposal's
    endpoint distances to the reference camera centre, ``(n, 2)``; ``kr``
    and ``kt`` are the generating view's ``K R`` rows and ``K t``; ``own``
    is the projection into the generating view.
    """

    start: np.ndarray
    end: np.ndarray
    direction: np.ndarray
    rays: np.ndarray
    kr: np.ndarray
    kt: np.ndarray
    own: PlanarRows


def proposal_block(
    start: np.ndarray,
    end: np.ndarray,
    gens: list[int],
    views: dict[int, CameraView],
    ref_view: CameraView,
) -> ProposalBlock:
    """The block of the proposals ``start[i]``-``end[i]`` (``(n, 3)`` arrays),
    proposal ``i`` generated in image ``gens[i]``, for detections of
    ``ref_view``.

    Raises:
        ValueError: if a proposal is shorter than EPS.
    """
    direction, _ = _segment_rows(start, end)
    center = ref_view.camera_center
    to_start, to_end = start - center, end - center
    rays = np.stack([np.sqrt(dot_rows(to_start, to_start)), np.sqrt(dot_rows(to_end, to_end))], 1)
    _, _, kr, kt = _view_rows(gens, views)
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
    return 0.5 * (max_rows(ds / sa, de / ea) + max_rows(ds / sb, de / eb))


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
    three_d = [
        _angle_term(
            (_clipped_cosines(dot_rows(block.direction[a], block.direction[b])),),
            config.tau_angle_3d,
        ),
        _distance_term(perspective_distance(block, a, b), config.tau_perspective),
    ]
    past = np.flatnonzero(_gate_rows(three_d, np.ones(len(a), dtype=bool)))
    kept, p, q = _cross_rows(block, a[past], b[past])
    image = _image_components(p, q, config)
    passed = np.flatnonzero(_gate_rows(image, np.ones(len(kept), dtype=bool)))
    rows = past[kept[passed]]
    scores = np.zeros(len(a))
    scores[rows] = _min_similarity(
        [term.take(rows) for term in three_d] + [term.take(passed) for term in image]
    )
    return scores


# ---------------------------------------------------------------------------
# track building and remerge: one block of segments per pass
# ---------------------------------------------------------------------------


class TrackBlock(NamedTuple):
    """The segments of one track-building or remerge pass, one row each.

    ``start``, ``end`` and ``direction`` are ``(n, 3)`` arrays and
    ``length`` an ``(n,)`` array, the segments' own attributes bit for bit;
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
    start = np.array([s.start for s in segments]).reshape(-1, 3)
    end = np.array([s.end for s in segments]).reshape(-1, 3)
    direction, length = _segment_rows(start, end)
    distinct, rows, kr, kt = _view_rows(owners, views)
    depth_row = np.array([v.R[2] for v in distinct]).reshape(-1, 3)[rows]
    depth_t = np.array([v.t[2] for v in distinct]).reshape(-1)[rows]
    focal = np.array([v.focal for v in distinct]).reshape(-1)[rows]
    scale = (dot_rows(depth_row, 0.5 * (start + end)) + depth_t) / focal
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
    scale = min_rows(block.scale[a], block.scale[b])
    low = scale <= 0.0
    dots = dot_rows(da, db)
    # where each segment's start and end fall along the other, from its start
    a_on_b = dot_rows(sa - sb, db), dot_rows(ea - sb, db)
    b_on_a = dot_rows(sb - sa, da), dot_rows(eb - sa, da)
    overlap = min_rows(_overlap_rows(*a_on_b, lb), _overlap_rows(*b_on_a, la))
    # the feet clipped to the other's extent, a's reversed where the directions oppose
    on_b = [sb + min_rows(max_rows(t, 0.0), lb)[:, None] * db for t in a_on_b]
    on_a = [sa + min_rows(max_rows(t, 0.0), la)[:, None] * da for t in b_on_a]
    turn = (dots < 0.0)[:, None]
    on_a = np.where(turn, on_a[1], on_a[0]), np.where(turn, on_a[0], on_a[1])
    inner = max_rows(_dist_rows(on_a[0], on_b[0]), _dist_rows(on_a[1], on_b[1]))
    three_d = [
        _angle_term((_clipped_cosines(dots),), config.tau_angle_3d),
        _distance_term(
            np.where(low, 0.0, inner) / np.where(low, 1.0, scale), config.tau_innerseg
        ),
    ]
    past = np.flatnonzero(_gate_rows(three_d, (overlap >= config.tau_overlap) & ~low))
    kept, p, q = _cross_rows(block, a[past], b[past])
    image = _image_components(p, q, config)
    overlap = min_rows(_mutual_overlap_planar(*p), _mutual_overlap_planar(*q))
    passed = np.flatnonzero(_gate_rows(image, overlap >= config.tau_overlap))
    rows = past[kept[passed]]
    scores = np.zeros(len(a))
    scores[rows] = _min_similarity(
        [term.take(rows) for term in three_d] + [term.take(passed) for term in image]
    )
    return scores

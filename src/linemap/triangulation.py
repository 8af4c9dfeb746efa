"""3D line segment triangulation from two-view segment matches.

All triangulation routines keep the endpoints of the output segment on the
viewing rays of the reference segment's endpoints, so a proposal never moves
off its own 2D detection.  Besides the plain algebraic two-view construction
there are three fallbacks that stay well-posed when a viewing ray lies close
to the plane back-projected from the matched segment: fitting through shared
3D points, constraining with a known 3D point, and constraining with a
vanishing-point direction.

Every two-view routine, and the weak epipolar IoU gate in front of them,
reads the ray-plane form of a match: the relative pose, the reference and
matched endpoint rays and the plane back-projected from the matched
segment.  The pipeline forms every match of one reference image at once, as
the rows of one :class:`MatchRows` block (:func:`match_rows`), and runs the
IoU gate (:func:`weak_epipolar_iou`) and the algebraic triangulation with
its degeneracy test and cheirality checks (:func:`triangulate_algebraic`)
as one array pass over those rows.  Both also take one
:class:`RayPlaneForm`, as a block of one row.

A block gives every row the bits that one match at a time on Python floats
gives (``tests/support.py`` keeps that form as the oracle): only ``+ - * /``,
``sqrt`` and ``abs`` run as numpy arithmetic, each 3-vector product is
summed term by term as :func:`~linemap.geometry.dot3` does, Python's
``min`` and ``max`` are :func:`~linemap.geometry.min_rows` and
:func:`~linemap.geometry.max_rows`, and the plane angle's ``asin`` and
``degrees`` run through :mod:`math` element by element.  No BLAS call
touches a row, and a degenerate configuration scores IoU 0 or gets a
failure flag, never a division error.  The rescue solvers (point, VP and
multi-point) run a few hundred times a run on one :class:`RayPlaneForm` of
Python floats each, and keep numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import (
    EPS,
    CameraView,
    Mat3,
    PluckerLine,
    Segment3D,
    Vec3,
    closest_point_line_to_line,
    cross3,
    dot_rows,
    matvec_rows,
    max_rows,
    min_rows,
    normalized,
    principal_line,
)


MIN_PLANE_ANGLE_DEG = 1.0  # a reference ray closer to the match plane is degenerate


class TriangulationError(Exception):
    """Base class for unrecoverable triangulation failures."""


class DegenerateTriangulationError(TriangulationError):
    """A viewing ray is too close to the back-projected plane of the match."""


class WeaklyDegenerateError(DegenerateTriangulationError):
    """Exactly one endpoint ray is degenerate."""


class FullyDegenerateError(DegenerateTriangulationError):
    """Both endpoint rays are degenerate."""


class CheiralityError(TriangulationError):
    """No solution places the segment in front of both cameras."""


@dataclass(frozen=True)
class RayPlaneForm:
    """Two-view setup of one match: the reference rays against the match plane.

    Every field but ``ref_view`` is Python floats.  ``R`` (by rows) and
    ``t`` map reference-camera coordinates into the matched camera's.
    ``x1, x2`` are the reference endpoint rays in normalized coordinates
    (z = 1, so a depth ``lam`` puts the endpoint at ``lam * x``) and ``Rx1,
    Rx2`` the same rays turned into the matched frame; ``y1, y2`` are the
    matched endpoint rays.  The match plane has unit normal ``n`` in the
    matched frame, and the reference endpoint at depth ``lam[i]`` lies
    ``a[i] * lam[i] + c`` off it.
    """

    ref_view: CameraView
    R: Mat3
    t: Vec3
    x1: Vec3
    x2: Vec3
    Rx1: Vec3
    Rx2: Vec3
    y1: Vec3
    y2: Vec3
    n: Vec3
    a: tuple[float, float]
    c: float


# ---------------------------------------------------------------------------
# blocks of matches into one reference view
# ---------------------------------------------------------------------------


class MatchRows(NamedTuple):
    """The ray-plane forms of a block of matches into one reference view, one row each.

    The fields after ``plane`` are :class:`RayPlaneForm`'s, stacked: ``R``
    is ``(m, 3, 3)``, ``a`` is ``(m, 2)``, ``c`` is ``(m,)`` and the others
    are ``(m, 3)``.  ``plane`` is False where the matched rays coincide, so
    that the match has no plane; such a row's ``n``, ``a`` and ``c`` are
    placeholders.
    """

    ref_view: CameraView
    plane: np.ndarray
    R: np.ndarray
    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    Rx1: np.ndarray
    Rx2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    n: np.ndarray
    a: np.ndarray
    c: np.ndarray

    def take(self, idx) -> MatchRows:
        return MatchRows(self.ref_view, *(field[idx] for field in self[1:]))

    def form(self, i: int) -> RayPlaneForm:
        """Row ``i`` as a :class:`RayPlaneForm` (``.tolist()`` keeps every bit)."""
        R, *vectors, a, c = (field[i].tolist() for field in self[2:])
        return RayPlaneForm(self.ref_view, tuple(map(tuple, R)), *map(tuple, vectors), tuple(a), c)


def match_rows(
    ref_view: CameraView,
    R: np.ndarray,
    t: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
) -> MatchRows:
    """The forms of the matches ``i``: reference rays ``x1[i]``, ``x2[i]``
    against matched rays ``y1[i]``, ``y2[i]`` under the relative pose
    ``R[i]``, ``t[i]`` (:func:`~linemap.geometry.relative_pose` of the
    reference and matched views).

    The match plane's normal is ``y1 x y2`` divided by its norm; rows whose
    norm is below EPS have no plane.
    """
    n = np.stack(
        [
            y1[:, 1] * y2[:, 2] - y1[:, 2] * y2[:, 1],
            y1[:, 2] * y2[:, 0] - y1[:, 0] * y2[:, 2],
            y1[:, 0] * y2[:, 1] - y1[:, 1] * y2[:, 0],
        ],
        axis=1,
    )
    nn = np.sqrt(dot_rows(n, n))
    plane = ~(nn < EPS)
    n = n / np.where(plane, nn, 1.0)[:, None]
    Rx1, Rx2 = matvec_rows(R, x1), matvec_rows(R, x2)
    a = np.stack([dot_rows(n, Rx1), dot_rows(n, Rx2)], axis=1)
    return MatchRows(ref_view, plane, R, t, x1, x2, Rx1, Rx2, y1, y2, n, a, dot_rows(n, t))


def _one_row(form: RayPlaneForm) -> MatchRows:
    """The block of one match: each of the form's fields as a row."""
    rows = (np.array([getattr(form, name)], dtype=np.float64) for name in MatchRows._fields[2:])
    return MatchRows(form.ref_view, np.array([True]), *rows)


def weak_epipolar_iou(form: MatchRows | RayPlaneForm) -> np.ndarray | float:
    """Interval overlap between each matched segment and its epipolar band:
    one value per row of a :class:`MatchRows` block, or one float for one
    :class:`RayPlaneForm`.

    The epipolar lines of the two reference endpoints cut an interval on the
    infinite line supporting the matched segment; a row's value is the 1D
    intersection-over-union between that interval and the matched segment
    itself.  Degenerate configurations (no match plane, no baseline,
    epipolar lines parallel to the matched line) score 0.

    The epipolar line of ``x`` meets the matched line at the image of the
    point where ``x``'s ray meets the match plane: with ``E = [t]x R``,
    ``(E x) x (y1 x y2)`` is ``c R x - (n . R x) t`` up to a positive scale,
    so each cut is read off the form as ``c * Rx_i - a_i * t``.
    """
    rows = _one_row(form) if isinstance(form, RayPlaneForm) else form
    t, c = rows.t, rows.c[:, None]
    ox, oy = rows.y1[:, 0], rows.y1[:, 1]
    dx, dy = rows.y2[:, 0] - ox, rows.y2[:, 1] - oy
    seg_len = np.sqrt(dx * dx + dy * dy)
    zero = ~rows.plane | (np.sqrt(dot_rows(t, t)) < EPS) | (seg_len < EPS)
    seg_len = np.where(zero, 1.0, seg_len)
    ux, uy = dx / seg_len, dy / seg_len
    params = []
    for Rx, a in ((rows.Rx1, rows.a[:, :1]), (rows.Rx2, rows.a[:, 1:])):
        h = c * Rx - a * t
        h0, h1, h2 = h[:, 0], h[:, 1], h[:, 2]
        # the epipolar line runs parallel to the matched line
        zero |= np.abs(h2) < EPS * (np.sqrt(h0 * h0 + h1 * h1) + EPS)
        h2 = np.where(zero, 1.0, h2)
        params.append((h0 / h2 - ox) * ux + (h1 / h2 - oy) * uy)
    lo, hi = min_rows(*params), max_rows(*params)
    inter = max_rows(0.0, min_rows(hi, seg_len) - max_rows(lo, 0.0))
    union = max_rows(hi, seg_len) - min_rows(lo, 0.0)
    zero |= union < EPS
    iou = np.where(zero, 0.0, inter / np.where(zero, 1.0, union))
    return iou if rows is form else float(iou[0])


def degenerate_rows(ray: np.ndarray, normal: np.ndarray, min_angle_deg: float) -> np.ndarray:
    """Whether each ray (rows of ``(m, 3)``) lies within ``min_angle_deg`` of
    its plane, given by the matching row of ``normal``.

    The angle measured is between the ray and the plane itself (zero when
    the ray is contained in the plane), not the angle to the normal.  A
    zero-length ray or normal has no angle and counts as degenerate.
    """
    scale = np.sqrt(dot_rows(ray, ray)) * np.sqrt(dot_rows(normal, normal))
    zero = scale == 0.0
    s = np.abs(dot_rows(ray, normal)) / np.where(zero, 1.0, scale)
    s = np.where(s < 1.0, s, 1.0)  # min(1.0, s): NaN gives 1.0
    angle = np.array([math.degrees(math.asin(x)) for x in s.tolist()])
    return zero | (angle < min_angle_deg)


class AlgebraicRows(NamedTuple):
    """Outcome of the algebraic triangulation of each row of a block.

    ``bad1`` and ``bad2`` flag the endpoint rays within the threshold angle
    of the match plane (a degenerate row has either); ``ok`` flags the rows
    that are not degenerate and lie in front of both cameras, the others
    failing cheirality.  ``start`` and ``end`` are ``(m, 3)`` world
    endpoints, placeholders where ``ok`` is False.
    """

    bad1: np.ndarray
    bad2: np.ndarray
    ok: np.ndarray
    start: np.ndarray
    end: np.ndarray


def _finish_rows(rows: MatchRows, lam1: np.ndarray, lam2: np.ndarray):
    """Cheirality check in both views, then the endpoints in world coordinates:
    ``(ok, start, end)``, the endpoints at depths ``lam1`` and ``lam2`` along
    the reference rays."""
    ok = ~((lam1 <= 0) | (lam2 <= 0))
    v = rows.ref_view.floats
    Rt, t_ref = np.array(v.Rt), np.array(v.t)
    ends = []
    for lam, x in ((lam1, rows.x1), (lam2, rows.x2)):
        p = lam[:, None] * x
        ok &= ~(dot_rows(rows.R[:, 2], p) + rows.t[:, 2] <= 0)
        ends.append(matvec_rows(Rt, p - t_ref))
    return ok, ends[0], ends[1]


def triangulate_algebraic(
    form: MatchRows | RayPlaneForm, min_angle_deg: float = MIN_PLANE_ANGLE_DEG
) -> AlgebraicRows | Segment3D:
    """Two-view triangulation, intersecting the reference rays with the
    match plane: the outcome of every row of a :class:`MatchRows` block as
    :class:`AlgebraicRows`, or the segment of one :class:`RayPlaneForm`.

    The matched segment back-projects to a plane through the matched camera
    center; each reference endpoint ray is intersected with that plane.  A
    ray exactly parallel to the plane (``a[i] == 0``) is degenerate at any
    threshold.  A block flags its failures; one form raises them.

    Raises:
        WeaklyDegenerateError: one endpoint ray within ``min_angle_deg`` of
            the plane.
        FullyDegenerateError: both endpoint rays degenerate.
        CheiralityError: intersection behind either camera.
    """
    rows = _one_row(form) if isinstance(form, RayPlaneForm) else form
    a1, a2 = rows.a[:, 0], rows.a[:, 1]
    bad1 = (a1 == 0.0) | degenerate_rows(rows.Rx1, rows.n, min_angle_deg)
    bad2 = (a2 == 0.0) | degenerate_rows(rows.Rx2, rows.n, min_angle_deg)
    bad = bad1 | bad2
    ok, start, end = _finish_rows(
        rows, -rows.c / np.where(bad, 1.0, a1), -rows.c / np.where(bad, 1.0, a2)
    )
    if rows is form:
        return AlgebraicRows(bad1, bad2, ok & ~bad, start, end)
    if bad1[0] and bad2[0]:
        raise FullyDegenerateError("both endpoint rays parallel to the match plane")
    if bad[0]:
        raise WeaklyDegenerateError("one endpoint ray parallel to the match plane")
    if not ok[0]:
        raise CheiralityError("an endpoint lies behind the reference or the matched view")
    return Segment3D(start[0], end[0])


# ---------------------------------------------------------------------------
# rescue: one match, or one detection, at a time
# ---------------------------------------------------------------------------


def _finish_segment(form: RayPlaneForm, lam1: float, lam2: float) -> Segment3D:
    """The segment at depths ``lam1`` and ``lam2`` along the reference rays.

    Raises:
        CheiralityError: an endpoint lies behind either camera.
    """
    ok, start, end = _finish_rows(_one_row(form), np.array([lam1]), np.array([lam2]))
    if not ok[0]:
        raise CheiralityError("an endpoint lies behind the reference or the matched view")
    return Segment3D(start[0], end[0])


def triangulate_multipoint(
    ref_rays: tuple[Vec3, Vec3],
    ref_view: CameraView,
    points3d: np.ndarray,
) -> Segment3D:
    """Triangulate by fitting a 3D line through shared 3D points.

    The principal direction of the point set (about its mean) defines the
    line; the segment endpoints are the points on the two reference endpoint
    rays closest to that line.

    Args:
        ref_rays: the detection's endpoint rays in normalized coordinates.
        points3d: array of shape (n, 3) with n >= 2 world points.
    """
    pts = np.asarray(points3d, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise TriangulationError("need at least two 3D points to fit a line")
    mean, direction, spread = principal_line(pts)
    if spread < EPS:
        raise DegenerateTriangulationError("3D points are coincident; no line direction")
    fitted = PluckerLine.from_point_direction(mean, direction)

    endpoints = []
    for x in ref_rays:
        try:
            endpoints.append(closest_point_line_to_line(ref_view.world_ray(x), fitted))
        except ValueError as exc:
            raise DegenerateTriangulationError(
                "fitted line is parallel to an endpoint ray"
            ) from exc
    for p in endpoints:
        if ref_view.depth(p) <= 0:
            raise CheiralityError("fitted segment lies behind the reference view")
    return Segment3D(endpoints[0], endpoints[1])


# ---------------------------------------------------------------------------
# constrained quadratic minimization shared by the point/VP variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstrainedSolution:
    lam: np.ndarray
    cost: float


def solve_constrained_quadratic(A, b, Q, q) -> list[ConstrainedSolution]:
    """Stationary points of ``x^T A x + b^T x`` subject to ``x^T Q x + q^T x = 0``.

    ``A`` and ``Q`` are symmetric 2x2.  The first-order conditions give
    ``x(mu) = -1/2 (A + mu Q)^-1 (b + mu q)``; substitution into the
    constraint yields a polynomial of degree up to four in the multiplier
    ``mu``, whose real roots enumerate every candidate.  Roots where
    ``A + mu Q`` is singular are skipped.

    Returns the candidates sorted by cost (ascending).  The list may be
    empty when the constraint surface has no stationary point.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)

    if not np.any(Q):
        return _solve_linear_equality(A, b, q)

    # polynomial entries in mu (ascending coefficients)
    M = [[np.array([A[i, j], Q[i, j]]) for j in range(2)] for i in range(2)]
    v = [np.array([b[i], q[i]]) for i in range(2)]
    adj = [[M[1][1], -1.0 * M[0][1]], [-1.0 * M[1][0], M[0][0]]]
    det = npoly.polysub(npoly.polymul(M[0][0], M[1][1]), npoly.polymul(M[0][1], M[1][0]))
    w = [
        npoly.polyadd(npoly.polymul(adj[i][0], v[0]), npoly.polymul(adj[i][1], v[1]))
        for i in range(2)
    ]
    # constraint numerator: 1/4 w^T Q w - 1/2 det (q . w)
    num = np.zeros(1)
    for i in range(2):
        for j in range(2):
            num = npoly.polyadd(num, 0.25 * Q[i, j] * npoly.polymul(w[i], w[j]))
    qw = npoly.polyadd(q[0] * w[0], q[1] * w[1])
    num = npoly.polysub(num, 0.5 * npoly.polymul(det, qw))

    scale = np.max(np.abs(num))
    if scale < EPS:
        return []
    num = num / scale
    coeffs = np.trim_zeros(num, "b")
    if coeffs.size <= 1:
        return []
    roots = np.roots(coeffs[::-1])

    det_scale = max(np.max(np.abs(A)), np.max(np.abs(Q)))
    sols = []
    for r in roots:
        if abs(r.imag) > 1e-8 * max(1.0, abs(r)):
            continue
        mu = float(r.real)
        Mm = A + mu * Q
        if abs(np.linalg.det(Mm)) < 1e-14 * max(1.0, det_scale**2):
            continue
        lam = -0.5 * np.linalg.solve(Mm, b + mu * q)
        sols.append(ConstrainedSolution(lam, float(lam @ A @ lam + b @ lam)))
    sols.sort(key=lambda s: s.cost)
    # among cost ties, prefer the solution with larger smallest depth
    i = 0
    while i < len(sols):
        j = i + 1
        while j < len(sols) and sols[j].cost - sols[i].cost < 1e-10:
            j += 1
        sols[i:j] = sorted(sols[i:j], key=lambda s: -min(s.lam))
        i = j
    return sols


def _solve_linear_equality(A, b, q) -> list[ConstrainedSolution]:
    # Q == 0: minimize x^T A x + b^T x subject to q^T x = 0 via the KKT system.
    kkt = np.zeros((3, 3))
    kkt[:2, :2] = 2.0 * A
    kkt[:2, 2] = q
    kkt[2, :2] = q
    rhs = np.array([-b[0], -b[1], 0.0])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    lam = sol[:2]
    return [ConstrainedSolution(lam, float(lam @ A @ lam + b @ lam))]


def _plane_cost(form: RayPlaneForm) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` with ``lam^T A lam + b^T lam`` the summed squared plane offsets, less 2 c^2."""
    a = np.array(form.a)
    return np.diag(a * a), 2.0 * form.c * a


def _pick_solution(sols: list[ConstrainedSolution], form: RayPlaneForm) -> Segment3D:
    for s in sols:
        try:
            return _finish_segment(form, float(s.lam[0]), float(s.lam[1]))
        except CheiralityError:
            continue
    raise CheiralityError("no candidate places the segment in front of both cameras")


def triangulate_line_point(form: RayPlaneForm, point3d: np.ndarray) -> Segment3D:
    """Triangulation constrained by one 3D point known to lie on the line.

    The point is orthogonally projected onto the plane spanned by the two
    reference endpoint rays; requiring the two endpoints to be collinear
    with that projection is a quadratic constraint in the endpoint depths,
    under which the match-plane residuals of both endpoints are minimized.
    Among the resulting candidates the cheapest one passing the cheirality
    test in both views is returned.
    """
    x1, x2 = np.array(form.x1), np.array(form.x2)
    n_p = cross3(x1, x2)
    npn = np.linalg.norm(n_p)
    if npn < EPS:
        raise TriangulationError("reference segment endpoints coincide")
    n_p = n_p / npn

    p_ref = form.ref_view.R @ np.asarray(point3d, dtype=np.float64) + form.ref_view.t
    p_in_plane = p_ref - (n_p @ p_ref) * n_p
    if np.linalg.norm(p_in_plane) < EPS:
        raise DegenerateTriangulationError("3D point projects to the camera center")

    # in-plane frame: rays and the projected point with a zero third coordinate
    u = normalized(x1)
    v = cross3(n_p, u)
    p1 = np.array([u @ x1, v @ x1])
    p2 = np.array([u @ x2, v @ x2])
    p0 = np.array([u @ p_in_plane, v @ p_in_plane])

    cross2 = lambda a, b: a[0] * b[1] - a[1] * b[0]
    c12 = cross2(p1, p2)
    Q = np.array([[0.0, 0.5 * c12], [0.5 * c12, 0.0]])
    q = np.array([-cross2(p1, p0), -cross2(p0, p2)])
    if not np.any(Q) and not np.any(q):
        raise DegenerateTriangulationError("collinearity constraint is vacuous")

    sols = solve_constrained_quadratic(*_plane_cost(form), Q, q)
    if not sols:
        raise TriangulationError("constrained solve produced no real candidate")
    return _pick_solution(sols, form)


def triangulate_line_vp(form: RayPlaneForm, vp_dir: np.ndarray) -> Segment3D:
    """Triangulation constrained by a vanishing-point direction.

    ``vp_dir`` is the 3D direction (reference-camera frame) associated with
    the segment.  The output direction is its projection onto the plane of
    the reference rays, expressed as a linear constraint on the two endpoint
    depths; the match-plane residuals are minimized subject to it.
    """
    x1, x2 = np.array(form.x1), np.array(form.x2)
    w = cross3(vp_dir, cross3(x1, x2))
    if np.linalg.norm(w) < EPS:
        raise DegenerateTriangulationError(
            "vanishing direction is perpendicular to the ray plane"
        )
    q = np.array([-(w @ x1), w @ x2])
    if np.max(np.abs(q)) < EPS:
        raise DegenerateTriangulationError("vanishing direction constrains neither ray")

    sols = solve_constrained_quadratic(*_plane_cost(form), np.zeros((2, 2)), q)
    if not sols:
        raise TriangulationError("constrained solve produced no real candidate")
    return _pick_solution(sols, form)

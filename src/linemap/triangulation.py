"""3D line segment triangulation from two-view segment matches.

All triangulation routines keep the endpoints of the output segment on the
viewing rays of the reference segment's endpoints, so a proposal never moves
off its own 2D detection.  Besides the plain algebraic two-view construction
there are three fallbacks that stay well-posed when a viewing ray lies close
to the plane back-projected from the matched segment: fitting through shared
3D points, constraining with a known 3D point, and constraining with a
vanishing-point direction.

Every two-view routine, and the weak epipolar IoU gate in front of them,
reads one :class:`RayPlaneForm` per match: the relative pose, the reference
and matched endpoint rays and the plane back-projected from the matched
segment.  The pipeline solves each detection's endpoint rays once per run,
computes each image pair's relative pose once, and builds the form from
them, so no call repeats that setup.

A match costs a few dozen flops, so the form, the IoU gate, the degeneracy
check and the algebraic triangulation run on Python floats: every 3-vector
product is summed term by term through :func:`~linemap.geometry.dot3`,
with no BLAS call, and a degenerate configuration scores IoU 0 or raises a
:class:`TriangulationError`, never a division error.  The rescue solvers
(point, VP and multi-point) run a few hundred times a run and keep numpy;
they convert the form's fields where they read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    cross3_floats,
    dot3,
    matvec3,
    norm3,
    normalized,
    principal_line,
)


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


def check_degeneracy(ray_dir, plane_normal, min_angle_deg: float) -> bool:
    """Whether a ray (any 3-sequence) lies within ``min_angle_deg`` of a plane.

    The angle measured is between the ray and the plane itself (zero when
    the ray is contained in the plane), not the angle to the normal.  A
    zero-length ray or normal has no angle and counts as degenerate.
    """
    scale = norm3(ray_dir) * norm3(plane_normal)
    if scale == 0.0:
        return True
    s = abs(dot3(ray_dir, plane_normal)) / scale
    return math.degrees(math.asin(min(1.0, s))) < min_angle_deg


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


def ray_plane_form(
    ref_view: CameraView,
    ref_rays: tuple[Vec3, Vec3],
    pose: tuple[Mat3, Vec3],
    match_rays: tuple[Vec3, Vec3],
) -> RayPlaneForm | None:
    """The form of one match; ``None`` if the matched rays coincide.

    ``pose`` is :func:`~linemap.geometry.relative_pose` of the reference
    and matched views; the rays are 3-sequences of Python floats.
    """
    R, t = pose
    x1, x2 = ref_rays
    y1, y2 = match_rays
    n = cross3_floats(y1, y2)
    nn = norm3(n)
    if nn < EPS:
        return None
    n = (n[0] / nn, n[1] / nn, n[2] / nn)
    Rx1, Rx2 = matvec3(R, x1), matvec3(R, x2)
    a = (dot3(n, Rx1), dot3(n, Rx2))
    return RayPlaneForm(ref_view, R, t, x1, x2, Rx1, Rx2, y1, y2, n, a, dot3(n, t))


def _finish_segment(form: RayPlaneForm, lam1: float, lam2: float) -> Segment3D:
    """Cheirality check in both views, then the endpoints in world coordinates."""
    if lam1 <= 0 or lam2 <= 0:
        raise CheiralityError("endpoint depth is not positive in the reference view")
    depth_row, tz = form.R[2], form.t[2]
    v = form.ref_view.floats
    t0, t1, t2 = v.t
    ends = []
    for li, (x0, x1, x2) in ((lam1, form.x1), (lam2, form.x2)):
        p0, p1, p2 = li * x0, li * x1, li * x2
        if dot3(depth_row, (p0, p1, p2)) + tz <= 0:
            raise CheiralityError("endpoint lies behind the matched view")
        ends.append(matvec3(v.Rt, (p0 - t0, p1 - t1, p2 - t2)))
    return Segment3D(*ends)


def triangulate_algebraic(form: RayPlaneForm, min_angle_deg: float = 1.0) -> Segment3D:
    """Two-view triangulation intersecting reference rays with the match plane.

    The matched segment back-projects to a plane through the matched camera
    center; each reference endpoint ray is intersected with that plane.  A
    ray exactly parallel to the plane (``a[i] == 0``) is degenerate at any
    threshold.

    Raises:
        WeaklyDegenerateError: one endpoint ray within ``min_angle_deg`` of
            the plane.
        FullyDegenerateError: both endpoint rays degenerate.
        CheiralityError: intersection behind either camera.
    """
    a1, a2 = form.a
    bad1 = a1 == 0.0 or check_degeneracy(form.Rx1, form.n, min_angle_deg)
    bad2 = a2 == 0.0 or check_degeneracy(form.Rx2, form.n, min_angle_deg)
    if bad1 and bad2:
        raise FullyDegenerateError("both endpoint rays parallel to the match plane")
    if bad1 or bad2:
        raise WeaklyDegenerateError("one endpoint ray parallel to the match plane")
    return _finish_segment(form, -form.c / a1, -form.c / a2)


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


# ---------------------------------------------------------------------------
# match prefiltering
# ---------------------------------------------------------------------------


def weak_epipolar_iou(form: RayPlaneForm) -> float:
    """Interval overlap between a matched segment and its epipolar band.

    The epipolar lines of the two reference endpoints cut an interval on the
    infinite line supporting the matched segment; returned is the 1D
    intersection-over-union between that interval and the matched segment
    itself.  Degenerate configurations (no baseline, epipolar lines parallel
    to the matched line) score 0.

    The epipolar line of ``x`` meets the matched line at the image of the
    point where ``x``'s ray meets the match plane: with ``E = [t]x R``,
    ``(E x) x (y1 x y2)`` is ``c R x - (n . R x) t`` up to a positive scale,
    so each cut is read off the form as ``c * Rx_i - a_i * t``.
    """
    t = form.t
    if norm3(t) < EPS:
        return 0.0
    ox, oy, _ = form.y1
    dx, dy = form.y2[0] - ox, form.y2[1] - oy
    seg_len = math.sqrt(dx * dx + dy * dy)
    if seg_len < EPS:
        return 0.0
    ux, uy = dx / seg_len, dy / seg_len

    c = form.c
    params = []
    for Rx, a in ((form.Rx1, form.a[0]), (form.Rx2, form.a[1])):
        h0, h1, h2 = c * Rx[0] - a * t[0], c * Rx[1] - a * t[1], c * Rx[2] - a * t[2]
        if abs(h2) < EPS * (math.sqrt(h0 * h0 + h1 * h1) + EPS):
            return 0.0  # epipolar line parallel to the matched line
        params.append((h0 / h2 - ox) * ux + (h1 / h2 - oy) * uy)
    lo, hi = min(params), max(params)
    inter = max(0.0, min(hi, seg_len) - max(lo, 0.0))
    union = max(hi, seg_len) - min(lo, 0.0)
    if union < EPS:
        return 0.0
    return inter / union

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
as one array pass over those rows.

A block gives every row the bits that one match at a time on Python floats
gives (``tests/support.py`` keeps that form as the oracle): only ``+ - * /``,
``sqrt`` and ``abs`` run as numpy arithmetic, each 3-vector product is
summed term by term as :func:`~linemap.geometry.dot3` does, Python's
``min`` and ``max`` are :func:`~linemap.geometry.min_rows` and
:func:`~linemap.geometry.max_rows`, and the plane angle's sine decides the
degeneracy test wherever it lies clearly off the threshold's sine; only the
rows within a relative :data:`~linemap.scoring.FILTER_BAND` of it take
``asin`` and ``degrees`` through :mod:`math`.  No BLAS call
touches a row, and a degenerate configuration scores IoU 0 or gets a
failure flag, never a division error.

Every row carries its reference camera's pose (:class:`Poses`), so the
rescue solvers take the degenerate rows of every reference image at once:
the point and VP rescue take :class:`MatchRows` blocks joined across images
(:func:`join_rows`), each row with its own point or direction, and the
multi-point fit the detections of every image that share two or more
points.  A row's outcome does not depend on the other rows of its block.
They follow the same rules, and each gives :class:`RescueRows`, a failure
code per row, whose reason :data:`FAILURES` names.  Two LAPACK calls
remain, one stacked call per block: ``eigvals`` for the multiplier
polynomial's roots (:func:`solve_constrained_quadratic`) and ``eigh`` for
the multi-point fit (:func:`~linemap.geometry.principal_lines`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import (
    EPS,
    CameraView,
    columns,
    cross_rows,
    dot_rows,
    matvec_rows,
    max_rows,
    min_rows,
    principal_lines,
)
from .scoring import FILTER_BAND


MIN_PLANE_ANGLE_DEG = 1.0  # a reference ray closer to the match plane is degenerate


class Poses(NamedTuple):
    """Reference-camera poses, one row per match or detection: ``R``
    ``(m, 3, 3)`` and ``t`` ``(m, 3)`` map world coordinates into the camera
    frame, and ``center`` ``(m, 3)`` is the camera centre
    (:attr:`~linemap.geometry.CameraView.camera_center`)."""

    R: np.ndarray
    t: np.ndarray
    center: np.ndarray

    @classmethod
    def of(cls, view: CameraView, m: int) -> Poses:
        """``view``'s pose on each of ``m`` rows (broadcast, not copied)."""
        return cls(
            np.broadcast_to(view.R, (m, 3, 3)),
            np.broadcast_to(view.t, (m, 3)),
            np.broadcast_to(view.camera_center, (m, 3)),
        )

    @classmethod
    def join(cls, poses: list[Poses]) -> Poses:
        """The rows of ``poses``, one after another."""
        return cls(*(np.concatenate(field) for field in zip(*poses)))

    def take(self, idx) -> Poses:
        return Poses(*(field[idx] for field in self))


# ---------------------------------------------------------------------------
# blocks of matches into one reference view
# ---------------------------------------------------------------------------


class MatchRows(NamedTuple):
    """The ray-plane forms of a block of matches, one row each.

    ``ref`` holds each row's reference pose.  ``R`` (``(m, 3, 3)``, by rows)
    and ``t`` map reference-camera coordinates into the matched camera's.
    ``x1, x2`` are the reference endpoint rays in normalized coordinates
    (z = 1, so a depth ``lam`` puts the endpoint at ``lam * x``) and ``Rx1,
    Rx2`` the same rays turned into the matched frame; ``y1, y2`` are the
    matched endpoint rays.  The match plane has unit normal ``n`` in the
    matched frame, and reference endpoint ``k`` (0 or 1) at depth ``lam``
    lies ``a[:, k] * lam + c`` off it: ``a`` is ``(m, 2)``, ``c`` is ``(m,)``
    and the other fields are ``(m, 3)``.  ``plane`` is False where the
    matched rays coincide, so that the match has no plane; such a row's
    ``n``, ``a`` and ``c`` are placeholders.
    """

    ref: Poses
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
        return MatchRows(self.ref.take(idx), *(field[idx] for field in self[1:]))


def join_rows(blocks: list[MatchRows]) -> MatchRows:
    """The rows of ``blocks``, one after another, as one block."""
    return MatchRows(
        Poses.join([block.ref for block in blocks]),
        *(np.concatenate(field) for field in zip(*(block[1:] for block in blocks))),
    )


def match_rows(
    ref_view: CameraView,
    R: np.ndarray,
    t: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
) -> MatchRows:
    """The forms of the matches ``i`` into ``ref_view``: reference rays
    ``x1[i]``, ``x2[i]`` against matched rays ``y1[i]``, ``y2[i]`` under the
    relative pose ``R[i]``, ``t[i]`` (:func:`~linemap.geometry.relative_pose`
    of the reference and matched views).

    The match plane's normal is ``y1 x y2`` divided by its norm; rows whose
    norm is below EPS have no plane.
    """
    n = cross_rows(y1, y2)
    nn = np.sqrt(dot_rows(n, n))
    plane = ~(nn < EPS)
    n = n / np.where(plane, nn, 1.0)[:, None]
    Rx1, Rx2 = matvec_rows(R, x1), matvec_rows(R, x2)
    a = np.stack([dot_rows(n, Rx1), dot_rows(n, Rx2)], axis=1)
    ref = Poses.of(ref_view, len(plane))
    return MatchRows(ref, plane, R, t, x1, x2, Rx1, Rx2, y1, y2, n, a, dot_rows(n, t))


def weak_epipolar_iou(rows: MatchRows) -> np.ndarray:
    """Interval overlap between each matched segment and its epipolar band,
    one value per row of a :class:`MatchRows` block.

    The epipolar lines of the two reference endpoints cut an interval on the
    infinite line supporting the matched segment; a row's value is the 1D
    intersection-over-union between that interval and the matched segment
    itself.  Degenerate configurations (no match plane, no baseline,
    epipolar lines parallel to the matched line) score 0.

    The epipolar line of ``x`` meets the matched line at the image of the
    point where ``x``'s ray meets the match plane: with ``E = [t]x R``,
    ``(E x) x (y1 x y2)`` is ``c R x - (n . R x) t`` up to a positive scale,
    so each cut is read off the row as ``c * Rx_i - a_i * t``.
    """
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
    return np.where(zero, 0.0, inter / np.where(zero, 1.0, union))


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
    # asin is increasing with slope >= 1, so a sine off the threshold's sine
    # by more than the band is decided without it
    degenerate = np.zeros(len(s), dtype=bool)
    unsure = np.arange(len(s))
    if 0.0 < min_angle_deg < 90.0:
        edge = math.sin(math.radians(min_angle_deg))
        degenerate = s < edge * (1.0 - FILTER_BAND)
        unsure = np.flatnonzero(~degenerate & (s <= edge * (1.0 + FILTER_BAND)))
    degenerate[unsure] = [math.degrees(math.asin(x)) < min_angle_deg for x in s[unsure].tolist()]
    return zero | degenerate


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
    the reference rays.  Depths of shape ``(m, k)``, ``k`` candidates per
    row, take rows whose fields carry an axis of length 1 after the first."""
    ok = ~((lam1 <= 0) | (lam2 <= 0))
    Rt, t_ref = rows.ref.R.swapaxes(-1, -2), rows.ref.t
    ends = []
    for lam, x in ((lam1, rows.x1), (lam2, rows.x2)):
        p = lam[..., None] * x
        ok &= ~(dot_rows(rows.R[..., 2, :], p) + rows.t[..., 2] <= 0)
        ends.append(matvec_rows(Rt, p - t_ref))
    return ok, ends[0], ends[1]


def triangulate_algebraic(rows: MatchRows, min_angle_deg: float = MIN_PLANE_ANGLE_DEG) -> AlgebraicRows:
    """Two-view triangulation, intersecting the reference rays with the
    match plane: the outcome of every row of a :class:`MatchRows` block.

    The matched segment back-projects to a plane through the matched camera
    center; each reference endpoint ray is intersected with that plane.  A
    row is weakly degenerate where one endpoint ray lies within
    ``min_angle_deg`` of the plane and fully degenerate where both do; a ray
    exactly parallel to the plane (``a[i] == 0``) is degenerate at any
    threshold.  The other rows fail cheirality where an endpoint lies behind
    either camera.
    """
    a1, a2 = rows.a[:, 0], rows.a[:, 1]
    bad1 = (a1 == 0.0) | degenerate_rows(rows.Rx1, rows.n, min_angle_deg)
    bad2 = (a2 == 0.0) | degenerate_rows(rows.Rx2, rows.n, min_angle_deg)
    bad = bad1 | bad2
    ok, start, end = _finish_rows(
        rows, -rows.c / np.where(bad, 1.0, a1), -rows.c / np.where(bad, 1.0, a2)
    )
    return AlgebraicRows(bad1, bad2, ok & ~bad, start, end)


# ---------------------------------------------------------------------------
# rescue: blocks of degenerate matches, and of detections with shared points
# ---------------------------------------------------------------------------

# why a rescue row has no segment: row ``i`` of a block failed for the
# reason ``FAILURES[failure[i]]``; code 0 is a segment
FAILURES = (
    None,
    "need at least two 3D points to fit a line",
    "3D points are coincident; no line direction",
    "fitted line is parallel to an endpoint ray",
    "fitted segment lies behind the reference view",
    "reference segment endpoints coincide",
    "3D point projects to the camera center",
    "collinearity constraint is vacuous",
    "vanishing direction is perpendicular to the ray plane",
    "vanishing direction constrains neither ray",
    "constrained solve produced no real candidate",
    "no candidate places the segment in front of both cameras",
    "an endpoint is not finite",
)
(
    _,
    FEW_POINTS,
    COINCIDENT_POINTS,
    PARALLEL_RAY,
    BEHIND_VIEW,
    COINCIDENT_ENDS,
    POINT_AT_CENTER,
    VACUOUS,
    VP_OFF_PLANE,
    VP_VACUOUS,
    NO_CANDIDATE,
    NO_CHEIRAL_CANDIDATE,
    NOT_FINITE,
) = range(len(FAILURES))


class RescueRows(NamedTuple):
    """Outcome of a rescue block, one row each.

    ``failure`` is 0 where the row has a segment, else the index of its
    reason in :data:`FAILURES`; ``start`` and ``end`` are ``(m, 3)`` world
    endpoints, placeholders where ``failure`` is not 0.
    """

    failure: np.ndarray
    start: np.ndarray
    end: np.ndarray


def _fail(failure: np.ndarray, mask: np.ndarray, code: int) -> np.ndarray:
    """``failure`` with ``code`` on the rows of ``mask`` that have not failed yet."""
    return np.where((failure == 0) & mask, code, failure)


def _norm_rows(x: np.ndarray) -> np.ndarray:
    return np.sqrt(dot_rows(x, x))


def _unit_rows(x: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """``x / norm`` row by row; a row whose norm is below EPS is left as it is."""
    return x / np.where(norm < EPS, 1.0, norm)[..., None]


def triangulate_multipoint(
    rays: np.ndarray, ref: Poses, points3d: np.ndarray, owner: np.ndarray
) -> RescueRows:
    """Triangulate each detection by fitting a 3D line through its shared 3D points.

    The principal direction of a detection's points (about their mean,
    :func:`~linemap.geometry.principal_lines`) defines the line; the
    segment endpoints are the points on the two reference endpoint rays
    closest to that line.  ``rays`` is ``(m, 2, 3)``, each detection's
    endpoint rays in normalized coordinates, ``ref`` each detection's pose,
    and point ``points3d[k]`` (``(n, 3)``) belongs to detection
    ``owner[k]``; the outcome is one :class:`RescueRows` row per detection.
    """
    R, t, center = (field[:, None] for field in ref)  # one pose for both endpoint rays
    count = np.bincount(owner, minlength=len(rays))
    mean, direction, spread = principal_lines(points3d, owner, len(rays))
    direction = _unit_rows(direction, _norm_rows(direction))[:, None]
    # the point of each endpoint's world ray closest to the fitted line
    xn = _norm_rows(rays)
    ray = matvec_rows(R.swapaxes(-1, -2), _unit_rows(rays, xn))
    ray = _unit_rows(ray, _norm_rows(ray))
    c = cross_rows(ray, direction)
    denom = dot_rows(c, c)
    parallel = (xn < EPS) | (denom < EPS)
    near = dot_rows(cross_rows(mean[:, None], direction), c)[..., None] * ray - cross_rows(
        cross_rows(center, ray), cross_rows(direction, c)
    )
    ends = near / np.where(parallel, 1.0, denom)[..., None]
    behind = dot_rows(R[..., 2, :], ends) + t[..., 2] <= 0
    failure = np.where(count < 2, FEW_POINTS, 0)
    failure = _fail(failure, ~(spread >= EPS), COINCIDENT_POINTS)
    failure = _fail(failure, parallel.any(axis=1), PARALLEL_RAY)
    failure = _fail(failure, behind.any(axis=1), BEHIND_VIEW)
    failure = _fail(failure, ~np.isfinite(ends).all(axis=(1, 2)), NOT_FINITE)
    return RescueRows(failure, ends[:, 0], ends[:, 1])


# ---------------------------------------------------------------------------
# constrained quadratic minimization shared by the point/VP variants
# ---------------------------------------------------------------------------


class ConstrainedRows(NamedTuple):
    """The candidates of a block of constrained quadratics, in preference
    order: ``lam`` is ``(m, k, 2)`` and ``cost`` ``(m, k)``, with ``k`` 4,
    or 1 where every row's ``Q`` is 0; ``valid`` flags the slots that hold
    a candidate, which come first."""

    lam: np.ndarray
    cost: np.ndarray
    valid: np.ndarray


TIE_COST = 1e-10  # candidates this close in cost tie; the larger smallest depth wins


def solve_constrained_quadratic(
    A: np.ndarray, b: np.ndarray, Q: np.ndarray, q: np.ndarray
) -> ConstrainedRows:
    """Stationary points of ``x^T A x + b^T x`` subject to ``x^T Q x + q^T x = 0``,
    for each row of ``(m, 2, 2)``, ``(m, 2)``, ``(m, 2, 2)``, ``(m, 2)``
    arrays.

    ``A`` and ``Q`` are symmetric 2x2.  The first-order conditions give
    ``x(mu) = -1/2 (A + mu Q)^-1 (b + mu q)`` (Cramer's rule); substitution
    into the constraint yields a polynomial of degree up to four in the
    multiplier ``mu``, whose real roots enumerate every candidate.  Roots
    where ``A + mu Q`` is singular are skipped.  A row with ``Q = 0`` has
    the one candidate of its KKT system; where that system is singular,
    its least-squares solution of least norm.  A vacuous constraint (``Q =
    0`` and ``q = 0``) has no candidate, and neither does a non-finite
    polynomial or candidate.

    Candidates are sorted by cost (ascending); among costs within
    :data:`TIE_COST` of the first of a run, the larger smallest depth comes
    first.
    """
    linear = ~(Q != 0.0).any(axis=(1, 2))
    if linear.all():
        lam, valid = _kkt_rows(A, b, q)
    elif not linear.any():
        lam, valid = _multiplier_rows(A, b, Q, q)
    else:
        lam, valid = np.zeros((len(A), 4, 2)), np.zeros((len(A), 4), dtype=bool)
        rows = np.flatnonzero(linear)
        lam[rows, :1], valid[rows, :1] = _kkt_rows(A[rows], b[rows], q[rows])
        rows = np.flatnonzero(~linear)
        lam[rows], valid[rows] = _multiplier_rows(A[rows], b[rows], Q[rows], q[rows])
    # lam^T A lam + b^T lam of every slot, rows of A and b against columns of lam
    l0, l1 = lam[..., 0], lam[..., 1]
    a00, a01, a10, a11 = A[:, 0, :1], A[:, 0, 1:], A[:, 1, :1], A[:, 1, 1:]
    cost = ((l0 * a00 + l1 * a10) * l0 + (l0 * a01 + l1 * a11) * l1) + (b[:, :1] * l0 + b[:, 1:] * l1)
    valid &= np.isfinite(l0) & np.isfinite(l1) & np.isfinite(cost)
    cost = np.where(valid, cost, 0.0)
    if lam.shape[1] > 1:
        lam, cost, valid = _preference_order(lam, cost, valid)
    return ConstrainedRows(lam, cost, valid)


def _kkt_rows(A: np.ndarray, b: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, valid)``, ``(m, 1, 2)`` and ``(m, 1)``: ``lam`` minimizes
    ``lam^T A lam + b^T lam`` subject to ``q^T lam = 0``, the KKT system
    ``[[2A, q], [q^T, 0]] (lam, nu) = (-b, 0)`` solved along ``p = (-q1,
    q0)``, which spans the constraint.  It is valid where ``q != 0``.

    Where ``p^T A p = 0`` the system is singular; there ``lam`` is its
    least-squares solution of least norm, worked out in the basis ``p / |q|,
    q / |q|``, where the system reads ``[[0, g, 0], [g, h, s], [0, s, 0]]``
    with ``s = |q|``.
    """
    q0, q1 = q[:, 0], q[:, 1]
    p0, p1 = -q1, q0
    B00, B01, B10, B11 = 2.0 * A[:, 0, 0], 2.0 * A[:, 0, 1], 2.0 * A[:, 1, 0], 2.0 * A[:, 1, 1]
    Bp0, Bp1 = B00 * p0 + B01 * p1, B10 * p0 + B11 * p1
    Bq0, Bq1 = B00 * q0 + B01 * q1, B10 * q0 + B11 * q1
    pBp, pBq, qBq = p0 * Bp0 + p1 * Bp1, p0 * Bq0 + p1 * Bq1, q0 * Bq0 + q1 * Bq1
    pb, qb = p0 * b[:, 0] + p1 * b[:, 1], q0 * b[:, 0] + q1 * b[:, 1]
    singular = pBp == 0.0
    along = -pb / np.where(singular, 1.0, pBp)
    lam0, lam1 = along * p0, along * p1
    if singular.any():
        ss = q0 * q0 + q1 * q1
        s = np.where(ss == 0.0, 1.0, np.sqrt(ss))
        g, h = pBq / (s * s), qBq / (s * s)
        gs = g * g + ss
        gs = np.where(gs == 0.0, 1.0, gs)
        beta = g * (-pb / s) / gs
        alpha = g * (-qb / s - h * beta) / gs
        lam0 = np.where(singular, (alpha * p0 + beta * q0) / s, lam0)
        lam1 = np.where(singular, (alpha * p1 + beta * q1) / s, lam1)
    return columns(lam0, lam1)[:, None], ((q0 != 0.0) | (q1 != 0.0))[:, None]


def _linear_product(x0, x1, y0, y1) -> np.ndarray:
    """``(x0 + x1 mu) (y0 + y1 mu)``: ``(k, 3)`` coefficients in ascending order."""
    return columns(x0 * y0, x0 * y1 + x1 * y0, x1 * y1)


def _product(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Product of the polynomials of matching rows of two coefficient arrays
    (ascending order)."""
    out = np.zeros((len(f), f.shape[1] + g.shape[1] - 1))
    for i in range(f.shape[1]):
        out[:, i : i + g.shape[1]] += f[:, i : i + 1] * g
    return out


def _polynomial_roots(coeffs: np.ndarray, degree: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The roots of each row's polynomial, as ``np.roots`` finds them.

    ``coeffs`` is ``(m, 5)`` in ascending order; row ``i`` has its highest
    nonzero coefficient at ``degree[i] >= 1`` and its lowest at ``low[i]``.
    Its roots are the eigenvalues of the companion matrix of coefficients
    ``low[i]`` to ``degree[i]`` followed by ``low[i]`` zeros: ``(m, 4)``
    complex, the slots past ``degree[i]`` zero.  One stacked
    ``np.linalg.eigvals`` runs per companion size.
    """
    roots = np.zeros((len(coeffs), 4), dtype=np.complex128)
    size = degree - low
    count = np.bincount(size, minlength=5)
    for k in range(1, 5):
        if not count[k]:
            continue
        rows = np.arange(len(size)) if count[k] == len(size) else np.flatnonzero(size == k)
        top = degree[rows]
        companion = np.zeros((len(rows), k, k))
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        companion[:, 0] = -coeffs[rows[:, None], top[:, None] - 1 - np.arange(k)] / coeffs[
            rows, top, None
        ]
        roots[rows, :k] = np.linalg.eigvals(companion)
    return roots


def _multiplier_rows(A, b, Q, q) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, valid)`` of the candidates of each row with ``Q != 0``, ``(k, 4, 2)``
    and ``(k, 4)``, in the order of the multiplier polynomial's roots."""
    (a00, a01), (a10, a11) = A[:, 0].T, A[:, 1].T
    (e00, e01), (e10, e11) = Q[:, 0].T, Q[:, 1].T
    (b0, b1), (q0, q1) = b.T, q.T
    # (A + mu Q)^-1 (b + mu q) = w / det, with w = adj(A + mu Q) (b + mu q)
    w0 = _linear_product(a11, e11, b0, q0) - _linear_product(a01, e01, b1, q1)
    w1 = _linear_product(a00, e00, b1, q1) - _linear_product(a10, e10, b0, q0)
    det = _linear_product(a00, e00, a11, e11) - _linear_product(a01, e01, a10, e10)
    # constraint numerator: 1/4 w^T Q w - 1/2 det (q . w)
    w01 = _product(w0, w1)
    quad = (e00[:, None] * _product(w0, w0) + e01[:, None] * w01) + (
        e10[:, None] * w01 + e11[:, None] * _product(w1, w1)
    )
    num = 0.25 * quad - 0.5 * _product(det, q0[:, None] * w0 + q1[:, None] * w1)
    scale = np.abs(num).max(axis=1)
    usable = np.isfinite(num).all(axis=1) & ~(scale < EPS)
    num = np.where(usable[:, None], num, 0.0) / np.where(usable, scale, 1.0)[:, None]
    nonzero = num != 0.0
    degree = np.where(usable, 4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    roots = _polynomial_roots(num, degree, np.argmax(nonzero, axis=1))
    real = ~(np.abs(roots.imag) > 1e-8 * max_rows(1.0, np.abs(roots)))
    mu = roots.real
    m00, m01 = a00[:, None] + mu * e00[:, None], a01[:, None] + mu * e01[:, None]
    m10, m11 = a10[:, None] + mu * e10[:, None], a11[:, None] + mu * e11[:, None]
    d = m00 * m11 - m01 * m10
    size = max_rows(np.abs(A).max(axis=(1, 2)), np.abs(Q).max(axis=(1, 2)))[:, None]
    regular = ~(np.abs(d) < 1e-14 * max_rows(1.0, size * size))
    d = np.where(regular, d, 1.0)
    r0, r1 = b0[:, None] + mu * q0[:, None], b1[:, None] + mu * q1[:, None]
    lam = columns(-0.5 * ((m11 * r0 - m01 * r1) / d), -0.5 * ((m00 * r1 - m10 * r0) / d))
    return lam, (np.arange(4) < degree[:, None]) & real & regular


def _preference_order(lam: np.ndarray, cost: np.ndarray, valid: np.ndarray):
    """``(lam, cost, valid)`` with each row's slots in preference order: the
    valid candidates by cost (stable), each run of costs within
    :data:`TIE_COST` of its first by larger smallest depth, then the
    invalid slots."""
    rows, slots = np.arange(len(cost))[:, None], np.arange(cost.shape[1])
    order = np.argsort(np.where(valid, cost, np.inf), axis=1, kind="stable")
    lam, cost, valid = lam[rows, order], cost[rows, order], valid[rows, order]
    run = np.zeros(cost.shape, dtype=np.intp)  # the first slot of each slot's run
    for k in slots[1:].tolist():
        head = run[:, k - 1]
        joins = valid[:, k] & (cost[:, k] - cost[rows[:, 0], head] < TIE_COST)
        run[:, k] = np.where(joins, head, k)
    if (run != slots).any():
        depth = np.where(valid, -min_rows(lam[..., 0], lam[..., 1]), 0.0)
        within = np.lexsort((np.broadcast_to(slots, run.shape), depth, run), axis=-1)
        lam, cost, valid = lam[rows, within], cost[rows, within], valid[rows, within]
    return lam, cost, valid


# ---------------------------------------------------------------------------
# point- and direction-constrained triangulation of degenerate matches
# ---------------------------------------------------------------------------


def _constrained_rows(rows: MatchRows, failure: np.ndarray, Q: np.ndarray, q: np.ndarray) -> RescueRows:
    """Minimize the summed squared match-plane offsets of the endpoints of
    each row that has not failed, subject to its constraint ``(Q, q)`` on
    the endpoint depths, and keep the first candidate, in preference order,
    that lies in front of both cameras."""
    start, end = np.zeros((len(failure), 3)), np.zeros((len(failure), 3))
    live = np.flatnonzero(failure == 0)
    if len(live) < len(failure):
        rows, Q, q = rows.take(live), Q[live], q[live]
    a = rows.a
    A = np.zeros((len(live), 2, 2))
    A[:, 0, 0], A[:, 1, 1] = a[:, 0] * a[:, 0], a[:, 1] * a[:, 1]
    sols = solve_constrained_quadratic(A, 2.0 * rows.c[:, None] * a, Q, q)
    # every candidate's endpoints and cheirality, one slot per column
    wide = rows._replace(
        ref=Poses(*(field[:, None] for field in rows.ref)),
        R=rows.R[:, None],
        t=rows.t[:, None],
        x1=rows.x1[:, None],
        x2=rows.x2[:, None],
    )
    ok, s, e = _finish_rows(wide, sols.lam[..., 0], sols.lam[..., 1])
    ok &= sols.valid & np.isfinite(s).all(axis=-1) & np.isfinite(e).all(axis=-1)
    first, picked = np.argmax(ok, axis=1), ok.any(axis=1)
    every = np.arange(len(live))
    start[live], end[live] = s[every, first], e[every, first]
    code = np.where(sols.valid[:, 0], NO_CHEIRAL_CANDIDATE, NO_CANDIDATE)
    failure[live] = np.where(picked, 0, code)
    return RescueRows(failure, start, end)


def triangulate_line_point(rows: MatchRows, point3d: np.ndarray) -> RescueRows:
    """Triangulation constrained by one 3D point known to lie on the line:
    row ``i`` of a :class:`MatchRows` block with world point ``point3d[i]``
    (``(m, 3)``).

    The point is orthogonally projected onto the plane spanned by the two
    reference endpoint rays; requiring the two endpoints to be collinear
    with that projection is a quadratic constraint in the endpoint depths,
    under which the match-plane residuals of both endpoints are minimized.
    Among the resulting candidates the cheapest one passing the cheirality
    test in both views is kept.
    """
    x1, x2 = rows.x1, rows.x2
    n_p = cross_rows(x1, x2)
    npn, xn = _norm_rows(n_p), _norm_rows(x1)
    failure = np.where((npn < EPS) | (xn < EPS), COINCIDENT_ENDS, 0)
    n_p = _unit_rows(n_p, npn)
    p_ref = matvec_rows(rows.ref.R, point3d) + rows.ref.t
    p_in_plane = p_ref - dot_rows(n_p, p_ref)[:, None] * n_p
    failure = _fail(failure, _norm_rows(p_in_plane) < EPS, POINT_AT_CENTER)
    # in-plane frame: rays and the projected point with a zero third coordinate
    u = _unit_rows(x1, xn)
    w = cross_rows(n_p, u)
    (a1, b1), (a2, b2), (a0, b0) = ((dot_rows(u, y), dot_rows(w, y)) for y in (x1, x2, p_in_plane))
    Q = np.zeros((len(x1), 2, 2))
    Q[:, 0, 1] = Q[:, 1, 0] = 0.5 * (a1 * b2 - b1 * a2)
    q = columns(-(a1 * b0 - b1 * a0), -(a0 * b2 - b0 * a2))
    vacuous = (Q[:, 0, 1] == 0.0) & (q[:, 0] == 0.0) & (q[:, 1] == 0.0)
    return _constrained_rows(rows, _fail(failure, vacuous, VACUOUS), Q, q)


def triangulate_line_vp(rows: MatchRows, vp_dir: np.ndarray) -> RescueRows:
    """Triangulation constrained by a vanishing-point direction: row ``i``
    of a :class:`MatchRows` block with direction ``vp_dir[i]`` (``(m, 3)``).

    A direction is a 3D direction in the reference-camera frame.  The
    output direction is its projection onto the plane of the reference
    rays, expressed as a linear constraint on the two endpoint depths; the
    match-plane residuals are minimized subject to it.
    """
    x1, x2 = rows.x1, rows.x2
    w = cross_rows(vp_dir, cross_rows(x1, x2))
    failure = np.where(_norm_rows(w) < EPS, VP_OFF_PLANE, 0)
    q = columns(-dot_rows(w, x1), dot_rows(w, x2))
    failure = _fail(failure, max_rows(np.abs(q[:, 0]), np.abs(q[:, 1])) < EPS, VP_VACUOUS)
    return _constrained_rows(rows, failure, np.zeros((len(x1), 2, 2)), q)

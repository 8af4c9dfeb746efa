"""Camera models and line geometry primitives.

3D lines are represented in Plucker coordinates (unit direction plus moment
vector), with a minimal 4-DoF orthonormal parameterization available for
optimization.  Infinite 2D lines use homogeneous coefficients ``(a, b, c)``
with ``a*x + b*y + c = 0``.  Camera rotations map world coordinates into the
camera frame: ``X_cam = R @ X_world + t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
Vec3 = tuple[float, float, float]  # a 3-vector as Python floats
Mat3 = tuple[Vec3, Vec3, Vec3]  # a 3x3 matrix as Python floats, by rows

EPS = 1e-12


def _as_vec(x, n: int) -> FloatArray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {v.shape}")
    return v


def normalized(v: FloatArray) -> FloatArray:
    """Return ``v`` scaled to unit norm.  Raises on (near-)zero input."""
    n = np.linalg.norm(v)
    if n < EPS:
        raise ValueError("cannot normalize near-zero vector")
    return v / n


def cross3_floats(a, b) -> Vec3:
    """Cross product of two 3-sequences of Python floats.

    The same formula as ``np.cross`` (``a1*b2 - a2*b1``, ...), so the
    result is equal bit for bit.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def cross3(a: FloatArray, b: FloatArray) -> FloatArray:
    """:func:`cross3_floats` of two 3-vectors as an array, without
    ``np.cross``'s axis handling; batched crosses stay ``np.cross``."""
    a = np.asarray(a, dtype=np.float64).tolist()
    return np.array(cross3_floats(a, np.asarray(b, dtype=np.float64).tolist()))


def dot3(a, b) -> float:
    """Dot product of two 3-sequences of Python floats, ``(a0*b0 + a1*b1) + a2*b2``.

    The terms are summed in this order on Python floats, so the value does
    not depend on the BLAS kernel that numpy's ``@`` would call.
    """
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def norm3(v) -> float:
    """Euclidean norm of a 3-sequence of Python floats, ``sqrt(dot3(v, v))``."""
    return math.sqrt(dot3(v, v))


def matvec3(M, x) -> Vec3:
    """``M @ x`` for three rows ``M`` and a 3-sequence ``x``, each row through :func:`dot3`."""
    return dot3(M[0], x), dot3(M[1], x), dot3(M[2], x)


# Rows of elementwise arithmetic: each row equals the scalar helpers above on
# Python floats, bit for bit.  numpy's elementwise + - * / and sqrt round as
# Python floats do; a BLAS product or a pairwise sum would not.


def columns(*cols: FloatArray) -> FloatArray:
    """``np.stack(cols, axis=-1)`` of a few arrays of one shape, without its overhead."""
    out = np.empty(np.shape(cols[0]) + (len(cols),))
    for i, col in enumerate(cols):
        out[..., i] = col
    return out


def dot_rows(a: FloatArray, b: FloatArray) -> FloatArray:
    """:func:`dot3` of matching rows of two ``(m, 3)`` arrays (either may be one row)."""
    p = a * b
    return (p[..., 0] + p[..., 1]) + p[..., 2]


def matvec_rows(M: FloatArray, x: FloatArray) -> FloatArray:
    """:func:`matvec3` of matching rows of ``(m, 3, 3)`` matrices and ``(m, 3)`` vectors."""
    return columns(*(dot_rows(M[..., i, :], x) for i in range(3)))


def cross_rows(a: FloatArray, b: FloatArray) -> FloatArray:
    """:func:`cross3_floats` of matching rows of two ``(m, 3)`` arrays (either may be one row)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return columns(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def min_rows(x, y) -> FloatArray:
    """Python's ``min(x, y)`` row by row: ``y`` only where ``y < x``, so a NaN
    ``y`` keeps ``x`` (``np.minimum`` would give NaN)."""
    return np.where(y < x, y, x)


def max_rows(x, y) -> FloatArray:
    """Python's ``max(x, y)`` row by row: ``y`` only where ``y > x``."""
    return np.where(y > x, y, x)


def skew(v: FloatArray) -> FloatArray:
    """Cross-product matrix: ``skew(a) @ b == cross(a, b)``."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def acute_angle(u: FloatArray, v: FloatArray) -> float:
    """Acute angle in radians between two directions, ignoring orientation."""
    c = abs(float(np.dot(u, v))) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(min(1.0, c)))


# ---------------------------------------------------------------------------
# quaternion helpers (unit quaternions, scalar-first convention)
# ---------------------------------------------------------------------------


def quat_to_rotmat(q: FloatArray) -> FloatArray:
    """Rotation matrix of a unit quaternion ``(w, x, y, z)``.

    An ``(L, 4)`` stack of quaternions gives an ``(L, 3, 3)`` stack.
    """
    w, x, y, z = np.asarray(q).T
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return np.moveaxis(R, (0, 1), (-2, -1))


def rotmat_to_quat(R: FloatArray) -> FloatArray:
    """Unit quaternion ``(w, x, y, z)`` of a rotation matrix (w >= 0)."""
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(EPS, 1.0 + R[i, i] - R[j, j] - R[k, k])) * 2
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quat_mul(a: FloatArray, b: FloatArray) -> FloatArray:
    """Hamilton product of two quaternions (scalar-first), or row-wise of two ``(L, 4)`` stacks."""
    aw, ax, ay, az = np.asarray(a).T
    bw, bx, by, bz = np.asarray(b).T
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    ).T


def quat_exp(delta: FloatArray) -> FloatArray:
    """Unit quaternion for a rotation-vector increment ``delta`` (3-vector).

    An ``(L, 3)`` stack of increments gives an ``(L, 4)`` stack.
    """
    delta = np.asarray(delta, dtype=np.float64)
    theta = np.linalg.norm(delta, axis=-1, keepdims=True)
    small = theta < EPS
    half = 0.5 * theta
    axis = delta / np.where(small, 1.0, theta)
    near = np.concatenate([np.ones_like(theta), 0.5 * delta], axis=-1)
    return np.where(
        small,
        near / np.linalg.norm(near, axis=-1, keepdims=True),
        np.concatenate([np.cos(half), np.sin(half) * axis], axis=-1),
    )


# ---------------------------------------------------------------------------
# cameras
# ---------------------------------------------------------------------------


def intrinsics_matrix(focal: float, cx: float, cy: float) -> FloatArray:
    """Square-pixel pinhole intrinsic matrix."""
    return np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])


class ViewFloats(NamedTuple):
    """A :class:`CameraView`'s pose as Python floats, for per-match scalar work."""

    R: list[list[float]]  # rows of R; the camera-frame depth is R[2] . p + t[2]
    Rt: list[list[float]]  # rows of R^T: a camera-frame point X lies at R^T (X - t)
    t: list[float]


@dataclass(frozen=True)
class CameraView:
    """A calibrated, posed pinhole camera.

    The one home of the pinhole model: it projects points (and, through
    :func:`project_segment`, segments), gives a point's depth
    (:meth:`depth`) and its centre (:attr:`camera_center`), and holds the
    line map (:attr:`line_map`).  Its pose as Python floats (:attr:`floats`)
    serves the per-match work: :meth:`depth`, :func:`relative_pose` and
    :attr:`camera_center` read it term by term, with no BLAS call; the
    pair-score blocks of :mod:`~linemap.scoring` stack :attr:`projection`,
    :attr:`camera_center` and :attr:`focal`.  Derived values are cached on
    first access; instances are immutable, so a cache can never go stale.

    Attributes:
        K: 3x3 intrinsic matrix.
        R: 3x3 rotation mapping world coordinates into the camera frame.
        t: translation of the same map, ``X_cam = R @ X_world + t``.
        width: image width in pixels.
        height: image height in pixels.
    """

    K: FloatArray
    R: FloatArray
    t: FloatArray
    width: int = 0
    height: int = 0

    def __post_init__(self):
        object.__setattr__(self, "K", np.asarray(self.K, dtype=np.float64))
        object.__setattr__(self, "R", np.asarray(self.R, dtype=np.float64))
        object.__setattr__(self, "t", _as_vec(self.t, 3))

    @cached_property
    def focal(self) -> float:
        """Mean magnitude of the two focal lengths; a mirrored camera (negative
        focal lengths, ``R`` and ``t`` turned by pi) projects as its twin does."""
        return 0.5 * (abs(float(self.K[0, 0])) + abs(float(self.K[1, 1])))

    @cached_property
    def camera_center(self) -> FloatArray:
        """``-(R^T t)``, each entry summed through :func:`dot3` from :attr:`floats`."""
        v = self.floats
        return np.array([-x for x in matvec3(v.Rt, v.t)])

    @cached_property
    def projection(self) -> tuple[FloatArray, FloatArray]:
        """``(K R, K t)``: a world point ``X`` images to ``K R X + K t``."""
        return self.K @ self.R, self.K @ self.t

    @cached_property
    def floats(self) -> ViewFloats:
        """``R``, ``R^T`` and ``t`` as Python floats (``.tolist()`` keeps every bit)."""
        return ViewFloats(self.R.tolist(), self.R.T.tolist(), self.t.tolist())

    @cached_property
    def line_map(self) -> tuple[FloatArray, FloatArray]:
        """``(K^-T R, K^-T [t]x R)``, the line projection matrix (Hartley & Zisserman)
        split so that a Plucker line ``(d, m)`` images to ``A_m @ m + A_d @ d``."""
        KinvT = np.linalg.inv(self.K).T
        return KinvT @ self.R, KinvT @ skew(self.t) @ self.R

    def depth(self, p_world) -> float:
        """Z coordinate of a world point (any 3-sequence) in the camera frame."""
        v = self.floats
        return float(dot3(v.R[2], p_world) + v.t[2])

    def project_point(self, p_world: FloatArray) -> FloatArray:
        """Project a world point to pixel coordinates.

        Raises:
            ValueError: if the point is at or behind the camera plane.
        """
        KR, Kt = self.projection
        uvw = KR @ p_world + Kt
        # the last K row is (0, 0, 1), so uvw[2] is the camera-frame depth
        if uvw[2] <= EPS:
            raise ValueError("point does not lie in front of the camera")
        return uvw[:2] / uvw[2]

    def pixel_to_normalized(self, pixels: FloatArray) -> FloatArray:
        """Homogeneous normalized image coordinates ``K^-1 (u, v, 1)`` of a pixel,
        or of each row of an ``(m, 2)`` array.

        The rows are one broadcast solve, a stack of 3x3 systems with one
        right-hand side each, so a row gets the bits of its own solve; one
        solve with ``m`` right-hand sides would not.
        """
        px = np.asarray(pixels, dtype=np.float64)
        homogeneous = np.concatenate([px, np.ones(px.shape[:-1] + (1,))], axis=-1)
        return np.linalg.solve(self.K, homogeneous[..., None])[..., 0]


def relative_pose(ref: CameraView, match: CameraView) -> tuple[Mat3, Vec3]:
    """Pose mapping reference-camera coordinates into match-camera coordinates.

    Returns ``(R, t)`` as Python floats, ``R`` by rows, with ``X_match = R
    X_ref + t``: ``R = R_match R_ref^T`` and ``t = t_match - R t_ref``, each
    entry summed through :func:`dot3`.
    """
    m, r = match.floats, ref.floats
    R = tuple(matvec3(r.R, row) for row in m.R)
    return R, tuple(ti - si for ti, si in zip(m.t, matvec3(R, r.t)))


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


class PlanarRows(NamedTuple):
    """2D segments, one row each, bit for bit as the same formulas on
    Python floats give them.

    ``ok`` is False where a segment is shorter than EPS (or, for a
    projection, where an endpoint is at or behind the camera plane); the
    other fields of such a row are placeholders.  ``(x1, y1)``-``(x2, y2)``
    are the endpoints, ``(u, v)`` the unit direction, ``(l0, u, l2)`` the
    supporting line and ``length`` the :func:`math.hypot` length.
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


def planar_rows(x1: FloatArray, y1: FloatArray, x2: FloatArray, y2: FloatArray) -> PlanarRows:
    """The 2D segments ``(x1[i], y1[i])``-``(x2[i], y2[i])`` as :class:`PlanarRows`.

    Elementwise arithmetic only, with :func:`math.hypot` element by element,
    so each row equals the scalar formulas, signed zeros included: the
    direction is ``(dx, dy) / length`` and the line ``(y1 - y2, x2 - x1,
    x1*y2 - x2*y1) / length``.  On a level segment the line's first term is
    +0.0, where ``-(y2 - y1)`` would give -0.0; VP estimation stacks these
    lines, and its result follows that sign.
    """
    dx, dy = x2 - x1, y2 - y1
    n = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    ok = ~(n < EPS)
    n = np.where(ok, n, 1.0)
    return PlanarRows(ok, x1, y1, x2, y2, dx / n, dy / n, (y1 - y2) / n, (x1 * y2 - x2 * y1) / n, n)


def stack_segments_2d(segments: list[Segment2D]) -> tuple[FloatArray, PlanarRows]:
    """The endpoints of ``segments`` as homogeneous rows ``(x, y, 1)``, an
    ``(n, 2, 3)`` array, and the segments' :func:`planar_rows`.

    Raises:
        ValueError: if a segment is shorter than EPS.
    """
    ends = np.array([[[*s.start, 1.0], [*s.end, 1.0]] for s in segments], dtype=np.float64)
    ends = ends.reshape(-1, 2, 3)
    (x1, y1, _), (x2, y2, _) = ends.transpose(1, 2, 0)
    planar = planar_rows(x1, y1, x2, y2)
    if not planar.ok.all():
        raise ValueError("cannot normalize near-zero vector")
    return ends, planar


@dataclass(frozen=True)
class Segment2D:
    """A finite 2D line segment in pixel coordinates.

    Derived quantities are memoized on first access; instances are
    immutable so the cache can never go stale.
    """

    start: FloatArray
    end: FloatArray

    def __post_init__(self):
        object.__setattr__(self, "start", _as_vec(self.start, 2))
        object.__setattr__(self, "end", _as_vec(self.end, 2))

    @cached_property
    def length(self) -> float:
        d = self.end - self.start
        return math.hypot(d[0], d[1])

    @property
    def midpoint(self) -> FloatArray:
        return 0.5 * (self.start + self.end)

    @cached_property
    def direction(self) -> FloatArray:
        """``(end - start) / length`` elementwise; :func:`planar_rows` gives the same bits.

        Raises:
            ValueError: if the segment is shorter than EPS.
        """
        if self.length < EPS:
            raise ValueError("cannot normalize near-zero vector")
        return (self.end - self.start) / self.length

    @cached_property
    def infinite_line(self) -> FloatArray:
        """Homogeneous coefficients of the supporting line, ``|(a, b)| = 1``:
        ``(y1 - y2, x2 - x1, x1*y2 - x2*y1) / length``, as in :func:`planar_rows`."""
        (x1, y1), (x2, y2) = self.start.tolist(), self.end.tolist()
        n = self.length
        u = self.direction[0]  # (x2 - x1) / n; raises below EPS
        return np.array([(y1 - y2) / n, u, (x1 * y2 - x2 * y1) / n])

    def endpoints(self) -> FloatArray:
        return np.stack([self.start, self.end])


@dataclass(frozen=True)
class Segment3D:
    """A finite 3D line segment."""

    start: FloatArray
    end: FloatArray

    def __post_init__(self):
        object.__setattr__(self, "start", _as_vec(self.start, 3))
        object.__setattr__(self, "end", _as_vec(self.end, 3))

    @cached_property
    def length(self) -> float:
        """:func:`norm3` of ``end - start``."""
        return norm3((self.end - self.start).tolist())

    @property
    def midpoint(self) -> FloatArray:
        return 0.5 * (self.start + self.end)

    @cached_property
    def direction(self) -> FloatArray:
        """``(end - start) / length`` elementwise.

        Raises:
            ValueError: if the segment is shorter than EPS.
        """
        if self.length < EPS:
            raise ValueError("cannot normalize near-zero vector")
        return (self.end - self.start) / self.length

    def endpoints(self) -> FloatArray:
        return np.stack([self.start, self.end])


def project_segment(seg: Segment3D, view: CameraView) -> Segment2D | None:
    """Both endpoints projected into ``view``; None if either is at or behind its camera plane.

    Numpy arithmetic, whose bits the synthetic observations are built from;
    the pair scores project rows of a block elementwise from
    :attr:`CameraView.projection` (:mod:`~linemap.scoring`).
    """
    try:
        start, end = view.project_point(seg.start), view.project_point(seg.end)
    except ValueError:
        return None
    return Segment2D(start, end)


def sample_segment(seg: Segment2D | Segment3D, spacing: float) -> FloatArray:
    """Evenly spaced points along a 2D or 3D segment, endpoints included.

    Gaps are at most ``spacing``; a segment shorter than that keeps its two
    endpoints.
    """
    n = max(2, int(math.ceil(seg.length / spacing)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    return seg.start[None, :] + ts[:, None] * (seg.end - seg.start)[None, :]


# ---------------------------------------------------------------------------
# Plucker lines
# ---------------------------------------------------------------------------


def leading_sign(v: FloatArray) -> float:
    """Sign of the first component of ``v`` beyond ``EPS`` (1.0 if none); sign-free
    directions (a line's, a vanishing point's) are stored with it positive."""
    for c in v:
        if abs(c) > EPS:
            return 1.0 if c > 0 else -1.0
    return 1.0


@dataclass(frozen=True)
class PluckerLine:
    """An infinite 3D line: unit direction ``d`` and moment ``m = p x d``.

    The moment is independent of the choice of point ``p`` on the line.
    The stored sign is canonical (first nonzero component of ``d`` positive),
    so equal lines compare equal regardless of construction order.
    """

    d: FloatArray
    m: FloatArray

    def __post_init__(self):
        d = _as_vec(self.d, 3)
        m = _as_vec(self.m, 3)
        n = np.linalg.norm(d)
        if abs(n - 1.0) > 1e-9:
            if n < EPS:
                raise ValueError("line direction must be nonzero")
            d = d / n
            m = m / n
        if leading_sign(d) < 0:
            d, m = -d, -m
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_two_points(cls, p: FloatArray, q: FloatArray) -> "PluckerLine":
        p = _as_vec(p, 3)
        d = normalized(_as_vec(q, 3) - p)
        return cls(d, cross3(p, d))

    @classmethod
    def from_point_direction(cls, p: FloatArray, d: FloatArray) -> "PluckerLine":
        d = normalized(_as_vec(d, 3))
        return cls(d, cross3(_as_vec(p, 3), d))

    def closest_point_to_origin(self) -> FloatArray:
        return cross3(self.d, self.m)

    def point_at(self, s: float) -> FloatArray:
        return self.closest_point_to_origin() + s * self.d


def plucker_from_segment(seg: Segment3D) -> PluckerLine:
    """Plucker coordinates of the supporting line of a segment."""
    return PluckerLine.from_two_points(seg.start, seg.end)


def project_point_to_line3d(p: FloatArray, line: PluckerLine) -> FloatArray:
    """Orthogonal projection of a 3D point onto an infinite 3D line.

    Uses the moment shift ``m_p = m + d x p`` of the line as seen from ``p``;
    the foot point is then ``p + d x m_p``.
    """
    m_p = line.m + cross3(line.d, p)
    return p + cross3(line.d, m_p)


def point_line_distance_3d(p: FloatArray, line: PluckerLine) -> float:
    """Euclidean distance from a 3D point to an infinite 3D line."""
    return float(np.linalg.norm(p - project_point_to_line3d(p, line)))


def closest_point_line_to_line(line1: PluckerLine, line2: PluckerLine) -> FloatArray:
    """Point on ``line1`` closest to ``line2``.

    Raises:
        ValueError: if the lines are parallel (no unique closest point).
    """
    d1, m1 = line1.d, line1.m
    d2, m2 = line2.d, line2.m
    c = cross3(d1, d2)
    denom = float(c @ c)
    if denom < EPS:
        raise ValueError("lines are parallel; closest point is not unique")
    return (-cross3(m1, cross3(d2, c)) + (m2 @ c) * d1) / denom


def project_line(line: PluckerLine, view: CameraView) -> FloatArray:
    """Project an infinite 3D line into a view through :attr:`CameraView.line_map`.

    Returns homogeneous coefficients scaled so ``|(a, b)| = 1``.

    Raises:
        ValueError: if the line passes (numerically) through the camera
            center, where the projection degenerates to a point.
    """
    A_m, A_d = view.line_map
    l = A_m @ line.m + A_d @ line.d
    n = np.linalg.norm(l[:2])
    if n < EPS:
        raise ValueError("line projects to a point (passes through camera center)")
    return l / n


# ---------------------------------------------------------------------------
# line fitting
# ---------------------------------------------------------------------------


def principal_lines(
    points: FloatArray, owner: np.ndarray, n_groups: int
) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Least-squares line through each group of points: ``(mean, direction,
    spread)``, one row per group.

    Point ``i`` belongs to group ``owner[i]``.  A group's mean and centred
    scatter matrix are elementwise sums over its points in input order
    (``np.cumsum`` adds one point at a time), with no BLAS call; one stacked
    ``np.linalg.eigh`` gives every group's dominant eigenvector
    (``direction``) and its eigenvalue (``spread``).  Callers judge
    degeneracy by comparing ``spread`` against their own scale-aware
    threshold; a group with a non-finite point has spread NaN, which no
    threshold passes.  A group without points has mean 0 and spread 0.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    owner = np.asarray(owner, dtype=np.intp)
    count = np.bincount(owner, minlength=n_groups)
    order = np.argsort(owner, kind="stable")
    group = owner[order]
    slot = np.arange(len(order)) - (np.cumsum(count) - count)[group]
    width = max(int(count.max(initial=0)), 1)
    padded = np.zeros((n_groups, width, 3))
    padded[group, slot] = pts[order]
    # the running sums at each group's last point cover its points alone
    rows, last = np.arange(n_groups), np.where(count > 0, count - 1, 0)
    mean = np.cumsum(padded, axis=1)[rows, last] / np.where(count > 0, count, 1)[:, None]
    centered = padded - mean[:, None]
    products = centered[..., [0, 0, 0, 1, 1, 2]] * centered[..., [0, 1, 2, 1, 2, 2]]
    scatter = np.cumsum(products, axis=1)[rows, last][:, [[0, 1, 2], [1, 3, 4], [2, 4, 5]]]
    # a non-finite group would fail the whole stacked call: it gets spread NaN
    finite = np.isfinite(scatter).all(axis=(1, 2))
    evals, evecs = np.linalg.eigh(np.where(finite[:, None, None], scatter, 0.0))
    return mean, evecs[:, :, -1], np.where(finite, evals[:, -1], np.nan)


def principal_line(points: FloatArray) -> tuple[FloatArray, FloatArray, float]:
    """:func:`principal_lines` of one group: ``(mean, direction, spread)``."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    mean, direction, spread = principal_lines(pts, np.zeros(len(pts), dtype=np.intp), 1)
    return mean[0], direction[0], float(spread[0])


def trimmed_extent(ts) -> tuple[float, float] | None:
    """Robust extent of line parameters: the third-outermost value per side.

    With six or more values the two outermost on each side are discarded
    (robust against spurious long members), otherwise the full span is
    kept.  Returns None for fewer than two values or a collapsed extent.
    """
    ts = np.sort(np.asarray(ts, dtype=np.float64))
    if ts.size < 2:
        return None
    k = 2 if ts.size >= 6 else 0
    lo, hi = float(ts[k]), float(ts[-1 - k])
    if hi - lo <= 1e-12:
        return None
    return lo, hi


def distinct_index_pairs(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``k`` minimal samples of two distinct indices below ``n``, as a ``(k, 2)`` array.

    Row ``i`` equals the ``i``-th of ``k`` successive ``rng.choice(n, size=2,
    replace=False)`` calls, and ``rng`` is left in the same state, with one
    generator call.  For two of ``n`` that call runs Floyd's algorithm: a
    first index below ``n - 1``, a second below ``n`` that becomes ``n - 1``
    when it repeats the first, then one step of a Fisher-Yates shuffle that
    swaps the two when its draw below 2 is 0.  The three draws of a sample are
    the same bounded (Lemire) draws that ``integers`` makes, in the same
    order.

    Raises:
        ValueError: if ``n < 2``.
    """
    if n < 2:
        raise ValueError(f"cannot draw two distinct indices below {n}")
    first, second, shuffle = rng.integers(0, [n - 1, n, 2], size=(k, 3)).T
    second = np.where(second == first, n - 1, second)
    swap = shuffle == 0
    return np.stack([np.where(swap, second, first), np.where(swap, first, second)], axis=1)


# ---------------------------------------------------------------------------
# minimal orthonormal parameterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalLineParam:
    """Orthonormal 4-DoF parameterization of an infinite 3D line.

    ``q`` is a unit quaternion encoding the SO(3) frame whose columns are
    ``(d, m/|m|, d x m / |d x m|)``; ``w`` is a unit 2-vector encoding the
    SO(2) factor ``(1, |m|) / sqrt(1 + |m|^2)``.  The ratio ``w[1]/w[0]``
    recovers the line's distance from the origin.
    """

    q: FloatArray
    w: FloatArray

    def __post_init__(self):
        q = _as_vec(self.q, 4)
        w = _as_vec(self.w, 2)
        object.__setattr__(self, "q", q / np.linalg.norm(q))
        object.__setattr__(self, "w", w / np.linalg.norm(w))

    def rotation(self) -> FloatArray:
        return quat_to_rotmat(self.q)


def plucker_to_minimal(line: PluckerLine) -> MinimalLineParam:
    """Convert Plucker coordinates to the orthonormal representation.

    For lines through the origin (``|m| = 0``) the second frame axis is not
    determined by the line; an arbitrary unit vector orthogonal to ``d``
    completes the frame and ``w = (1, 0)`` marks zero origin distance.
    """
    d = line.d
    m = line.m
    mn = np.linalg.norm(m)
    if mn < EPS:
        # Gram-Schmidt completion: any vector not parallel to d works.
        seed = np.eye(3)[int(np.argmin(np.abs(d)))]
        u2 = normalized(seed - (seed @ d) * d)
        w = np.array([1.0, 0.0])
    else:
        u2 = m / mn
        w = np.array([1.0, mn]) / np.sqrt(1.0 + mn * mn)
    u3 = cross3(d, u2)
    U = np.column_stack([d, u2, u3])
    return MinimalLineParam(rotmat_to_quat(U), w)


def minimal_to_plucker(param: MinimalLineParam) -> PluckerLine:
    """Recover Plucker coordinates from the orthonormal representation.

    Raises:
        ValueError: for lines at infinity (``w[0] = 0``).
    """
    U = param.rotation()
    w1, w2 = param.w
    if abs(w1) < EPS:
        raise ValueError("line at infinity has no Plucker representation")
    d = U[:, 0]
    m = (w2 / w1) * U[:, 1]
    return PluckerLine(d, m)


# ---------------------------------------------------------------------------
# point distances to 2D lines and to finite segments
# ---------------------------------------------------------------------------


def point_to_infinite_line_2d(p: FloatArray, line: FloatArray) -> float:
    """Unsigned distance from a 2D point to a homogeneous 2D line."""
    return abs(float(line[0] * p[0] + line[1] * p[1] + line[2])) / np.linalg.norm(line[:2])


def point_segment_distances(points: FloatArray, starts: FloatArray, ends: FloatArray) -> FloatArray:
    """``(N, M)`` distances from each of N points to each of M finite segments.

    Works in any dimension; beyond a segment's ends the nearer endpoint
    counts.  ``starts`` and ``ends`` are ``(M, D)`` endpoint arrays.
    """
    ab = ends - starts
    denom = np.maximum(np.einsum("md,md->m", ab, ab), 1e-30)
    rel = points[:, None, :] - starts[None, :, :]  # (N, M, D)
    t = np.clip(np.einsum("nmd,md->nm", rel, ab) / denom[None, :], 0.0, 1.0)
    foot = starts[None, :, :] + t[..., None] * ab[None, :, :]
    return np.linalg.norm(points[:, None, :] - foot, axis=2)

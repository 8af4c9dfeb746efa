"""Joint refinement of 3D points, lines, and vanishing point directions.

Cameras stay fixed.  Points use 3 free parameters; infinite lines use the
orthonormal 4-DoF parameterization (quaternion tangent plus one rotation
angle of the SO(2) factor); VP directions move on the unit sphere (2 DoF).
The cost couples feature reprojection terms with structural terms:

* point reprojection: pixel residual, squared loss;
* line reprojection: perpendicular distance of each observed endpoint to
  the projected infinite line, scaled by an angle weight
  ``exp(alpha * (1 - cos angle))`` that punishes direction mismatch, under
  a Cauchy loss;
* point-on-line and line-parallel-to-VP terms weighted by their 2D
  association support, under a Huber loss;
* an orthogonality residual (cosine of the angle) for VP pairs that start
  within a few degrees of perpendicular.

The solver is Levenberg-Marquardt with multiplicative diagonal damping and
iterative reweighting for the robust losses.  Each residual type is evaluated
as stacked arrays over all of its rows, and the normal equations are kept in
three parts: the block-diagonal line part (one 4x4 block per line), the
line-(point, VP) coupling and the dense (point, VP) part.  Lines couple only
with points and VPs, so a step eliminates the line blocks with one batched
4x4 solve, solves the reduced (Schur complement) system on the 3P + 2V point
and VP unknowns, and back-substitutes the line steps (Triggs et al., "Bundle
Adjustment - A Modern Synthesis", 2000).  Each part is one ``np.bincount``
over every term's contributions, in a flat layout fixed once per problem,
and the Schur update is one bincount seeded with the entries it touches;
bincount adds in index order, so the sums have the bits of a scatter with
``np.add.at`` in the same order.  Each state is evaluated once, in two
stages: a trial step's residuals and cost decide whether it is accepted,
and only an accepted step's Jacobians and normal equations are built, from
the same residual-stage values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    EPS,
    CameraView,
    MinimalLineParam,
    PluckerLine,
    Segment2D,
    Segment3D,
    cross_rows,
    dot_rows,
    matvec_rows,
    min_rows,
    normalized,
    quat_exp,
    quat_mul,
    quat_to_rotmat,
    skew,
    stack_segments_2d,
    trimmed_extent,
)

_E1 = np.array([1.0, 0.0, 0.0])
_E2 = np.array([0.0, 1.0, 0.0])
_SKEW_E1 = skew(_E1)
_SKEW_E2 = skew(_E2)
_DIAG4 = np.arange(4)


# ---------------------------------------------------------------------------
# problem definition
# ---------------------------------------------------------------------------


@dataclass
class JointProblem:
    """Observations and initial values for joint refinement.

    Index conventions: ``point_obs`` rows are ``(point_idx, image_id,
    pixel)``, ``line_obs`` rows are ``(line_idx, image_id, Segment2D)``,
    association rows carry an integer support weight.
    """

    views: dict[int, CameraView]
    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    lines: list[MinimalLineParam] = field(default_factory=list)
    vps: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    point_obs: list[tuple[int, int, np.ndarray]] = field(default_factory=list)
    line_obs: list[tuple[int, int, Segment2D]] = field(default_factory=list)
    point_line: list[tuple[int, int, float]] = field(default_factory=list)
    line_vp: list[tuple[int, int, float]] = field(default_factory=list)
    vp_ortho: list[tuple[int, int]] = field(default_factory=list)

    def dof(self) -> int:
        return 3 * len(self.points) + 4 * len(self.lines) + 2 * len(self.vps)


# Levenberg-Marquardt schedule and stopping tolerances
_DAMPING_INIT = 1e-4
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.5
_DAMPING_MAX = 1e10
_FTOL = 1e-8  # relative cost drop
_GTOL = 1e-10  # max |gradient| entry

ASSOC_LOSS_SCALE = 0.25  # Huber, point-line and line-VP terms; scene units / radians-ish
POINT_LINE_MAX_RATIO = 2.0  # point-line distance an incidence keeps, in the smaller uncertainty scale


@dataclass(frozen=True)
class OptimizeConfig:
    max_iterations: int = 100
    angle_weight_alpha: float = 10.0
    line_loss_scale: float = 0.25  # Cauchy, pixels


@dataclass
class OptimizeResult:
    points: np.ndarray
    lines: list[MinimalLineParam]
    vps: np.ndarray
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    termination: str


def vp_orthogonal_pairs(vps: np.ndarray, angle_deg: float = 87.0) -> list[tuple[int, int]]:
    """Index pairs of VP directions within (90 - (90 - angle_deg)) .. 90+ of each other.

    Any pair whose mutual angle exceeds ``angle_deg`` is considered
    near-orthogonal and returned for regularization.
    """
    out = []
    cos_max = abs(math.cos(math.radians(angle_deg)))
    for i in range(len(vps)):
        for j in range(i + 1, len(vps)):
            if abs(float(vps[i] @ vps[j])) <= cos_max:
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# robust losses (act on the squared norms of a stack of residual blocks)
# ---------------------------------------------------------------------------


def _loss_value_and_weight(kind: str, s: np.ndarray, scale: float):
    c2 = scale * scale
    if kind == "squared":
        return s, np.ones_like(s)
    if kind == "cauchy":
        return c2 * np.log1p(s / c2), 1.0 / (1.0 + s / c2)
    if kind == "huber":
        inner = s <= c2
        r = np.sqrt(np.where(inner, 1.0, s))  # read on the outer branch only
        return np.where(inner, s, 2.0 * scale * r - c2), np.where(inner, 1.0, scale / r)
    raise ValueError(f"unknown loss {kind!r}")


# ---------------------------------------------------------------------------
# state and retraction (every line, VP and point stacked in one array each)
# ---------------------------------------------------------------------------


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _vp_bases(vps: np.ndarray) -> np.ndarray:
    """``(V, 3, 2)`` orthonormal tangent bases of unit VP directions."""
    seed = np.where((np.abs(vps[:, 0]) < 0.9)[:, None], _E1, _E2)
    b1 = _unit_rows(cross_rows(vps, seed))
    return np.stack([b1, cross_rows(vps, b1)], axis=2)


class _State:
    """Points ``(P, 3)``, line parameters ``q`` ``(L, 4)`` and ``w`` ``(L, 2)``, VPs ``(V, 3)``."""

    def __init__(self, points, q, w, vps, lines=None):
        self.points = np.array(points, dtype=np.float64).reshape(-1, 3)
        self.q = q
        self.w = w
        self.vps = np.array([normalized(v) for v in np.reshape(vps, (-1, 3))]).reshape(-1, 3)
        self.vp_bases = _vp_bases(self.vps)
        self._lines = lines

    @classmethod
    def initial(cls, problem: JointProblem) -> "_State":
        lines = list(problem.lines)
        q = np.array([par.q for par in lines]).reshape(-1, 4)
        w = np.array([par.w for par in lines]).reshape(-1, 2)
        return cls(problem.points, q, w, problem.vps, lines)

    @property
    def lines(self) -> list[MinimalLineParam]:
        if self._lines is None:
            self._lines = [MinimalLineParam(q, w) for q, w in zip(self.q, self.w)]
        return self._lines

    def retract(self, delta: np.ndarray, offsets) -> "_State":
        np_, nl, _ = offsets
        step = delta[np_:nl].reshape(-1, 4)
        q = quat_mul(self.q, quat_exp(step[:, :3]))
        c, s = np.cos(step[:, 3]), np.sin(step[:, 3])
        w0, w1 = self.w[:, 0], self.w[:, 1]
        w = np.column_stack([w0 * c - w1 * s, w0 * s + w1 * c])
        # moved VPs go in unnormalised: __init__ normalises each one once
        vps = self.vps + np.einsum("kij,kj->ki", self.vp_bases, delta[nl:].reshape(-1, 2))
        return _State(self.points + delta[:np_].reshape(-1, 3), _unit_rows(q), _unit_rows(w), vps)


def _line_geometry(q: np.ndarray, w: np.ndarray):
    """Plucker pairs of stacked minimal parameters, and their local-coordinate partials.

    Returns ``d`` and ``m`` as ``(L, 3)``, and a function giving their
    partials ``dd`` and ``dm`` as ``(L, 3, 4)``.
    """
    w1, w2 = w[:, 0], w[:, 1]
    if np.any(np.abs(w1) < 1e-12):
        raise FloatingPointError("line drifted to infinity during optimization")
    U = quat_to_rotmat(q)
    rho = w2 / w1
    d = U[:, :, 0]
    u2 = U[:, :, 1]

    def partials():
        dd = np.zeros((len(q), 3, 4))
        dd[:, :, :3] = -U @ _SKEW_E1  # columns = rotation tangent directions
        dm = np.zeros((len(q), 3, 4))
        dm[:, :, :3] = rho[:, None, None] * (-U @ _SKEW_E2)
        dm[:, :, 3] = u2 / (w1 * w1)[:, None]
        return dd, dm

    return d, rho[:, None] * u2, partials


# ---------------------------------------------------------------------------
# residual blocks, each type stacked over its rows
# ---------------------------------------------------------------------------
#
# Each gives its residuals and a function for their Jacobian blocks, ``(J_line,
# [J_reduced, ...])``: the line block ``(K, k, 4)`` or None, then the point and
# VP blocks ``(K, k, dim)``.  The Jacobians reuse the residual stage's values, so
# an evaluation whose step is rejected never builds them.


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nj->ni", M, v)


def _point_rows(K, R, t, pixel, p):
    """Pixel residuals ``(N, 2)``; their Jacobians are ``(N, 2, 3)`` w.r.t. the points.

    A point at or behind its camera keeps a large finite residual and zero slope.
    """
    X = _matvec(R, p) + t
    hom = _matvec(K, X)
    behind = X[:, 2] <= EPS
    z = np.where(behind, 1.0, hom[:, 2])[:, None]
    pix = hom[:, :2] / z

    def jacobians():
        Jx = (K[:, :2, :] * z[:, :, None] - hom[:, :2, None] * K[:, None, 2, :]) / (z * z)[:, :, None]
        return None, [np.where(behind[:, None, None], 0.0, Jx @ R)]

    return np.where(behind[:, None], 1e6, pix - pixel), jacobians


def _line_rows(A_m, A_d, ends, direction, d, m, alpha):
    """Endpoint residuals ``(M, 2)`` of line observations; their Jacobians are
    ``(M, 2, 4)``, given the observed lines' partials ``dd, dm``.

    ``A_m, A_d`` are each observation's view line map, ``ends`` its homogeneous
    endpoints ``(M, 2, 3)`` and ``direction`` its unit 2D direction; ``d, m``
    are the observed line's geometry.  A line through the camera centre images
    to no line: a large finite residual and zero slope.
    """
    l = _matvec(A_m, m) + _matvec(A_d, d)
    n = np.hypot(l[:, 0], l[:, 1])
    through = n < EPS
    n = np.where(through, 1.0, n)[:, None]
    o = direction
    c_raw = (l[:, 0] * o[:, 1] - l[:, 1] * o[:, 0])[:, None] / n
    cosphi = np.abs(c_raw)
    wa = np.exp(alpha * (1.0 - cosphi))
    e = np.einsum("mi,mki->mk", l, ends) / n
    r = wa * e

    def jacobians(dd, dm):
        Jl = A_m @ dm + A_d @ dd  # (M, 3, 4)
        zero = np.zeros(len(l))
        dn = np.column_stack([l[:, 0], l[:, 1], zero]) / n
        dg = np.column_stack([o[:, 1], -o[:, 0], zero])
        dcraw = dg / n - c_raw * dn / n
        dcos = np.where(cosphi > EPS, np.copysign(1.0, c_raw) * dcraw, 0.0)
        dwa = -alpha * wa * dcos
        de = ends / n[:, :, None] - e[:, :, None] * dn[:, None, :] / n[:, :, None]
        J = (wa[:, :, None] * de + e[:, :, None] * dwa[:, None, :]) @ Jl
        return np.where(through[:, None, None], 0.0, J), []

    return np.where(through[:, None], 1e6, r), jacobians


def _point_line_rows(p, d, m, weight):
    """Weighted point-to-line distances ``(Q, 1)``; their line and point
    Jacobians, given the lines' partials ``dd, dm``."""
    dp = cross_rows(d, p)
    e = -cross_rows(d, m) - cross_rows(d, dp)
    dist = np.sqrt(dot_rows(e, e))
    on = dist < 1e-12
    ehat = e / np.where(on, 1.0, dist)[:, None]
    weight = np.where(on, 0.0, weight)[:, None]

    def jacobians(dd, dm):
        # ehat @ skew(a) == ehat x a
        Jp = ehat - np.sum(ehat * d, axis=1, keepdims=True) * d  # ehat @ (I - d d^T)
        e_dd = cross_rows(ehat, m) + cross_rows(ehat, dp) + cross_rows(cross_rows(ehat, d), p)
        Jl = _matvec(dd.transpose(0, 2, 1), e_dd) + _matvec(dm.transpose(0, 2, 1), cross_rows(d, ehat))
        return (weight * Jl)[:, None, :], [(weight * Jp)[:, None, :]]

    return weight * dist[:, None], jacobians


def _line_vp_rows(d, v, basis, weight):
    """Weighted line-VP direction residuals ``(R, 1)``; their line and VP
    Jacobians, given the lines' partials ``dd``."""
    e = cross_rows(d, v)
    nrm = np.sqrt(dot_rows(e, e))
    parallel = nrm < 1e-12
    ehat = e / np.where(parallel, 1.0, nrm)[:, None]
    weight = np.where(parallel, 0.0, weight)[:, None]

    def jacobians(dd):
        Jl = _matvec(dd.transpose(0, 2, 1), cross_rows(v, ehat))
        Jv = _matvec(basis.transpose(0, 2, 1), cross_rows(ehat, d))
        return (weight * Jl)[:, None, :], [(weight * Jv)[:, None, :]]

    return weight * nrm[:, None], jacobians


def _vp_ortho_rows(va, vb, basis_a, basis_b):
    def jacobians():
        Ja = _matvec(basis_a.transpose(0, 2, 1), vb)
        Jb = _matvec(basis_b.transpose(0, 2, 1), va)
        return None, [Ja[:, None, :], Jb[:, None, :]]

    return np.sum(va * vb, axis=1)[:, None], jacobians


# ---------------------------------------------------------------------------
# assembly and the Schur complement step
# ---------------------------------------------------------------------------


def _index(rows, col: int) -> np.ndarray:
    return np.array([row[col] for row in rows], dtype=np.intp)


def _floats(rows, col: int, shape=()) -> np.ndarray:
    return np.array([row[col] for row in rows], dtype=np.float64).reshape((-1, *shape))


@dataclass
class _Term:
    """Layout of one residual type: its loss and where its Jacobian blocks go.

    ``lines`` indexes the line block of each row (None without one); ``cols``
    holds each point or VP block's reduced columns ``(K, dim)``; ``slots``
    numbers the reduced block's columns among its line's couplings.
    """

    loss: str
    scale: float
    lines: np.ndarray | None
    cols: list[np.ndarray]
    slots: np.ndarray | None = None


def _coupling_slots(n_lines: int, n_reduced: int, couplings):
    """Number the reduced columns that each line couples with.

    ``couplings`` lists ``(lines (K,), cols (K, dim))`` pairs: row k couples
    line ``lines[k]`` with reduced columns ``cols[k]``.  Returns the ``(L, S)``
    reduced column of each line slot, with ``n_reduced`` (one past the last
    column) on unused slots, and each pair's ``(K, dim)`` slots.
    """
    keys = [lines[:, None] * (n_reduced + 1) + cols for lines, cols in couplings]
    flat = np.concatenate([k.ravel() for k in keys] + [np.zeros(0, np.intp)])
    uniq, inverse = np.unique(flat, return_inverse=True)
    line = uniq // (n_reduced + 1)
    slot = np.arange(len(uniq)) - np.searchsorted(line, line)
    slot_cols = np.full((n_lines, slot.max(initial=-1) + 1), n_reduced, dtype=np.intp)
    slot_cols[line, slot] = uniq % (n_reduced + 1)
    bounds = np.cumsum([0] + [k.size for k in keys])
    slots = [slot[inverse[a:b]].reshape(k.shape) for a, b, k in zip(bounds, bounds[1:], keys)]
    return slot_cols, slots


class _Layout(NamedTuple):
    """Where each contribution to the normal equations goes, one flat index
    array per matrix: every term's blocks in term order, for each term its
    line block, its reduced blocks against the line, then each reduced
    block and pair of reduced blocks, as :meth:`_Linearizer.normal_equations`
    lists them."""

    A: np.ndarray
    g_lines: np.ndarray
    Bt: np.ndarray
    g_reduced: np.ndarray
    C: np.ndarray


def _layout(terms: list[_Term], n_slots: int, n_reduced: int) -> _Layout:
    A, g_lines, Bt, g_reduced, C = ([np.zeros(0, np.intp)] for _ in _Layout._fields)
    for t in terms:
        if t.lines is not None:
            A.append((16 * t.lines[:, None] + np.arange(16)).ravel())
            g_lines.append((4 * t.lines[:, None] + _DIAG4).ravel())
            for _ in t.cols:
                slot = t.lines[:, None] * n_slots + t.slots
                Bt.append((4 * slot[:, :, None] + _DIAG4).ravel())
        for cols_i in t.cols:
            g_reduced.append(cols_i.ravel())
            for cols_j in t.cols:
                C.append((n_reduced * cols_i[:, :, None] + cols_j[:, None, :]).ravel())
    return _Layout(*(np.concatenate(parts) for parts in (A, g_lines, Bt, g_reduced, C)))


class _SchurLayout(NamedTuple):
    """The Schur update's scatter on the ``n`` reduced unknowns.

    Of the ``(L, S, S)`` products of the line slots, ``pairs`` are the ones
    between used slots and ``entries`` the distinct flat entries of ``S``
    they touch; ``S_index`` is the bincount's index that puts each entry's
    own value first, then the products in order.  ``slots``,
    ``rhs_entries`` and ``rhs_index`` do the same for the ``(L, S)`` slots
    and the right-hand side.
    """

    pairs: np.ndarray
    entries: np.ndarray
    S_index: np.ndarray
    slots: np.ndarray
    rhs_entries: np.ndarray
    rhs_index: np.ndarray

    @classmethod
    def of(cls, slot_cols: np.ndarray, n: int) -> _SchurLayout:
        def seeded(flat):
            entries, inverse = np.unique(flat, return_inverse=True)
            return entries, np.concatenate([np.arange(len(entries)), inverse.ravel()])

        used = slot_cols < n
        pairs = np.flatnonzero(used[:, :, None] & used[:, None, :])
        flat = (n * slot_cols[:, :, None] + slot_cols[:, None, :]).ravel()[pairs]
        slots = np.flatnonzero(used)
        return cls(pairs, *seeded(flat), slots, *seeded(slot_cols.ravel()[slots]))


def _seeded_sum(target: np.ndarray, entries, index, values) -> None:
    """Add ``values`` into the flat ``entries`` of ``target`` one at a time, in
    order, as ``np.add.at`` would: one bincount seeded with their values."""
    flat = target.reshape(-1)
    seeds = flat[entries]
    flat[entries] = np.bincount(index, np.concatenate([seeds, values]), minlength=len(seeds))


@dataclass
class _NormalEquations:
    """``[[A, B], [B^T, C]] x = -[g_lines, g_reduced]`` with the line blocks first.

    ``A`` is ``(L, 4, 4)``; ``B`` is stored per line as ``Bt`` ``(L, S, 4)``, the
    transposed 4-column block of the line's ``S`` slots (reduced columns
    ``slot_cols``); ``C`` is dense on the ``3P + 2V`` point and VP unknowns, the
    points first.
    """

    A: np.ndarray
    Bt: np.ndarray
    C: np.ndarray
    g_lines: np.ndarray
    g_reduced: np.ndarray
    cost: float
    slot_cols: np.ndarray
    n_point_cols: int
    schur: _SchurLayout

    def gradient(self) -> np.ndarray:
        """The gradient in unknown order: points, lines, VPs."""
        p = self.n_point_cols
        return np.concatenate([self.g_reduced[:p], self.g_lines.ravel(), self.g_reduced[p:]])

    def step(self, damping: float) -> np.ndarray:
        """The damped LM step in unknown order (points, lines, VPs).

        Raises LinAlgError when a damped line block or the reduced system is
        singular.
        """
        n = len(self.C)
        diag_A = np.einsum("lii->li", self.A)
        diag_C = np.diag(self.C)
        floor = 1e-12 * max(1.0, np.concatenate([diag_C, diag_A.ravel()]).max(initial=0.0))
        A = self.A.copy()
        A[:, _DIAG4, _DIAG4] += damping * np.maximum(diag_A, floor)
        S = self.C.copy()
        S[np.arange(n), np.arange(n)] += damping * np.maximum(diag_C, floor)

        # eliminate the lines: S = C - B^T A^-1 B and rhs = -g_reduced + B^T A^-1 g_lines
        B = self.Bt.transpose(0, 2, 1)
        Y = np.linalg.solve(A, np.concatenate([self.g_lines[:, :, None], B], axis=2))
        BtY = np.einsum("lsi,lij->lsj", self.Bt, Y)  # (L, S, 1 + S)
        lay = self.schur
        _seeded_sum(S, lay.entries, lay.S_index, -BtY[:, :, 1:].ravel()[lay.pairs])
        rhs = -self.g_reduced
        _seeded_sum(rhs, lay.rhs_entries, lay.rhs_index, BtY[:, :, 0].ravel()[lay.slots])
        # unused slots (column n) read a zero step
        x = np.append(np.linalg.solve(S, rhs), 0.0)
        cols = self.slot_cols
        # back-substitute: A x_lines = -g_lines - B x
        rhs_lines = -self.g_lines - np.einsum("lsi,ls->li", self.Bt, x[cols])
        x_lines = np.linalg.solve(A, rhs_lines[:, :, None])[:, :, 0]
        p = self.n_point_cols
        return np.concatenate([x[:p], x_lines.ravel(), x[p:n]])


class _Evaluation(NamedTuple):
    """One state's residual stage: each term's residuals ``(K, k)`` and robust
    weights ``(K,)`` in ``terms`` order, the cost, and ``jacobians()``, each
    term's ``(J_line, [J_reduced, ...])`` from the same values."""

    residuals: list[np.ndarray]
    weights: list[np.ndarray]
    cost: float
    jacobians: Callable[[], list]


class _Linearizer:
    def __init__(self, problem: JointProblem, config: OptimizeConfig):
        self.config = config
        n_lines = len(problem.lines)
        self.np_ = 3 * len(problem.points)
        self.nl = self.np_ + 4 * n_lines
        self.nv = self.nl + 2 * len(problem.vps)
        self.offsets = (self.np_, self.nl, self.nv)
        self.n_reduced = self.nv - 4 * n_lines

        view_index = {img: k for k, img in enumerate(problem.views)}
        views = list(problem.views.values())
        Ks = np.array([v.K for v in views]).reshape(-1, 3, 3)
        Rs = np.array([v.R for v in views]).reshape(-1, 3, 3)
        ts = np.array([v.t for v in views]).reshape(-1, 3)

        def point_cols(idx):
            return 3 * idx[:, None] + np.arange(3)

        def vp_cols(idx):
            return self.np_ + 2 * idx[:, None] + np.arange(2)

        po = problem.point_obs
        self.po_point = _index(po, 0)
        po_view = np.array([view_index[img] for _, img, _ in po], dtype=np.intp)
        self.po_K, self.po_R, self.po_t = Ks[po_view], Rs[po_view], ts[po_view]
        self.po_pixel = _floats(po, 2, (2,))

        lo = problem.line_obs
        self.lo_line = _index(lo, 0)
        lo_view = np.array([view_index[img] for _, img, _ in lo], dtype=np.intp)
        line_maps = np.array([v.line_map for v in views]).reshape(-1, 2, 3, 3)[lo_view]
        self.lo_Am, self.lo_Ad = line_maps[:, 0], line_maps[:, 1]
        self.lo_ends, planar = stack_segments_2d([seg for _, _, seg in lo])
        self.lo_direction = np.stack([planar.u, planar.v], axis=1)

        self.pl_point, self.pl_line = _index(problem.point_line, 0), _index(problem.point_line, 1)
        self.pl_weight = _floats(problem.point_line, 2)
        self.lv_line, self.lv_vp = _index(problem.line_vp, 0), _index(problem.line_vp, 1)
        self.lv_weight = _floats(problem.line_vp, 2)
        self.vo_a, self.vo_b = _index(problem.vp_ortho, 0), _index(problem.vp_ortho, 1)

        self.terms = [
            _Term("squared", 1.0, None, [point_cols(self.po_point)]),
            _Term("cauchy", config.line_loss_scale, self.lo_line, []),
            _Term("huber", ASSOC_LOSS_SCALE, self.pl_line, [point_cols(self.pl_point)]),
            _Term("huber", ASSOC_LOSS_SCALE, self.lv_line, [vp_cols(self.lv_vp)]),
            _Term("squared", 1.0, None, [vp_cols(self.vo_a), vp_cols(self.vo_b)]),
        ]
        coupled = [t for t in self.terms if t.lines is not None and t.cols]
        self.slot_cols, slots = _coupling_slots(
            n_lines, self.n_reduced, [(t.lines, t.cols[0]) for t in coupled]
        )
        for t, t_slots in zip(coupled, slots):
            t.slots = t_slots
        self.layout = _layout(self.terms, self.slot_cols.shape[1], self.n_reduced)
        self.schur = _SchurLayout.of(self.slot_cols, self.n_reduced)

    def residuals(self, state: _State) -> _Evaluation:
        """The residual stage on ``state``: every term's residuals, robust
        weights and cost, and the Jacobian stage that reuses them."""
        cfg = self.config
        d, m, partials = _line_geometry(state.q, state.w)
        p, vps, bases = state.points, state.vps, state.vp_bases
        lo, pl, lv, a, b = self.lo_line, self.pl_line, self.lv_line, self.vo_a, self.vo_b
        rows = [
            _point_rows(self.po_K, self.po_R, self.po_t, self.po_pixel, p[self.po_point]),
            _line_rows(
                self.lo_Am, self.lo_Ad, self.lo_ends, self.lo_direction, d[lo], m[lo], cfg.angle_weight_alpha
            ),
            _point_line_rows(p[self.pl_point], d[pl], m[pl], self.pl_weight),
            _line_vp_rows(d[lv], vps[self.lv_vp], bases[self.lv_vp], self.lv_weight),
            _vp_ortho_rows(vps[a], vps[b], bases[a], bases[b]),
        ]
        residuals = [r for r, _ in rows]
        weights = []
        cost = 0.0
        for term, r in zip(self.terms, residuals):
            val, w = _loss_value_and_weight(term.loss, np.einsum("ki,ki->k", r, r), term.scale)
            cost += float(np.sum(val))
            weights.append(w)
        (_, point_jac), (_, line_jac), (_, pl_jac), (_, lv_jac), (_, vo_jac) = rows

        def jacobians():
            dd, dm = partials()
            return [point_jac(), line_jac(dd[lo], dm[lo]), pl_jac(dd[pl], dm[pl]), lv_jac(dd[lv]), vo_jac()]

        return _Evaluation(residuals, weights, cost, jacobians)

    def normal_equations(self, ev: _Evaluation) -> _NormalEquations:
        """The Jacobian stage: the normal equations of an evaluation."""
        n_lines, n_slots = self.slot_cols.shape
        A, g_lines, Bt, g_reduced, C = ([np.zeros(0)] for _ in _Layout._fields)
        for r, w, (J_line, J_reduced) in zip(ev.residuals, ev.weights, ev.jacobians()):
            sw = np.sqrt(w)[:, None]
            rw = sw * r
            Jw = [sw[:, :, None] * J for J in J_reduced]
            if J_line is not None:
                Jl = sw[:, :, None] * J_line
                A.append((Jl.transpose(0, 2, 1) @ Jl).ravel())
                g_lines.append(np.einsum("kri,kr->ki", Jl, rw).ravel())
                Bt += [(Ji.transpose(0, 2, 1) @ Jl).ravel() for Ji in Jw]
            for Ji in Jw:
                g_reduced.append(np.einsum("kri,kr->ki", Ji, rw).ravel())
                C += [(Ji.transpose(0, 2, 1) @ Jj).ravel() for Jj in Jw]
        # one sum per matrix, each contribution added in the layout's order
        # (bincount gives integers when it has no contribution at all)
        shapes = ((n_lines, 4, 4), (n_lines, 4), (n_lines, n_slots, 4), (self.n_reduced,),
                  (self.n_reduced, self.n_reduced))
        A, g_lines, Bt, g_reduced, C = (
            np.bincount(index, np.concatenate(values), minlength=math.prod(shape))
            .astype(np.float64, copy=False)
            .reshape(shape)
            for index, values, shape in zip(self.layout, (A, g_lines, Bt, g_reduced, C), shapes)
        )
        return _NormalEquations(
            A, Bt, C, g_lines, g_reduced, ev.cost, self.slot_cols, self.np_, self.schur
        )

    def raw_residuals_and_jacobian(self, state: _State):
        """Unweighted stacked residual vector and dense Jacobian (for checks)."""
        rows = []
        jrows = []
        ev = self.residuals(state)
        for term, r, (J_line, J_reduced) in zip(self.terms, ev.residuals, ev.jacobians()):
            K, k = r.shape
            # reduced columns past the points move behind the line unknowns
            blocks = [
                (np.where(cols < self.np_, cols, cols + self.nl - self.np_), J)
                for cols, J in zip(term.cols, J_reduced)
            ]
            if J_line is not None:
                blocks.append((self.np_ + 4 * term.lines[:, None] + _DIAG4, J_line))
            Jd = np.zeros((K, k, self.nv))
            for cols, J in blocks:
                Jd[np.arange(K)[:, None, None], np.arange(k)[None, :, None], cols[:, None, :]] = J
            rows.append(r.ravel())
            jrows.append(Jd.reshape(K * k, self.nv))
        return np.concatenate(rows), np.vstack(jrows)


def optimize(problem: JointProblem, config: OptimizeConfig = OptimizeConfig()) -> OptimizeResult:
    """Run Levenberg-Marquardt on a joint problem.  Cameras are fixed."""
    lin = _Linearizer(problem, config)
    state = _State.initial(problem)
    evaluation = lin.residuals(state)
    cost = evaluation.cost
    if lin.nv == 0:
        return OptimizeResult(state.points, state.lines, state.vps, cost, cost, 0, True, "empty")

    damping = _DAMPING_INIT
    initial_cost = cost
    termination = "max_iterations"
    converged = False
    iters = 0

    for iters in range(1, config.max_iterations + 1):
        # Jacobians only for a state that starts an iteration; a trial is
        # priced by its residual stage alone
        ne = lin.normal_equations(evaluation)
        if np.max(np.abs(ne.gradient())) < _GTOL:
            termination, converged = "gradient", True
            break
        while damping <= _DAMPING_MAX:
            try:
                delta = ne.step(damping)
            except np.linalg.LinAlgError:
                damping *= _DAMPING_UP
                continue
            candidate = state.retract(delta, lin.offsets)
            try:
                trial = lin.residuals(candidate)
            except FloatingPointError:
                trial = None
            if trial is not None and trial.cost < cost:
                break
            damping *= _DAMPING_UP
        else:
            termination = "damping_exhausted"
            break
        rel_drop = (cost - trial.cost) / max(cost, 1e-30)
        state, evaluation, cost = candidate, trial, trial.cost
        damping = max(1e-12, damping * _DAMPING_DOWN)
        if rel_drop < _FTOL:
            termination, converged = "cost", True
            break

    return OptimizeResult(
        state.points, state.lines, state.vps, initial_cost, cost, iters, converged, termination
    )


# ---------------------------------------------------------------------------
# support helpers around the optimization
# ---------------------------------------------------------------------------


def segment_on_line_from_supports(
    lines: PluckerLine | list[PluckerLine],
    rays: np.ndarray,
    views: list[CameraView],
    owner: np.ndarray | None = None,
) -> Segment3D | None | list[Segment3D | None]:
    """Clip each infinite line to an extent explained by its 2D supports.

    Support ``i`` is a detection's two endpoint rays ``rays[i]`` in
    normalized coordinates (``(n, 2, 3)``, rows of the pipeline's ray
    table), seen from ``views[i]``, and it belongs to line ``owner[i]``.
    Every ray is intersected (closest point) with its line in one array
    pass, with no BLAS call; each line's extent follows
    :func:`~linemap.geometry.trimmed_extent`, the same rule as the track
    refit.  Returns one segment, or None, per line; with one line and no
    ``owner``, every support is that line's and its segment or None is
    returned.
    """
    one = owner is None
    if one:
        lines, owner = [lines], np.zeros(len(views), dtype=np.intp)
    d = np.array([line.d for line in lines]).reshape(-1, 3)
    m = np.array([line.m for line in lines]).reshape(-1, 3)
    origin = cross_rows(d, m)  # each line's point closest to the world origin
    # one row per ray, each support's start ray then its end ray
    x = np.asarray(rays, dtype=np.float64).reshape(-1, 3)
    row = np.repeat(np.asarray(owner, dtype=np.intp), 2)
    # each distinct view's centre and R^T, stacked once
    distinct = {id(v): v for v in views}
    slot = dict(zip(distinct, range(len(distinct))))
    view = np.repeat(np.array([slot[id(v)] for v in views], dtype=np.intp), 2)
    center = np.array([v.camera_center for v in distinct.values()]).reshape(-1, 3)[view]
    Rt = np.array([v.R.T for v in distinct.values()]).reshape(-1, 3, 3)[view]
    xn = np.sqrt(dot_rows(x, x))
    short = xn < EPS
    ray = matvec_rows(Rt, x / np.where(short, 1.0, xn)[:, None])
    ray = ray / np.where(short, 1.0, np.sqrt(dot_rows(ray, ray)))[:, None]
    # the point of each line closest to each of its rays
    dl, ml = d[row], m[row]
    c = cross_rows(dl, ray)
    denom = dot_rows(c, c)
    hit = ~(short | (denom < EPS))
    foot = dot_rows(cross_rows(center, ray), c)[:, None] * dl - cross_rows(ml, cross_rows(ray, c))
    foot = foot / np.where(hit, denom, 1.0)[:, None]
    ts = dot_rows(foot - origin[row], dl)
    hit = np.flatnonzero(hit)
    ts = ts[hit][np.argsort(row[hit], kind="stable")]  # grouped by line
    bounds = np.concatenate([[0], np.cumsum(np.bincount(row[hit], minlength=len(lines)))])
    segments = []
    for k in range(len(lines)):
        extent = trimmed_extent(ts[bounds[k] : bounds[k + 1]])
        if extent is None:
            segments.append(None)
        else:
            lo, hi = extent
            segments.append(Segment3D(origin[k] + lo * d[k], origin[k] + hi * d[k]))
    return segments[0] if one else segments


def soft_point_line_weights(
    line_supports: list[list[tuple[int, int]]],
    det_points: dict[tuple[int, int], list[int]],
    min_weight: int = 3,
) -> list[tuple[int, int, float]]:
    """Count 2D point-segment co-occurrences between tracks.

    ``line_supports[li]`` lists ``(image, segment)`` supports of line track
    ``li``; ``det_points[(image, segment)]`` lists the point tracks on that
    segment, each counted once.  Returns ``(point_track, line_track,
    weight)`` with weight >= min_weight.
    """
    counts: dict[tuple[int, int], int] = {}
    for li, supports in enumerate(line_supports):
        for node in supports:
            for pt in set(det_points.get(node, ())):
                counts[(pt, li)] = counts.get((pt, li), 0) + 1
    return sorted((pt, li, float(c)) for (pt, li), c in counts.items() if c >= min_weight)


def soft_line_vp_weights(
    line_supports: list[list[tuple[int, int]]],
    vp_members: list[list[tuple[int, int]]],
    det_vp: dict[tuple[int, int], tuple[int, int]],
    min_weight: int = 3,
) -> list[tuple[int, int, float]]:
    """Count how many supports of each line track carry each VP track.

    ``det_vp[(image, segment)]`` is the segment's VP node ``(image, k)``;
    ``vp_members[vi]`` lists the nodes of VP track ``vi``, and no node is in
    two tracks.
    """
    track_of = {node: vi for vi, members in enumerate(vp_members) for node in members}
    out = []
    for li, supports in enumerate(line_supports):
        counts: dict[int, int] = {}
        for node in supports:
            vi = track_of.get(det_vp.get(node))
            if vi is not None:
                counts[vi] = counts.get(vi, 0) + 1
        out.extend((li, vi, float(c)) for vi, c in sorted(counts.items()) if c >= min_weight)
    return out


def extract_point_line_edges(
    points: np.ndarray,
    point_scales: np.ndarray,
    lines: list[PluckerLine],
    line_scales: np.ndarray,
    candidates: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Keep candidate incidences whose 3D distance is small vs. uncertainty.

    The uncertainty scale of a feature is its minimum depth over focal
    length across observations; an edge survives when the point-line
    distance is at most :data:`POINT_LINE_MAX_RATIO` times the smaller of
    the two scales.
    """
    if not candidates:
        return []
    pi, li = np.array(candidates, dtype=np.intp).T
    sigma = min_rows(np.asarray(point_scales, dtype=np.float64)[pi], np.asarray(line_scales)[li])
    p = np.asarray(points, dtype=np.float64)[pi]
    d = np.array([line.d for line in lines])[li]
    # the foot of each point on its line: p + d x (m + d x p)
    foot = p + cross_rows(d, np.array([line.m for line in lines])[li] + cross_rows(d, p))
    dist = np.sqrt(dot_rows(p - foot, p - foot))
    keep = (sigma > 0) & (dist / np.where(sigma > 0, sigma, 1.0) <= POINT_LINE_MAX_RATIO)
    return sorted(zip(pi[keep].tolist(), li[keep].tolist()))


def extract_line_vp_edges(
    lines: list[PluckerLine],
    vps: np.ndarray,
    candidates: list[tuple[int, int]],
    max_angle_deg: float = 5.0,
) -> list[tuple[int, int]]:
    """Keep candidate line-VP pairs within an angular tolerance."""
    cos_min = math.cos(math.radians(max_angle_deg))
    if not candidates:
        return []
    li, vi = np.array(candidates, dtype=np.intp).T
    d = np.array([line.d for line in lines])[li]
    keep = np.abs(dot_rows(d, np.asarray(vps, dtype=np.float64)[vi])) >= cos_min
    return sorted(zip(li[keep].tolist(), vi[keep].tolist()))

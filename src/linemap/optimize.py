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

The solver is a dense Levenberg-Marquardt with multiplicative diagonal
damping and iterative reweighting for the robust losses.  Each state is
evaluated once: a trial step builds its normal equations, and when the step
is accepted they carry over to the next iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EPS,
    CameraView,
    MinimalLineParam,
    PluckerLine,
    Segment2D,
    Segment3D,
    closest_point_line_to_line,
    cross3,
    normalized,
    point_line_distance_3d,
    quat_exp,
    quat_mul,
    quat_to_rotmat,
    skew,
    trimmed_extent,
)

_E1 = np.array([1.0, 0.0, 0.0])
_E2 = np.array([0.0, 1.0, 0.0])
_SKEW_E1 = skew(_E1)
_SKEW_E2 = skew(_E2)


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


@dataclass(frozen=True)
class OptimizeConfig:
    max_iterations: int = 100
    angle_weight_alpha: float = 10.0
    line_loss_scale: float = 0.25  # Cauchy, pixels
    assoc_loss_scale: float = 0.25  # Huber, scene units / radians-ish


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
# robust losses (act on the squared norm of a residual block)
# ---------------------------------------------------------------------------


def _loss_value_and_weight(kind: str, s: float, scale: float) -> tuple[float, float]:
    c2 = scale * scale
    if kind == "squared":
        return s, 1.0
    if kind == "cauchy":
        return c2 * math.log1p(s / c2), 1.0 / (1.0 + s / c2)
    if kind == "huber":
        if s <= c2:
            return s, 1.0
        r = math.sqrt(s)
        return 2.0 * scale * r - c2, scale / r
    raise ValueError(f"unknown loss {kind!r}")


# ---------------------------------------------------------------------------
# state and retraction
# ---------------------------------------------------------------------------


class _State:
    def __init__(self, points, lines, vps):
        self.points = np.array(points, dtype=np.float64).reshape(-1, 3)
        self.lines = list(lines)
        self.vps = np.array(vps, dtype=np.float64).reshape(-1, 3)
        for i in range(len(self.vps)):
            self.vps[i] = normalized(self.vps[i])

    def vp_basis(self, i: int) -> np.ndarray:
        v = self.vps[i]
        seed = _E1 if abs(v[0]) < 0.9 else _E2
        b1 = normalized(cross3(v, seed))
        b2 = cross3(v, b1)
        return np.column_stack([b1, b2])

    def retract(self, delta: np.ndarray, offsets) -> "_State":
        np_, nl, _ = offsets
        lines = []
        for j, par in enumerate(self.lines):
            d = delta[np_ + 4 * j : np_ + 4 * j + 4]
            q = quat_mul(par.q, quat_exp(d[:3]))
            c, s = math.cos(d[3]), math.sin(d[3])
            w = np.array([par.w[0] * c - par.w[1] * s, par.w[0] * s + par.w[1] * c])
            lines.append(MinimalLineParam(q, w))
        # moved VPs go in unnormalised: __init__ normalises each one once
        vps = [
            v + self.vp_basis(k) @ delta[nl + 2 * k : nl + 2 * k + 2]
            for k, v in enumerate(self.vps)
        ]
        return _State(self.points + delta[:np_].reshape(-1, 3), lines, vps)


def _line_geometry(par: MinimalLineParam):
    """Plucker pair of a minimal parameterization plus local-coordinate partials."""
    U = quat_to_rotmat(par.q)
    w1, w2 = float(par.w[0]), float(par.w[1])
    if abs(w1) < 1e-12:
        raise FloatingPointError("line drifted to infinity during optimization")
    rho = w2 / w1
    d = U[:, 0]
    u2 = U[:, 1]
    m = rho * u2
    dd_dr = -U @ _SKEW_E1  # 3x3, columns = rotation tangent directions
    du2_dr = -U @ _SKEW_E2
    dm = np.zeros((3, 4))
    dm[:, :3] = rho * du2_dr
    dm[:, 3] = u2 / (w1 * w1)
    dd = np.zeros((3, 4))
    dd[:, :3] = dd_dr
    return d, m, dd, dm


# ---------------------------------------------------------------------------
# residual blocks
# ---------------------------------------------------------------------------


def _project_jacobian(view: CameraView, X: np.ndarray):
    """Pixel position and its 2x3 Jacobian w.r.t. the camera-frame point."""
    hom = view.K @ X
    z = hom[2]
    pix = hom[:2] / z
    J = (view.K[:2, :] * z - np.outer(hom[:2], view.K[2, :])) / (z * z)
    return pix, J


def _point_block(state, view, pi, pixel):
    X = view.R @ state.points[pi] + view.t
    if X[2] <= EPS:
        # behind the camera: keep a large finite residual, zero slope
        return np.array([1e6, 1e6]), np.zeros((2, 3))
    pix, Jx = _project_jacobian(view, X)
    return pix - pixel, Jx @ view.R


def _line_block(geom, seg: Segment2D, alpha: float, line_map):
    d, m, dd, dm = geom
    A_m, A_d = line_map
    l = A_m @ m + A_d @ d
    Jl = A_m @ dm + A_d @ dd  # 3x4
    n = math.hypot(l[0], l[1])
    if n < EPS:
        return np.array([1e6, 1e6]), np.zeros((2, 4))
    dn = np.array([l[0] / n, l[1] / n, 0.0])

    o = seg.direction
    g = l[0] * o[1] - l[1] * o[0]
    c_raw = g / n
    cosphi = abs(c_raw)
    wa = math.exp(alpha * (1.0 - cosphi))
    dg = np.array([o[1], -o[0], 0.0])
    dcraw = dg / n - c_raw * dn / n
    dcos = math.copysign(1.0, c_raw) * dcraw if cosphi > EPS else np.zeros(3)
    dwa = -alpha * wa * dcos

    res = np.empty(2)
    J = np.empty((2, 4))
    for row, p in enumerate((seg.start, seg.end)):
        x = np.array([p[0], p[1], 1.0])
        e = float(l @ x) / n
        de = x / n - e * dn / n
        res[row] = wa * e
        J[row] = (wa * de + e * dwa) @ Jl
    return res, J


def _point_line_block(geom, p, weight):
    d, m, dd, dm = geom
    e = -cross3(d, m) - cross3(d, cross3(d, p))
    dist = np.linalg.norm(e)
    if dist < 1e-12:
        return np.zeros(1), np.zeros((1, 3)), np.zeros((1, 4))
    ehat = e / dist
    de_dp = np.eye(3) - np.outer(d, d)
    de_dd = skew(m) + skew(cross3(d, p)) + skew(d) @ skew(p)
    de_dm = -skew(d)
    Jp = weight * (ehat @ de_dp)[None, :]
    Jl = weight * (ehat @ (de_dd @ dd + de_dm @ dm))[None, :]
    return np.array([weight * dist]), Jp, Jl


def _line_vp_block(geom, v, weight, basis):
    d, _, dd, _ = geom
    e = cross3(d, v)
    nrm = np.linalg.norm(e)
    if nrm < 1e-12:
        return np.zeros(1), np.zeros((1, 4)), np.zeros((1, 2))
    ehat = e / nrm
    de_dd = -skew(v)
    de_dv = skew(d)
    Jl = weight * (ehat @ (de_dd @ dd))[None, :]
    Jv = weight * (ehat @ (de_dv @ basis))[None, :]
    return np.array([weight * nrm]), Jl, Jv


def _vp_ortho_block(state, a, b, basis_a, basis_b):
    va, vb = state.vps[a], state.vps[b]
    r = float(va @ vb)
    Ja = (vb @ basis_a)[None, :]
    Jb = (va @ basis_b)[None, :]
    return np.array([r]), Ja, Jb


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


class _Linearizer:
    def __init__(self, problem: JointProblem, config: OptimizeConfig):
        self.problem = problem
        self.config = config
        self.np_ = 3 * len(problem.points)
        self.nl = self.np_ + 4 * len(problem.lines)
        self.nv = self.nl + 2 * len(problem.vps)
        self.offsets = (self.np_, self.nl, self.nv)

    def blocks(self, state: _State):
        """Yield (residual, loss kind, scale, [(col offset, J block), ...])."""
        p = self.problem
        cfg = self.config
        for pi, img, pixel in p.point_obs:
            r, J = _point_block(state, p.views[img], pi, pixel)
            yield r, "squared", 1.0, [(3 * pi, J)]
        geoms = [_line_geometry(par) for par in state.lines]
        for li, img, seg in p.line_obs:
            r, J = _line_block(geoms[li], seg, cfg.angle_weight_alpha, p.views[img].line_map)
            yield r, "cauchy", cfg.line_loss_scale, [(self.np_ + 4 * li, J)]
        for pi, li, w in p.point_line:
            r, Jp, Jl = _point_line_block(geoms[li], state.points[pi], w)
            yield r, "huber", cfg.assoc_loss_scale, [(3 * pi, Jp), (self.np_ + 4 * li, Jl)]
        bases = [state.vp_basis(k) for k in range(len(state.vps))]
        for li, vi, w in p.line_vp:
            r, Jl, Jv = _line_vp_block(geoms[li], state.vps[vi], w, bases[vi])
            yield r, "huber", cfg.assoc_loss_scale, [
                (self.np_ + 4 * li, Jl),
                (self.nl + 2 * vi, Jv),
            ]
        for a, b in p.vp_ortho:
            r, Ja, Jb = _vp_ortho_block(state, a, b, bases[a], bases[b])
            yield r, "squared", 1.0, [(self.nl + 2 * a, Ja), (self.nl + 2 * b, Jb)]

    def normal_equations(self, state: _State):
        n = self.nv
        H = np.zeros((n, n))
        g = np.zeros(n)
        cost = 0.0
        for r, kind, scale, blocks in self.blocks(state):
            s = float(r @ r)
            val, w = _loss_value_and_weight(kind, s, scale)
            cost += val
            sw = math.sqrt(w)
            rw = sw * r
            jblocks = [(off, sw * J) for off, J in blocks]
            for off_i, Ji in jblocks:
                di = Ji.shape[1]
                g[off_i : off_i + di] += Ji.T @ rw
                for off_j, Jj in jblocks:
                    dj = Jj.shape[1]
                    H[off_i : off_i + di, off_j : off_j + dj] += Ji.T @ Jj
        return H, g, cost

    def raw_residuals_and_jacobian(self, state: _State):
        """Unweighted stacked residual vector and dense Jacobian (for checks)."""
        rows = []
        jrows = []
        for r, _, _, blocks in self.blocks(state):
            rows.append(r)
            Jrow = np.zeros((len(r), self.nv))
            for off, J in blocks:
                Jrow[:, off : off + J.shape[1]] = J
            jrows.append(Jrow)
        if not rows:
            return np.zeros(0), np.zeros((0, self.nv))
        return np.concatenate(rows), np.vstack(jrows)


def optimize(problem: JointProblem, config: OptimizeConfig = OptimizeConfig()) -> OptimizeResult:
    """Run Levenberg-Marquardt on a joint problem.  Cameras are fixed."""
    lin = _Linearizer(problem, config)
    state = _State(problem.points, problem.lines, problem.vps)
    H, g, cost = lin.normal_equations(state)
    if lin.nv == 0:
        return OptimizeResult(state.points, state.lines, state.vps, cost, cost, 0, True, "empty")

    damping = _DAMPING_INIT
    initial_cost = cost
    termination = "max_iterations"
    converged = False
    iters = 0

    for iters in range(1, config.max_iterations + 1):
        if np.max(np.abs(g)) < _GTOL:
            termination, converged = "gradient", True
            break
        D = np.diag(H)
        floor = 1e-12 * max(1.0, D.max())
        while damping <= _DAMPING_MAX:
            try:
                delta = np.linalg.solve(H + np.diag(damping * np.maximum(D, floor)), -g)
            except np.linalg.LinAlgError:
                damping *= _DAMPING_UP
                continue
            candidate = state.retract(delta, lin.offsets)
            try:
                trial = lin.normal_equations(candidate)
            except FloatingPointError:
                trial = None
            if trial is not None and trial[2] < cost:
                break
            damping *= _DAMPING_UP
        else:
            termination = "damping_exhausted"
            break
        H, g, new_cost = trial
        rel_drop = (cost - new_cost) / max(cost, 1e-30)
        state, cost = candidate, new_cost
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
    line: PluckerLine,
    supports: list[tuple[tuple[np.ndarray, np.ndarray], CameraView]],
) -> Segment3D | None:
    """Clip an infinite line to an extent explained by its 2D supports.

    Each support is a detection's two endpoint rays, in normalized
    coordinates, with its view.  Every ray is intersected (closest-point)
    with the line; the extent follows
    :func:`~linemap.geometry.trimmed_extent`, the same rule as the track
    refit.
    """
    origin = line.closest_point_to_origin()
    ts = []
    for rays, view in supports:
        for x in rays:
            try:
                foot = closest_point_line_to_line(line, view.world_ray(x))
            except ValueError:
                continue
            ts.append(float((foot - origin) @ line.d))
    extent = trimmed_extent(ts)
    if extent is None:
        return None
    lo, hi = extent
    return Segment3D(origin + lo * line.d, origin + hi * line.d)


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
    max_ratio: float = 2.0,
) -> list[tuple[int, int]]:
    """Keep candidate incidences whose 3D distance is small vs. uncertainty.

    The uncertainty scale of a feature is its minimum depth over focal
    length across observations; an edge survives when the point-line
    distance is at most ``max_ratio`` times the smaller of the two scales.
    """
    out = []
    for pi, li in candidates:
        sigma = min(float(point_scales[pi]), float(line_scales[li]))
        if sigma <= 0:
            continue
        if point_line_distance_3d(points[pi], lines[li]) / sigma <= max_ratio:
            out.append((pi, li))
    return sorted(out)


def extract_line_vp_edges(
    lines: list[PluckerLine],
    vps: np.ndarray,
    candidates: list[tuple[int, int]],
    max_angle_deg: float = 5.0,
) -> list[tuple[int, int]]:
    """Keep candidate line-VP pairs within an angular tolerance."""
    cos_min = math.cos(math.radians(max_angle_deg))
    out = []
    for li, vi in candidates:
        if abs(float(lines[li].d @ vps[vi])) >= cos_min:
            out.append((li, vi))
    return sorted(out)

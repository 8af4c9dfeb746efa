"""Shared synthetic two-view fixtures for the test suite."""

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from linemap import association
from linemap.config import PipelineConfig
from linemap.geometry import (
    EPS,
    CameraView,
    PluckerLine,
    Segment2D,
    Segment3D,
    closest_point_line_to_line,
    cross3,
    cross3_floats,
    distinct_index_pairs,
    dot3,
    matvec3,
    norm3,
    normalized,
    project_segment,
    quat_to_rotmat,
    relative_pose,
    skew,
    stack_segments_2d,
    trimmed_extent,
)
from linemap.metrics import min_distance_to_segments, sample_segments
from linemap.optimize import ASSOC_LOSS_SCALE, _loss_value_and_weight
from linemap.scoring import normalize_distance
from linemap.triangulation import (
    CheiralityError,
    DegenerateTriangulationError,
    FullyDegenerateError,
    Poses,
    RayPlaneForm,
    TriangulationError,
    WeaklyDegenerateError,
    match_rows,
)


def intrinsics(f=600.0, cx=320.0, cy=240.0):
    return np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])


def look_at_rotation(center, target, up=(0.0, -1.0, 0.0)):
    """World-to-camera rotation for a camera at ``center`` looking at ``target``."""
    z = normalized(np.asarray(target, float) - np.asarray(center, float))
    up = np.asarray(up, float)
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(np.array([1.0, 0.0, 0.0]), z)
    x = normalized(x)
    y = np.cross(z, x)
    return np.stack([x, y, z])


def make_view(center, target=(0.0, 0.0, 0.0), f=600.0, width=640, height=480):
    center = np.asarray(center, float)
    R = look_at_rotation(center, target)
    return CameraView(intrinsics(f, width / 2.0, height / 2.0), R, -R @ center, width, height)


def identity_view(f=600.0, width=640, height=480):
    return CameraView(intrinsics(f, width / 2.0, height / 2.0), np.eye(3), np.zeros(3), width, height)


def endpoint_rays(seg, view):
    """A detection's endpoint rays in normalized coordinates, as in the pipeline's ray table."""
    return view.pixel_to_normalized(seg.start), view.pixel_to_normalized(seg.end)


def float_rays(seg, view):
    """:func:`endpoint_rays` as Python floats, as in the pipeline's float ray table."""
    return tuple(tuple(x.tolist()) for x in endpoint_rays(seg, view))


def match_form(ref_view, ref_rays, pose, match_rays):
    """The ray-plane form of one match, the one row of a block; None if the
    matched rays coincide, so that the match has no plane.

    ``pose`` is :func:`relative_pose` of the reference and matched views;
    the rays are 3-sequences.
    """
    fields = (*pose, *ref_rays, *match_rays)  # R, t, x1, x2, y1, y2
    rows = match_rows(ref_view, *(np.array([v], dtype=np.float64) for v in fields))
    return rows.form(0) if rows.plane[0] else None


def two_view(ref_seg, ref_view, match_seg, match_view):
    """The ray-plane form of one match, built as the pipeline builds it."""
    return match_form(
        ref_view,
        float_rays(ref_seg, ref_view),
        relative_pose(ref_view, match_view),
        float_rays(match_seg, match_view),
    )


def visible(view, p, margin=0.0):
    try:
        px = view.project_point(p)
    except ValueError:
        return False
    return (
        margin <= px[0] <= view.width - margin and margin <= px[1] <= view.height - margin
    )


def random_two_view_segment(rng, min_plane_angle_deg=3.0, max_tries=200):
    """A random well-conditioned two-view configuration with one GT segment.

    Returns (ref_view, match_view, gt_segment, ref_seg2d, match_seg2d) with
    both endpoint rays at least ``min_plane_angle_deg`` from the plane that
    the matched segment back-projects to.
    """
    for _ in range(max_tries):
        c1 = normalized(rng.normal(size=3)) * rng.uniform(2.5, 4.0)
        c2 = normalized(rng.normal(size=3)) * rng.uniform(2.5, 4.0)
        if np.linalg.norm(c1 - c2) < 1.0:
            continue
        ref = make_view(c1)
        match = make_view(c2)
        a = rng.uniform(-0.8, 0.8, size=3)
        b = rng.uniform(-0.8, 0.8, size=3)
        if np.linalg.norm(b - a) < 0.4:
            continue
        gt = Segment3D(a, b)
        if not all(visible(v, p, margin=5) for v in (ref, match) for p in (a, b)):
            continue
        # reject configurations close to the triangulation degeneracy
        n = np.cross(match.R @ a + match.t, match.R @ b + match.t)
        n = n / np.linalg.norm(n)
        ok = True
        for p in (a, b):
            ray = match.R @ normalized(p - c1)  # ref endpoint ray in match coordinates
            s = abs(float(ray @ n))
            if np.degrees(np.arcsin(min(1.0, s))) < min_plane_angle_deg:
                ok = False
        if not ok:
            continue
        return ref, match, gt, project_segment(gt, ref), project_segment(gt, match)
    raise RuntimeError("failed to sample a two-view configuration")


def weak_degenerate_pair(rng, angle_lo_deg=0.3, angle_hi_deg=0.45, max_tries=100):
    """Two-view pair where exactly one reference endpoint ray is degenerate.

    The reference camera sits at the origin, the matched camera at (1,0,0).
    The matched segment back-projects to a plane through both 3D endpoints
    and the matched center; the far endpoint's ray is placed within the
    requested angle band of that plane, while the near endpoint's angle is
    larger by the endpoint distance ratio (~4x) and stays non-degenerate.

    The plane is chosen in closed form from the pencil of planes through the
    matched center and the far endpoint, then the near endpoint is picked
    inside that plane at the desired depth.
    """
    ref = identity_view()
    match = CameraView(intrinsics(), np.eye(3), np.array([-1.0, 0.0, 0.0]), 640, 480)
    M = np.array([1.0, 0.0, 0.0])

    for _ in range(max_tries):
        z_far = rng.uniform(13.0, 16.0)
        z_near = rng.uniform(2.8, 3.2)
        A0 = np.array([z_far * rng.uniform(-0.12, 0.12), z_far * rng.uniform(-0.09, 0.09), z_far])
        target = np.radians(rng.uniform(angle_lo_deg, angle_hi_deg))

        e1 = normalized(A0 - M)
        aux = np.array([0.0, 1.0, 0.0])
        w1 = normalized(np.cross(e1, aux))
        w2 = np.cross(e1, w1)
        a_hat = normalized(A0)
        c1, c2 = a_hat @ w1, a_hat @ w2
        rho = np.hypot(c1, c2)
        if rho < np.sin(target) * 1.5:
            continue
        phi = np.arctan2(c2, c1) + np.arccos(np.sin(target) / rho)
        n_hat = np.cos(phi) * w1 + np.sin(phi) * w2  # plane normal through M and A0

        if not (visible(ref, A0, 20) and visible(match, A0, 20)):
            continue

        # near endpoint: intersect a frustum ray from the reference center
        # with the plane; sin(angle of that ray to the plane) then equals
        # dist(center, plane) / |B|, i.e. ~|A0|/|B| times the far angle.
        found = None
        for px in rng.permutation(np.linspace(-0.35, 0.35, 15)):
            for py in rng.permutation(np.linspace(-0.25, 0.25, 9)):
                r = np.array([px, py, 1.0])
                denom = n_hat @ r
                if abs(denom) < 1e-9:
                    continue
                s = (n_hat @ M) / denom
                if not (2.2 <= s <= 4.5):
                    continue
                B = s * r
                if not (visible(ref, B, 20) and visible(match, B, 20)):
                    continue
                if np.linalg.norm(B - A0) < 6.0:
                    continue
                n_chk = np.cross(A0 - M, B - M)
                n_chk = n_chk / np.linalg.norm(n_chk)
                ang_far = np.degrees(np.arcsin(min(1.0, abs(normalized(A0) @ n_chk))))
                ang_near = np.degrees(np.arcsin(min(1.0, abs(normalized(B) @ n_chk))))
                if ang_far < 0.5 and ang_near > 1.15:
                    found = B
                    break
            if found is not None:
                break
        if found is None:
            continue
        gt = Segment3D(A0, found)
        return ref, match, gt, project_segment(gt, ref), project_segment(gt, match)
    raise RuntimeError("failed to construct a weakly degenerate pair")


# ---------------------------------------------------------------------------
# reference joint-refinement normal equations: one residual block at a time
# ---------------------------------------------------------------------------
#
# The per-block loop that ``linemap.optimize`` batches.  It scatters every
# block into a dense ``H`` in unknown order (points, lines, VPs), so the
# batched assembly can be checked against it entry by entry.

_SKEW_E1 = skew(np.array([1.0, 0.0, 0.0]))
_SKEW_E2 = skew(np.array([0.0, 1.0, 0.0]))


def _reference_loss(kind, s, scale):
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


def _reference_vp_basis(v):
    seed = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = normalized(cross3(v, seed))
    return np.column_stack([b1, cross3(v, b1)])


def _reference_line_geometry(par):
    U = quat_to_rotmat(par.q)
    w1, w2 = float(par.w[0]), float(par.w[1])
    rho = w2 / w1
    dm = np.zeros((3, 4))
    dm[:, :3] = rho * (-U @ _SKEW_E2)
    dm[:, 3] = U[:, 1] / (w1 * w1)
    dd = np.zeros((3, 4))
    dd[:, :3] = -U @ _SKEW_E1
    return U[:, 0], rho * U[:, 1], dd, dm


def _reference_point_block(view, X_world, pixel):
    X = view.R @ X_world + view.t
    if X[2] <= EPS:
        return np.array([1e6, 1e6]), np.zeros((2, 3))
    hom = view.K @ X
    z = hom[2]
    J = (view.K[:2, :] * z - np.outer(hom[:2], view.K[2, :])) / (z * z)
    return hom[:2] / z - pixel, J @ view.R


def _reference_line_block(geom, seg, alpha, line_map):
    d, m, dd, dm = geom
    A_m, A_d = line_map
    l = A_m @ m + A_d @ d
    Jl = A_m @ dm + A_d @ dd
    n = math.hypot(l[0], l[1])
    if n < EPS:
        return np.array([1e6, 1e6]), np.zeros((2, 4))
    dn = np.array([l[0] / n, l[1] / n, 0.0])
    o = seg.direction
    c_raw = (l[0] * o[1] - l[1] * o[0]) / n
    cosphi = abs(c_raw)
    wa = math.exp(alpha * (1.0 - cosphi))
    dcraw = np.array([o[1], -o[0], 0.0]) / n - c_raw * dn / n
    dcos = math.copysign(1.0, c_raw) * dcraw if cosphi > EPS else np.zeros(3)
    dwa = -alpha * wa * dcos
    res = np.empty(2)
    J = np.empty((2, 4))
    for row, p in enumerate((seg.start, seg.end)):
        x = np.array([p[0], p[1], 1.0])
        e = float(l @ x) / n
        res[row] = wa * e
        J[row] = (wa * (x / n - e * dn / n) + e * dwa) @ Jl
    return res, J


def _reference_point_line_block(geom, p, weight):
    d, m, dd, dm = geom
    e = -cross3(d, m) - cross3(d, cross3(d, p))
    dist = np.linalg.norm(e)
    if dist < 1e-12:
        return np.zeros(1), np.zeros((1, 3)), np.zeros((1, 4))
    ehat = e / dist
    de_dd = skew(m) + skew(cross3(d, p)) + skew(d) @ skew(p)
    Jp = weight * (ehat @ (np.eye(3) - np.outer(d, d)))[None, :]
    Jl = weight * (ehat @ (de_dd @ dd - skew(d) @ dm))[None, :]
    return np.array([weight * dist]), Jp, Jl


def _reference_line_vp_block(geom, v, weight, basis):
    d, _, dd, _ = geom
    e = cross3(d, v)
    nrm = np.linalg.norm(e)
    if nrm < 1e-12:
        return np.zeros(1), np.zeros((1, 4)), np.zeros((1, 2))
    ehat = e / nrm
    Jl = weight * (ehat @ (-skew(v) @ dd))[None, :]
    Jv = weight * (ehat @ (skew(d) @ basis))[None, :]
    return np.array([weight * nrm]), Jl, Jv


def reference_normal_equations(problem, config, points, lines, vps):
    """Dense ``H``, ``g`` and cost of a joint problem at the given unknowns.

    ``lines`` is a list of ``MinimalLineParam``; ``vps`` are unit directions.
    """
    np_ = 3 * len(points)
    nl = np_ + 4 * len(lines)
    n = nl + 2 * len(vps)
    geoms = [_reference_line_geometry(par) for par in lines]
    bases = [_reference_vp_basis(v) for v in vps]
    huber = ASSOC_LOSS_SCALE

    blocks = []  # (residual, loss kind, scale, [(column offset, J block), ...])
    for pi, img, pixel in problem.point_obs:
        r, J = _reference_point_block(problem.views[img], points[pi], pixel)
        blocks.append((r, "squared", 1.0, [(3 * pi, J)]))
    for li, img, seg in problem.line_obs:
        line_map = problem.views[img].line_map
        r, J = _reference_line_block(geoms[li], seg, config.angle_weight_alpha, line_map)
        blocks.append((r, "cauchy", config.line_loss_scale, [(np_ + 4 * li, J)]))
    for pi, li, w in problem.point_line:
        r, Jp, Jl = _reference_point_line_block(geoms[li], points[pi], w)
        blocks.append((r, "huber", huber, [(3 * pi, Jp), (np_ + 4 * li, Jl)]))
    for li, vi, w in problem.line_vp:
        r, Jl, Jv = _reference_line_vp_block(geoms[li], vps[vi], w, bases[vi])
        blocks.append((r, "huber", huber, [(np_ + 4 * li, Jl), (nl + 2 * vi, Jv)]))
    for a, b in problem.vp_ortho:
        r = np.array([float(vps[a] @ vps[b])])
        Ja, Jb = (vps[b] @ bases[a])[None, :], (vps[a] @ bases[b])[None, :]
        blocks.append((r, "squared", 1.0, [(nl + 2 * a, Ja), (nl + 2 * b, Jb)]))

    H = np.zeros((n, n))
    g = np.zeros(n)
    cost = 0.0
    for r, kind, scale, parts in blocks:
        val, w = _reference_loss(kind, float(r @ r), scale)
        cost += val
        sw = math.sqrt(w)
        for off_i, Ji in parts:
            di = Ji.shape[1]
            g[off_i : off_i + di] += (sw * Ji).T @ (sw * r)
            for off_j, Jj in parts:
                H[off_i : off_i + di, off_j : off_j + Jj.shape[1]] += (sw * Ji).T @ (sw * Jj)
    return H, g, cost


# The batched assembly and Schur step as one ``np.add.at`` scatter per term
# and matrix.  ``linemap.optimize`` sums the same contributions in the same
# order with one ``np.bincount`` per matrix, so its parts must equal these bit
# for bit.


def reference_scatter_normal_equations(lin, state):
    """``(A, Bt, C, g_lines, g_reduced, cost)`` of ``lin`` (an
    ``optimize._Linearizer``) at ``state``, one ``np.add.at`` per block."""
    n_lines, n_slots = lin.slot_cols.shape
    A = np.zeros((n_lines, 4, 4))
    Bt = np.zeros((n_lines, n_slots, 4))
    C = np.zeros((lin.n_reduced, lin.n_reduced))
    g_lines = np.zeros((n_lines, 4))
    g_reduced = np.zeros(lin.n_reduced)
    cost = 0.0
    ev = lin.residuals(state)
    for term, r, (J_line, J_reduced) in zip(lin.terms, ev.residuals, ev.jacobians()):
        val, w = _loss_value_and_weight(term.loss, np.einsum("ki,ki->k", r, r), term.scale)
        cost += float(np.sum(val))
        sw = np.sqrt(w)[:, None]
        rw = sw * r
        Jw = [sw[:, :, None] * J for J in J_reduced]
        if J_line is not None:
            Jl = sw[:, :, None] * J_line
            np.add.at(A, term.lines, Jl.transpose(0, 2, 1) @ Jl)
            np.add.at(g_lines, term.lines, np.einsum("kri,kr->ki", Jl, rw))
            for Ji in Jw:
                np.add.at(Bt, (term.lines[:, None], term.slots), Ji.transpose(0, 2, 1) @ Jl)
        for cols_i, Ji in zip(term.cols, Jw):
            np.add.at(g_reduced, cols_i, np.einsum("kri,kr->ki", Ji, rw))
            for cols_j, Jj in zip(term.cols, Jw):
                H_ij = Ji.transpose(0, 2, 1) @ Jj
                np.add.at(C, (cols_i[:, :, None], cols_j[:, None, :]), H_ij)
    return A, Bt, C, g_lines, g_reduced, cost


def reference_scatter_step(ne, damping):
    """The damped step of ``ne`` (``optimize._NormalEquations``), the Schur
    update scattered with ``np.add.at`` into an ``(n + 1)``-square matrix
    whose last row and column take the unused slots."""
    n = len(ne.C)
    diag_A = np.einsum("lii->li", ne.A)
    diag_C = np.diag(ne.C)
    floor = 1e-12 * max(1.0, np.concatenate([diag_C, diag_A.ravel()]).max(initial=0.0))
    A = ne.A.copy()
    A[:, np.arange(4), np.arange(4)] += damping * np.maximum(diag_A, floor)
    S = np.zeros((n + 1, n + 1))
    S[:n, :n] = ne.C
    S[np.arange(n), np.arange(n)] += damping * np.maximum(diag_C, floor)
    B = ne.Bt.transpose(0, 2, 1)
    Y = np.linalg.solve(A, np.concatenate([ne.g_lines[:, :, None], B], axis=2))
    BtY = np.einsum("lsi,lij->lsj", ne.Bt, Y)
    cols = ne.slot_cols
    np.add.at(S, (cols[:, :, None], cols[:, None, :]), -BtY[:, :, 1:])
    rhs = np.append(-ne.g_reduced, 0.0)
    np.add.at(rhs, cols, BtY[:, :, 0])
    x = np.append(np.linalg.solve(S[:n, :n], rhs[:n]), 0.0)
    rhs_lines = -ne.g_lines - np.einsum("lsi,ls->li", ne.Bt, x[cols])
    x_lines = np.linalg.solve(A, rhs_lines[:, :, None])[:, :, 0]
    p = ne.n_point_cols
    return np.concatenate([x[:p], x_lines.ravel(), x[p:n]])


# ---------------------------------------------------------------------------
# Reference length metrics
# ---------------------------------------------------------------------------
#
# The per-threshold, per-track evaluation that ``linemap.metrics.evaluate_segments``
# does in one pass: each threshold samples both sides again, and each track is
# sampled and measured on its own.


def _reference_covered_fraction(source, target, tau, spacing):
    pts, w = sample_segments(source, spacing)
    if len(pts) == 0:
        return 0.0, 0.0
    d = min_distance_to_segments(pts, target)
    return float(w[d <= tau].sum()), float(w.sum())


def reference_length_recall(gt, pred, tau, spacing):
    covered, total = _reference_covered_fraction(gt, pred, tau, spacing)
    return covered / total if total > 0 else 0.0


def reference_length_precision(pred, gt, tau, spacing):
    covered, total = _reference_covered_fraction(pred, gt, tau, spacing)
    return covered / total if total > 0 else 0.0


def reference_inlier_percentage(pred, gt, tau, spacing, aggregate="mean"):
    if not pred:
        return 0.0
    d = np.empty(len(pred))
    for i, seg in enumerate(pred):
        pts, _ = sample_segments([seg], spacing)
        dist = min_distance_to_segments(pts, gt)
        d[i] = dist.mean() if aggregate == "mean" else dist.max()
    return 100.0 * float((d <= tau).mean())


# ---------------------------------------------------------------------------
# Reference pair scores
# ---------------------------------------------------------------------------
#
# Both pair scores as the minimum over every component, with the pair
# projected into both views before any component is read, and every distance
# and scale computed fresh from the segments and ``view.K``, ``view.R`` and
# ``view.t``, one pair at a time.  ``linemap.scoring`` returns 0 as soon as the
# 3D components give 0, stacks each pass's segments, their own-view
# projections and scales into one array block and scores its pairs as rows of
# elementwise arithmetic, none of which must change a bit.  Projections,
# depths and distances are computed here on Python floats, each dot product
# summed as ``(a0*b0 + a1*b1) + a2*b2``.


def _reference_dot3(a, b):
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


# The raw distances, on float records built here from a segment's endpoints.
# A 2D record is homogeneous, so one dot product serves 2D and 3D segments
# alike.  One projection of a segment's endpoints along another (``_along``)
# serves both the overlap ratio and the inner-segment distance.


class FloatRecord(NamedTuple):
    start: tuple
    end: tuple
    direction: tuple  # unit length; a 2D record's third term is 0.0
    length: float
    line: tuple | None  # a 2D record's a*x + b*y + c = 0 with |(a, b)| = 1


def reference_planar_record(x1, y1, x2, y2):
    """The 2D segment ``(x1, y1)``-``(x2, y2)`` as a homogeneous :class:`FloatRecord`
    on Python floats; None when shorter than EPS.  The line's first term is
    ``y1 - y2``, so a level segment's is +0.0."""
    dx, dy = x2 - x1, y2 - y1
    n = math.hypot(dx, dy)
    if n < EPS:
        return None
    line = ((y1 - y2) / n, dx / n, (x1 * y2 - x2 * y1) / n)
    return FloatRecord((x1, y1, 1.0), (x2, y2, 1.0), (dx / n, dy / n, 0.0), n, line)


def _record(seg):
    """A :class:`Segment2D` or :class:`Segment3D` as a :class:`FloatRecord`."""
    start, end = seg.start.tolist(), seg.end.tolist()
    if len(start) == 2:
        record = reference_planar_record(*start, *end)
        if record is None:
            raise ValueError("segment shorter than EPS")
        return record
    d = [e - s for s, e in zip(start, end)]
    n = math.sqrt(_reference_dot3(d, d))
    return FloatRecord(start, end, tuple(x / n for x in d), n, None)


def _angle(a, b):
    return math.degrees(math.acos(min(1.0, abs(_reference_dot3(a.direction, b.direction)))))


def angular_distance(a, b):
    """Acute angle between segment directions (2D or 3D), in degrees."""
    return _angle(_record(a), _record(b))


def perpendicular_distance_2d(a, b):
    """Orthogonal endpoint distance, averaged over both directions.

    Each direction takes the larger distance of one segment's endpoints to
    the other's supporting line.
    """
    fa, fb = _record(a), _record(b)
    return 0.5 * (
        max(abs(_reference_dot3(fb.line, fa.start)), abs(_reference_dot3(fb.line, fa.end)))
        + max(abs(_reference_dot3(fa.line, fb.start)), abs(_reference_dot3(fa.line, fb.end)))
    )


def _along(a, b):
    """Where ``a``'s start and end fall along ``b``, as distances from ``b.start``."""
    (o0, o1, o2), d = b.start, b.direction
    (s0, s1, s2), (e0, e1, e2) = a.start, a.end
    return (
        _reference_dot3((s0 - o0, s1 - o1, s2 - o2), d),
        _reference_dot3((e0 - o0, e1 - o1, e2 - o2), d),
    )


def _overlap(a, b):
    ta, tb = _along(a, b)
    inter = min(max(ta, tb), b.length) - max(min(ta, tb), 0.0)
    return max(0.0, inter) / b.length


def overlap_ratio(a, b):
    """Fraction of ``b`` covered by the orthogonal projection of ``a`` (2D or 3D)."""
    return _overlap(_record(a), _record(b))


def mutual_overlap(a, b):
    fa, fb = _record(a), _record(b)
    return min(_overlap(fa, fb), _overlap(fb, fa))


def _dist3(p, q):
    d = (p[0] - q[0], p[1] - q[1], p[2] - q[2])
    return math.sqrt(_reference_dot3(d, d))


def _clipped_feet(a, b):
    """Feet of ``a``'s endpoints on ``b``'s line, clipped to ``b``'s extent."""
    (o0, o1, o2), (d0, d1, d2) = b.start, b.direction
    feet = []
    for t in _along(a, b):
        s = min(max(t, 0.0), b.length)
        feet.append((o0 + s * d0, o1 + s * d1, o2 + s * d2))
    return feet


def innerseg_distance(a, b):
    """Distance between the mutually clipped inner segments.

    Each segment's endpoints are orthogonally projected onto the other's
    supporting line and clipped to its extent; the result is one inner
    segment per line and the distance is the larger of the two aligned
    endpoint distances.  For collinear disjoint segments both inner segments
    collapse and the value equals the gap.
    """
    fa, fb = _record(a), _record(b)
    on_b = _clipped_feet(fa, fb)
    on_a = _clipped_feet(fb, fa)
    if _reference_dot3(fa.direction, fb.direction) < 0:
        on_a.reverse()
    return max(_dist3(on_a[0], on_b[0]), _dist3(on_a[1], on_b[1]))


def _reference_project(seg, view):
    """``seg`` in pixels from ``view.K``, ``view.R`` and ``view.t``; None behind
    the camera plane or shorter than EPS px."""
    rows = (view.K @ view.R).tolist()
    kt = (view.K @ view.t).tolist()
    ends = []
    for p in (seg.start.tolist(), seg.end.tolist()):
        u, v, w = (_reference_dot3(r, p) + k for r, k in zip(rows, kt))
        if w <= EPS:
            return None
        ends.append([u / w, v / w])
    (x1, y1), (x2, y2) = ends
    if math.hypot(x2 - x1, y2 - y1) < EPS:
        return None
    return Segment2D(ends[0], ends[1])


def _reference_projections(a, b, view_a, view_b):
    pairs = [(_reference_project(a, v), _reference_project(b, v)) for v in (view_a, view_b)]
    return None if any(p is None for pair in pairs for p in pair) else pairs


def _reference_binary_overlap(ratio, tau):
    return 1.0 if ratio >= tau else 0.0


def _reference_image_components(pairs, config):
    (pa, pb), (qa, qb) = pairs
    return [
        normalize_distance(
            0.5 * (angular_distance(pa, pb) + angular_distance(qa, qb)), config.tau_angle_2d
        ),
        normalize_distance(
            0.5 * (perpendicular_distance_2d(pa, pb) + perpendicular_distance_2d(qa, qb)),
            config.tau_perp_2d,
        ),
    ]


def _reference_dist3(p, q):
    d = (p - q).tolist()
    return math.sqrt(_reference_dot3(d, d))


def _reference_perspective(a, b, view):
    # one direction: the endpoint distances scaled by a's endpoint ray lengths
    c = view.camera_center
    return max(
        _reference_dist3(a.start, b.start) / _reference_dist3(a.start, c),
        _reference_dist3(a.end, b.end) / _reference_dist3(a.end, c),
    )


def _reference_innerseg_scale(seg, view):
    # midpoint depth over the mean focal magnitude
    depth = _reference_dot3(view.R[2].tolist(), (0.5 * (seg.start + seg.end)).tolist())
    focal = 0.5 * (abs(float(view.K[0, 0])) + abs(float(view.K[1, 1])))
    return (depth + float(view.t[2])) / focal


def reference_selection_pair_score(a, b, ref_view, view_a, view_b, config=PipelineConfig()):
    pairs = _reference_projections(a, b, view_a, view_b)
    if pairs is None:
        return 0.0
    perspective = 0.5 * (
        _reference_perspective(a, b, ref_view) + _reference_perspective(b, a, ref_view)
    )
    return min(
        normalize_distance(angular_distance(a, b), config.tau_angle_3d),
        normalize_distance(perspective, config.tau_perspective),
        *_reference_image_components(pairs, config),
    )


def reference_track_pair_score(a, view_a, b, view_b, config=PipelineConfig()):
    scale = min(_reference_innerseg_scale(a, view_a), _reference_innerseg_scale(b, view_b))
    if scale <= 0:
        return 0.0
    pairs = _reference_projections(a, b, view_a, view_b)
    if pairs is None:
        return 0.0
    return min(
        normalize_distance(angular_distance(a, b), config.tau_angle_3d),
        _reference_binary_overlap(mutual_overlap(a, b), config.tau_overlap),
        normalize_distance(innerseg_distance(a, b) / scale, config.tau_innerseg),
        *_reference_image_components(pairs, config),
        _reference_binary_overlap(
            min(mutual_overlap(pa, pb) for pa, pb in pairs), config.tau_overlap
        ),
    )


# ---------------------------------------------------------------------------
# Reference two-view triangulation
# ---------------------------------------------------------------------------
#
# Two oracles for ``linemap.triangulation``'s match blocks.  The float oracle
# runs one match at a time on Python floats, every 3-vector product summed
# term by term through ``geometry.dot3``: a block row must equal it bit for
# bit, outcome for outcome.  The numpy oracle below it hands each product to
# numpy's ``@``, so it agrees to rounding.


def float_ray_plane_form(ref_view, ref_rays, pose, match_rays):
    """The form of one match on Python floats; ``None`` if the matched rays coincide."""
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
    return RayPlaneForm(Poses.of(ref_view, 1), R, t, x1, x2, Rx1, Rx2, y1, y2, n, a, dot3(n, t))


def float_check_degeneracy(ray_dir, plane_normal, min_angle_deg):
    scale = norm3(ray_dir) * norm3(plane_normal)
    if scale == 0.0:
        return True
    s = abs(dot3(ray_dir, plane_normal)) / scale
    return math.degrees(math.asin(min(1.0, s))) < min_angle_deg


def float_finish_segment(form, lam1, lam2):
    """Cheirality check in both views, then the endpoints ``(start, end)`` in world coordinates."""
    if lam1 <= 0 or lam2 <= 0:
        raise CheiralityError("endpoint depth is not positive in the reference view")
    depth_row, tz = form.R[2], form.t[2]
    Rt = form.ref.R[0].T.tolist()
    t0, t1, t2 = form.ref.t[0].tolist()
    ends = []
    for li, (x0, x1, x2) in ((lam1, form.x1), (lam2, form.x2)):
        p0, p1, p2 = li * x0, li * x1, li * x2
        if dot3(depth_row, (p0, p1, p2)) + tz <= 0:
            raise CheiralityError("endpoint lies behind the matched view")
        ends.append(matvec3(Rt, (p0 - t0, p1 - t1, p2 - t2)))
    return tuple(ends)


def float_triangulate_algebraic(form, min_angle_deg=1.0):
    """Endpoints ``(start, end)`` as Python floats, raising as ``triangulate_algebraic`` does."""
    a1, a2 = form.a
    bad1 = a1 == 0.0 or float_check_degeneracy(form.Rx1, form.n, min_angle_deg)
    bad2 = a2 == 0.0 or float_check_degeneracy(form.Rx2, form.n, min_angle_deg)
    if bad1 and bad2:
        raise FullyDegenerateError("both endpoint rays parallel to the match plane")
    if bad1 or bad2:
        raise WeaklyDegenerateError("one endpoint ray parallel to the match plane")
    return float_finish_segment(form, -form.c / a1, -form.c / a2)


def float_weak_epipolar_iou(form):
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


def reference_ray_plane_form(ref_view, ref_rays, match_view, match_rays):
    """The form with numpy fields, the relative pose taken from the views' matrices."""
    R = match_view.R @ ref_view.R.T
    t = match_view.t - R @ ref_view.t
    x1, x2 = (np.asarray(x, dtype=np.float64) for x in ref_rays)
    y1, y2 = (np.asarray(y, dtype=np.float64) for y in match_rays)
    n = np.cross(y1, y2)
    nn = np.linalg.norm(n)
    if nn < EPS:
        return None
    n = n / nn
    Rx1, Rx2 = R @ x1, R @ x2
    a = np.array([n @ Rx1, n @ Rx2])
    return RayPlaneForm(Poses.of(ref_view, 1), R, t, x1, x2, Rx1, Rx2, y1, y2, n, a, float(n @ t))


def reference_plane_angle_deg(ray_dir, plane_normal):
    """Angle in degrees between a ray and a plane (0 when the ray lies in it)."""
    r, n = np.asarray(ray_dir, dtype=np.float64), np.asarray(plane_normal, dtype=np.float64)
    s = abs(float(r @ n)) / (np.linalg.norm(r) * np.linalg.norm(n))
    return float(np.degrees(np.arcsin(min(1.0, s))))


def reference_triangulate_algebraic(form, min_angle_deg=1.0):
    """Endpoints ``(start, end)`` in world coordinates, raising as
    ``triangulate_algebraic`` does."""
    bad1 = reference_plane_angle_deg(form.Rx1, form.n) < min_angle_deg
    bad2 = reference_plane_angle_deg(form.Rx2, form.n) < min_angle_deg
    if bad1 and bad2:
        raise FullyDegenerateError("both endpoint rays parallel to the match plane")
    if bad1 or bad2:
        raise WeaklyDegenerateError("one endpoint ray parallel to the match plane")
    lam = -form.c / form.a
    if lam[0] <= 0 or lam[1] <= 0:
        raise CheiralityError("endpoint depth is not positive in the reference view")
    R, t = form.R, form.t
    for li, xi in ((lam[0], form.x1), (lam[1], form.x2)):
        if (R[2] @ (li * xi) + t[2]) <= 0:
            raise CheiralityError("endpoint lies behind the matched view")
    R_ref, t_ref = form.ref.R[0], form.ref.t[0]
    return R_ref.T @ (lam[0] * form.x1 - t_ref), R_ref.T @ (lam[1] * form.x2 - t_ref)


def reference_weak_epipolar_iou(form):
    t = form.t
    if np.linalg.norm(t) < EPS:
        return 0.0
    origin = form.y1[:2]
    direction = form.y2[:2] - origin
    seg_len = np.linalg.norm(direction)
    if seg_len < EPS:
        return 0.0
    u = direction / seg_len
    params = []
    for Rx, a in ((form.Rx1, form.a[0]), (form.Rx2, form.a[1])):
        h = form.c * Rx - a * t
        if abs(h[2]) < EPS * (np.linalg.norm(h[:2]) + EPS):
            return 0.0
        pt = h[:2] / h[2]
        params.append(float((pt - origin) @ u))
    lo, hi = min(params), max(params)
    inter = max(0.0, min(hi, seg_len) - max(lo, 0.0))
    union = max(hi, seg_len) - min(lo, 0.0)
    if union < EPS:
        return 0.0
    return inter / union


# ---------------------------------------------------------------------------
# Reference rescue triangulation and track trim
# ---------------------------------------------------------------------------
#
# The scalar code the rescue blocks (``triangulate_line_point``,
# ``triangulate_line_vp``, ``solve_constrained_quadratic``,
# ``triangulate_multipoint``) and the trim block
# (``segment_on_line_from_supports``) replaced: one match, one detection or
# one line at a time, on numpy 3-vectors with numpy's polynomial helpers,
# ``np.roots``, ``det``, ``solve`` and ``eigh``.  A block row must end as the
# oracle does, with the same exception and message where it fails, and with
# endpoints within rounding where it does not.


def _reference_principal_line(points):
    pts = np.asarray(points, dtype=np.float64)
    mean = pts.mean(axis=0)
    centered = pts - mean
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    return mean, evecs[:, -1], float(evals[-1])


def _reference_world_ray(view, x):
    d = normalized(np.asarray(x, dtype=np.float64))
    return PluckerLine.from_point_direction(-view.R.T @ view.t, view.R.T @ d)


def reference_triangulate_multipoint(ref_rays, ref_view, points3d):
    """Segment3D, or the TriangulationError that ``triangulate_multipoint`` gives."""
    pts = np.asarray(points3d, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise TriangulationError("need at least two 3D points to fit a line")
    mean, direction, spread = _reference_principal_line(pts)
    if spread < EPS:
        raise DegenerateTriangulationError("3D points are coincident; no line direction")
    fitted = PluckerLine.from_point_direction(mean, direction)
    endpoints = []
    for x in ref_rays:
        try:
            endpoints.append(closest_point_line_to_line(_reference_world_ray(ref_view, x), fitted))
        except ValueError as exc:
            raise DegenerateTriangulationError("fitted line is parallel to an endpoint ray") from exc
    for p in endpoints:
        if ref_view.depth(p) <= 0:
            raise CheiralityError("fitted segment lies behind the reference view")
    return Segment3D(endpoints[0], endpoints[1])


def reference_solve_constrained_quadratic(A, b, Q, q):
    """``[(lam, cost, mu)]`` sorted as ``solve_constrained_quadratic`` sorts
    them, with each candidate's multiplier ``mu`` (None for ``Q = 0``)."""
    A, b, Q, q = (np.asarray(x, dtype=np.float64) for x in (A, b, Q, q))
    if not np.any(Q):
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
        return [(lam, float(lam @ A @ lam + b @ lam), None)]
    # polynomial entries in mu (ascending coefficients)
    M = [[np.array([A[i, j], Q[i, j]]) for j in range(2)] for i in range(2)]
    v = [np.array([b[i], q[i]]) for i in range(2)]
    adj = [[M[1][1], -1.0 * M[0][1]], [-1.0 * M[1][0], M[0][0]]]
    det = npoly.polysub(npoly.polymul(M[0][0], M[1][1]), npoly.polymul(M[0][1], M[1][0]))
    w = [npoly.polyadd(npoly.polymul(adj[i][0], v[0]), npoly.polymul(adj[i][1], v[1])) for i in range(2)]
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
    coeffs = np.trim_zeros(num / scale, "b")
    if coeffs.size <= 1:
        return []
    det_scale = max(np.max(np.abs(A)), np.max(np.abs(Q)))
    sols = []
    for r in np.roots(coeffs[::-1]):
        if abs(r.imag) > 1e-8 * max(1.0, abs(r)):
            continue
        mu = float(r.real)
        Mm = A + mu * Q
        if abs(np.linalg.det(Mm)) < 1e-14 * max(1.0, det_scale**2):
            continue
        lam = -0.5 * np.linalg.solve(Mm, b + mu * q)
        sols.append((lam, float(lam @ A @ lam + b @ lam), mu))
    return reference_preference_order(sols)


def reference_preference_order(sols):
    """Candidates ``(lam, cost, ...)`` by cost; among cost ties, the larger
    smallest depth first."""
    sols = sorted(sols, key=lambda s: s[1])
    i = 0
    while i < len(sols):
        j = i + 1
        while j < len(sols) and sols[j][1] - sols[i][1] < 1e-10:
            j += 1
        sols[i:j] = sorted(sols[i:j], key=lambda s: -min(s[0]))
        i = j
    return sols


def reference_plane_cost(form):
    """``(A, b)`` of the summed squared match-plane offsets of the endpoints."""
    a = np.array(form.a)
    return np.diag(a * a), 2.0 * form.c * a


def _reference_constrained_segment(form, Q, q):
    sols = reference_solve_constrained_quadratic(*reference_plane_cost(form), Q, q)
    if not sols:
        raise TriangulationError("constrained solve produced no real candidate")
    for lam, *_ in sols:
        try:
            return float_finish_segment(form, float(lam[0]), float(lam[1]))
        except CheiralityError:
            continue
    raise CheiralityError("no candidate places the segment in front of both cameras")


def reference_point_constraint(form, point3d):
    """``(Q, q)``: the collinearity constraint that ``point3d`` puts on the
    endpoint depths of one :class:`RayPlaneForm`, or the TriangulationError
    that ``triangulate_line_point`` gives before it solves."""
    x1, x2 = np.array(form.x1), np.array(form.x2)
    n_p = cross3(x1, x2)
    npn = np.linalg.norm(n_p)
    if npn < EPS:
        raise TriangulationError("reference segment endpoints coincide")
    n_p = n_p / npn
    p_ref = form.ref.R[0] @ np.asarray(point3d, dtype=np.float64) + form.ref.t[0]
    p_in_plane = p_ref - (n_p @ p_ref) * n_p
    if np.linalg.norm(p_in_plane) < EPS:
        raise DegenerateTriangulationError("3D point projects to the camera center")
    # in-plane frame: rays and the projected point with a zero third coordinate
    u = normalized(x1)
    v = cross3(n_p, u)
    p1, p2, p0 = (np.array([u @ y, v @ y]) for y in (x1, x2, p_in_plane))
    cross2 = lambda a, b: a[0] * b[1] - a[1] * b[0]  # noqa: E731
    c12 = cross2(p1, p2)
    Q = np.array([[0.0, 0.5 * c12], [0.5 * c12, 0.0]])
    q = np.array([-cross2(p1, p0), -cross2(p0, p2)])
    if not np.any(Q) and not np.any(q):
        raise DegenerateTriangulationError("collinearity constraint is vacuous")
    return Q, q


def reference_triangulate_line_point(form, point3d):
    """Endpoints ``(start, end)``, or the TriangulationError that
    ``triangulate_line_point`` gives, for one :class:`RayPlaneForm`."""
    return _reference_constrained_segment(form, *reference_point_constraint(form, point3d))


def reference_triangulate_line_vp(form, vp_dir):
    """Endpoints ``(start, end)``, or the TriangulationError that
    ``triangulate_line_vp`` gives, for one :class:`RayPlaneForm`."""
    x1, x2 = np.array(form.x1), np.array(form.x2)
    w = cross3(vp_dir, cross3(x1, x2))
    if np.linalg.norm(w) < EPS:
        raise DegenerateTriangulationError("vanishing direction is perpendicular to the ray plane")
    q = np.array([-(w @ x1), w @ x2])
    if np.max(np.abs(q)) < EPS:
        raise DegenerateTriangulationError("vanishing direction constrains neither ray")
    return _reference_constrained_segment(form, np.zeros((2, 2)), q)


def reference_segment_on_line_from_supports(line, supports):
    """The trimmed segment of one line, or None; ``supports`` lists ``(rays, view)``."""
    origin = line.closest_point_to_origin()
    ts = []
    for rays, view in supports:
        for x in rays:
            try:
                foot = closest_point_line_to_line(line, _reference_world_ray(view, x))
            except ValueError:
                continue
            ts.append(float((foot - origin) @ line.d))
    extent = trimmed_extent(ts)
    if extent is None:
        return None
    lo, hi = extent
    return Segment3D(origin + lo * line.d, origin + hi * line.d)


# ---------------------------------------------------------------------------
# Reference vanishing point RANSAC
# ---------------------------------------------------------------------------
#
# ``association.estimate_vps`` as it scored a round before each distinct
# hypothesis was scored once: every drawn pair, in draw order, as one
# residual matrix through ``_vp_residuals``, with ``<= inlier_px`` as the
# inlier test.  ``estimate_vps`` must give the same VPs, bit for bit, and the
# same assignment.


def reference_estimate_vps(segments, inlier_px=1.0, min_support=5, seed=0):
    """``(vps, assignment)`` as ``association.estimate_vps`` gives them."""
    min_support = max(min_support, 2)
    rng = np.random.default_rng(seed)
    n = len(segments)
    assignment = np.full(n, -1, dtype=np.int64)
    ends, planar = stack_segments_2d(segments)
    starts_h, ends_h = ends[:, 0], ends[:, 1]
    lines = np.stack([planar.l0, planar.u, planar.l2], axis=1)
    mids_h = 0.5 * (starts_h + ends_h)
    remaining = np.arange(n)
    vps = []
    while len(remaining) >= min_support and len(vps) < association.VP_MAX_MODELS:
        rm, rs, re = mids_h[remaining], starts_h[remaining], ends_h[remaining]
        pairs = remaining[distinct_index_pairs(rng, len(remaining), association.VP_ITERATIONS)]
        cand = np.cross(lines[pairs[:, 0]], lines[pairs[:, 1]])
        inliers = association._vp_residuals(rm, rs, re, cand) <= inlier_px
        counts = inliers.sum(axis=1)
        counts[np.sqrt(np.einsum("ij,ij->i", cand, cand)) < EPS] = 0  # identical supporting lines
        if counts.size == 0 or counts.max() < min_support:
            break
        vp = association._refine_vp(lines[remaining[inliers[np.argmax(counts)]]])
        inl = remaining[association._vp_residuals(rm, rs, re, vp) <= inlier_px]
        if len(inl) < min_support:
            break
        vps.append(vp)
        assignment[inl] = len(vps) - 1
        remaining = remaining[assignment[remaining] == -1]
    return vps, assignment

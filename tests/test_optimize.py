"""Tests for joint refinement: Jacobians, convergence, helper graphs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linemap.optimize as opt_module
from linemap.geometry import (
    CameraView,
    MinimalLineParam,
    PluckerLine,
    Segment2D,
    Segment3D,
    acute_angle,
    minimal_to_plucker,
    normalized,
    plucker_from_segment,
    point_line_distance_3d,
    plucker_to_minimal,
    project_segment,
    quat_exp,
    quat_mul,
)
from linemap.optimize import (
    JointProblem,
    OptimizeConfig,
    _Linearizer,
    _State,
    extract_line_vp_edges,
    extract_point_line_edges,
    optimize,
    segment_on_line_from_supports,
    soft_line_vp_weights,
    soft_point_line_weights,
    vp_orthogonal_pairs,
)
from linemap.synthetic import ObservationConfig, SceneConfig, build_scene, observe_scene

from linemap import pipeline
from linemap.config import PipelineConfig
from linemap.pipeline import PipelineInput, run_pipeline
from support import (
    endpoint_rays,
    make_view,
    reference_normal_equations,
    reference_scatter_normal_equations,
    reference_scatter_system,
)


def ring_views(n=4, radius=3.0, height=0.6):
    views = {}
    for i in range(n):
        a = 2.0 * math.pi * i / n
        c = np.array([radius * math.cos(a), height * math.sin(2 * a), radius * math.sin(a)])
        views[i] = make_view(c, np.zeros(3))
    return views


def perturb_line(par, rng, rot=0.02, theta=0.02):
    q = quat_mul(par.q, quat_exp(rot * rng.standard_normal(3)))
    a = theta * rng.standard_normal()
    c, s = math.cos(a), math.sin(a)
    w = np.array([par.w[0] * c - par.w[1] * s, par.w[0] * s + par.w[1] * c])
    return MinimalLineParam(q, w)


def make_mixed_problem(rng):
    """A small problem exercising every residual type with nonzero residuals."""
    views = ring_views(3)
    gt_points = rng.uniform(-0.6, 0.6, size=(2, 3))
    segs = [
        Segment3D(np.array([-0.5, 0.1, -0.2]), np.array([0.6, 0.3, 0.1])),
        Segment3D(np.array([0.2, -0.5, 0.3]), np.array([-0.1, 0.6, 0.2])),
    ]
    lines = [perturb_line(plucker_to_minimal(plucker_from_segment(s)), rng) for s in segs]
    vps = np.array([normalized([1.0, 0.15, -0.1]), normalized([0.1, 1.0, 0.2])])

    problem = JointProblem(views=views, points=gt_points + 0.05, lines=lines, vps=vps)
    for pi in range(2):
        for img in (0, 1):
            pix = views[img].project_point(gt_points[pi]) + rng.uniform(-1, 1, 2)
            problem.point_obs.append((pi, img, pix))
    for li, s in enumerate(segs):
        for img in views:
            obs = project_segment(s, views[img])
            problem.line_obs.append((li, img, obs))
    problem.point_line = [(0, 0, 3.0), (1, 1, 4.0)]
    problem.line_vp = [(0, 0, 3.0), (1, 1, 5.0)]
    problem.vp_ortho = [(0, 1)]
    return problem


def noisy_line_problem():
    """One line seen in four views with jittered endpoints."""
    rng = np.random.default_rng(31)
    views = ring_views(4)
    seg = Segment3D(np.array([-0.6, 0.1, 0.0]), np.array([0.6, -0.2, 0.3]))
    par = perturb_line(plucker_to_minimal(plucker_from_segment(seg)), rng, 0.03, 0.03)
    problem = JointProblem(views=views, lines=[par])
    for img in views:
        obs = project_segment(seg, views[img])
        jitter = rng.normal(0.0, 0.5, size=(2, 2))
        problem.line_obs.append((0, img, Segment2D(obs.start + jitter[0], obs.end + jitter[1])))
    return problem


class TestJacobians:
    def check_problem(self, problem, tol=1e-4):
        lin = _Linearizer(problem, OptimizeConfig())
        state = _State.initial(problem)
        r0, J = lin.raw_residuals_and_jacobian(state)
        n = lin.nv
        h = 1e-6
        J_fd = np.zeros_like(J)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            rp, _ = lin.raw_residuals_and_jacobian(state.retract(e, lin.offsets))
            rm, _ = lin.raw_residuals_and_jacobian(state.retract(-e, lin.offsets))
            J_fd[:, i] = (rp - rm) / (2 * h)
        scale = max(1.0, np.abs(J).max())
        err = np.abs(J - J_fd).max() / scale
        assert err < tol, f"jacobian mismatch {err:.3e}"

    def test_mixed_problem_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            self.check_problem(make_mixed_problem(rng))

    def test_point_only(self):
        rng = np.random.default_rng(3)
        views = ring_views(3)
        pts = rng.uniform(-0.5, 0.5, size=(3, 3))
        problem = JointProblem(views=views, points=pts)
        for pi in range(3):
            for img in views:
                problem.point_obs.append((pi, img, views[img].project_point(pts[pi]) + 0.7))
        self.check_problem(problem)

    def test_line_reprojection_only(self):
        rng = np.random.default_rng(11)
        views = ring_views(4)
        for _ in range(10):
            a = rng.uniform(-0.7, 0.7, 3)
            b = rng.uniform(-0.7, 0.7, 3)
            if np.linalg.norm(a - b) < 0.3:
                continue
            seg = Segment3D(a, b)
            par = perturb_line(plucker_to_minimal(plucker_from_segment(seg)), rng, 0.05, 0.05)
            problem = JointProblem(views=views, lines=[par])
            for img in views:
                problem.line_obs.append((0, img, project_segment(seg, views[img])))
            self.check_problem(problem)


def tiled_problem(problems, share_vps=False):
    """One problem holding copies side by side, sharing the first one's views.

    The copies are independent, or with ``share_vps`` they all use the
    first copy's VPs (and its orthogonality terms), as the tiles of the
    benchmark's refine_ba problem do.
    """
    out = JointProblem(
        views=problems[0].views,
        points=np.vstack([pr.points for pr in problems]),
        lines=[par for pr in problems for par in pr.lines],
        vps=problems[0].vps if share_vps else np.vstack([pr.vps for pr in problems]),
    )
    n_pts = n_lines = n_vps = 0
    for pr in problems:
        out.point_obs += [(pi + n_pts, img, pix) for pi, img, pix in pr.point_obs]
        out.line_obs += [(li + n_lines, img, seg) for li, img, seg in pr.line_obs]
        out.point_line += [(pi + n_pts, li + n_lines, w) for pi, li, w in pr.point_line]
        out.line_vp += [(li + n_lines, vi + n_vps, w) for li, vi, w in pr.line_vp]
        if not share_vps or pr is problems[0]:
            out.vp_ortho += [(a + n_vps, b + n_vps) for a, b in pr.vp_ortho]
        n_pts, n_lines = n_pts + len(pr.points), n_lines + len(pr.lines)
        if not share_vps:
            n_vps += len(pr.vps)
    return out


def joined_mixed_problem(rng):
    """The mixed problem with point 0 also on line 1, so that one line has
    point-line terms with both points: one 6-column component."""
    problem = make_mixed_problem(rng)
    problem.point_line = sorted(problem.point_line + [(0, 1, 2.0)])
    return problem


def shared_vp_problem(copies=12, seed=23):
    """Mixed problems tiled with shared VPs, every other one joined: 3- and
    6-column point components with the 4 VP columns as their border."""
    rng = np.random.default_rng(seed)
    makes = (make_mixed_problem, joined_mixed_problem)
    return tiled_problem([makes[k % 2](rng) for k in range(copies)], share_vps=True)


def lone_point_problem():
    """The joined mixed problem plus one observed point with no point-line term."""
    problem = joined_mixed_problem(np.random.default_rng(29))
    views = problem.views
    lone = np.array([0.1, -0.3, 0.2])
    problem.points = np.vstack([problem.points, lone + 0.04])
    problem.point_obs += [(2, img, views[img].project_point(lone) + 0.5) for img in (0, 2)]
    return problem


def degenerate_problem():
    """The mixed problem plus every residual branch that would divide by zero.

    View 0 sits at (3, 0, 0) looking down the x axis.  One point lies behind
    it and one exactly on its camera plane (depth 0); the x axis, as a line,
    runs through its centre and images to the zero line.  A point on that
    line and a VP along it give zero point-line and line-VP distances.
    """
    problem = make_mixed_problem(np.random.default_rng(13))
    views = problem.views
    centre = views[0].camera_center
    x_axis = Segment3D(np.array([-0.5, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))
    n_pts, n_lines, n_vps = len(problem.points), len(problem.lines), len(problem.vps)
    problem.points = np.vstack([problem.points, centre + 0.5, [3.0, 0.5, 0.2], [0.5, 0.0, 0.0]])
    problem.lines = problem.lines + [plucker_to_minimal(plucker_from_segment(x_axis))]
    problem.vps = np.vstack([problem.vps, [1.0, 0.0, 0.0]])
    for pi in (n_pts, n_pts + 1):
        problem.point_obs += [(pi, 0, np.array([300.0, 200.0])), (pi, 1, np.array([310.0, 250.0]))]
    problem.line_obs += [
        (n_lines, 0, Segment2D(np.array([100.0, 100.0]), np.array([220.0, 160.0]))),
        (n_lines, 1, project_segment(x_axis, views[1])),
    ]
    problem.point_line += [(n_pts + 2, n_lines, 3.0)]
    problem.line_vp += [(n_lines, n_vps, 4.0)]
    return problem


def dense_system(ne):
    """``H`` and ``g`` of batched normal equations in unknown order (points, lines, VPs)."""
    n_lines = len(ne.A)
    n_reduced = len(ne.C)
    p = ne.n_point_cols
    n = n_reduced + 4 * n_lines
    reduced = np.arange(n_reduced)
    reduced[p:] += 4 * n_lines  # the VP columns follow the lines
    H = np.zeros((n, n))
    H[np.ix_(reduced, reduced)] = ne.C
    for li in range(n_lines):
        rows = p + 4 * li + np.arange(4)
        H[np.ix_(rows, rows)] = ne.A[li]
        for slot, col in enumerate(ne.slot_cols[li]):
            if col < n_reduced:
                H[rows, reduced[col]] = ne.Bt[li, slot]
                H[reduced[col], rows] = ne.Bt[li, slot]
    return H, ne.gradient()


def relative_error(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300) if b.size else 0.0


class TestBatchedAssembly:
    def check_against_reference(self, problem, state=None):
        lin = _Linearizer(problem, OptimizeConfig())
        state = state or _State.initial(problem)
        ne = lin.normal_equations(lin.residuals(state))
        H, g = dense_system(ne)
        H_ref, g_ref, cost_ref = reference_normal_equations(
            problem, lin.config, state.points, state.lines, state.vps
        )
        assert relative_error(H, H_ref) <= 1e-12
        assert relative_error(g, g_ref) <= 1e-12
        assert abs(ne.cost - cost_ref) <= 1e-12 * cost_ref

    def test_mixed_problem_matches_the_block_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            problem = make_mixed_problem(rng)
            self.check_against_reference(problem)
            lin = _Linearizer(problem, OptimizeConfig())
            moved = _State.initial(problem).retract(0.01 * rng.standard_normal(lin.nv), lin.offsets)
            self.check_against_reference(problem, moved)

    def test_degenerate_problem_matches_the_block_loop(self):
        problem = degenerate_problem()
        lin = _Linearizer(problem, OptimizeConfig())
        rows = lin.residuals(_State.initial(problem)).residuals
        r_points, r_lines, r_point_line, r_line_vp, _ = rows
        assert np.all(r_points[[-4, -2]] == 1e6)  # behind view 0 and on its camera plane
        assert np.all(r_lines[-2] == 1e6)  # the x axis seen by view 0
        assert r_point_line[-1, 0] == 0.0 and r_line_vp[-1, 0] == 0.0
        self.check_against_reference(problem)

    def test_tiled_problem_matches_the_block_loop(self):
        rng = np.random.default_rng(17)
        problem = tiled_problem([make_mixed_problem(rng) for _ in range(30)])
        assert problem.dof() > 500
        self.check_against_reference(problem)

    def test_degenerate_problem_raises_no_floating_point_event(self):
        problem = degenerate_problem()
        with np.errstate(all="raise"):
            lin = _Linearizer(problem, OptimizeConfig())
            state = _State.initial(problem)
            ne = lin.normal_equations(lin.residuals(state))
            lin.raw_residuals_and_jacobian(state)
            ne.step(1e-4)
            result = optimize(problem, OptimizeConfig(max_iterations=3))
        assert result.final_cost < result.initial_cost

    def test_line_at_infinity_raises(self):
        par = MinimalLineParam(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1e-13, 1.0]))
        with pytest.raises(FloatingPointError, match="line drifted"):
            opt_module._line_geometry(par.q[None, :], par.w[None, :])

    def test_observation_directions_equal_the_segments_row_by_row(self):
        # the rows come from the stacked endpoints (geometry.planar_rows), with
        # the bits of Segment2D.direction, signed zeros included
        problem = noisy_line_problem()
        problem.line_obs += [
            (0, 0, Segment2D([10.0, 5.0], [300.0, 5.0])),  # level
            (0, 1, Segment2D([7.0, 0.0], [-0.0, -0.0])),
            (0, 2, Segment2D([-0.0, 90.0], [0.0, 0.0])),  # plumb
        ]
        lin = _Linearizer(problem, OptimizeConfig())
        want = np.array([seg.direction for _, _, seg in problem.line_obs])
        assert lin.lo_direction.tobytes() == want.tobytes()
        problem.line_obs.append((0, 1, Segment2D([3.0, 4.0], [3.0, 4.0])))
        with pytest.raises(ValueError):
            _Linearizer(problem, OptimizeConfig())


def vp_only_problem():
    a = np.array([1.0, 0.0, 0.0])
    b = normalized([math.cos(math.radians(88.0)), math.sin(math.radians(88.0)), 0.0])
    return JointProblem(views={}, vps=np.array([a, b]), vp_ortho=[(0, 1)])


def point_only_problem():
    views = ring_views(3)
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(3, 3))
    problem = JointProblem(views=views, points=pts + 0.05)
    for pi in range(3):
        for img in views:
            problem.point_obs.append((pi, img, views[img].project_point(pts[pi]) + 0.7))
    return problem


class _Captured(Exception):
    pass


def acceptance_problem(monkeypatch):
    """The joint problem that run_pipeline refines on the noisy acceptance
    scene (16 views, 1 px noise, 20% outlier matches, seed 7)."""
    scene = build_scene(SceneConfig(n_views=16))
    obs = observe_scene(scene, ObservationConfig(noise_px=1.0, outlier_fraction=0.2, seed=7))
    data = PipelineInput(scene.views, obs.detections, obs.matches, scene.junctions, obs.points2d)

    def capture(problem, config):
        raise _Captured(problem)

    monkeypatch.setattr(pipeline, "optimize", capture)
    with pytest.raises(_Captured) as captured:
        run_pipeline(data, PipelineConfig())
    return captured.value.args[0]


class TestOrderedAssembly:
    """One ordered bincount per matrix, and the seeded Schur update, against
    the ``np.add.at`` scatter they replace: equal bit for bit up to the
    reduced system (the step's solve is checked in :class:`TestSchurStep`)."""

    def check_against_scatter(self, problem, dampings):
        lin = _Linearizer(problem, OptimizeConfig())
        state = _State.initial(problem)
        moved = state.retract(1e-3 * np.random.default_rng(5).standard_normal(lin.nv), lin.offsets)
        for s in (state, moved):
            ne = lin.normal_equations(lin.residuals(s))
            got = (ne.A, ne.Bt, ne.C, ne.g_lines, ne.g_reduced)
            *want, cost = reference_scatter_normal_equations(lin, s)
            for g, w in zip(got, want):
                assert g.shape == w.shape and (g == w).all()
            assert ne.cost == cost
            for damping in dampings:
                _, S, rhs = ne.reduced_system(damping)
                S_want, rhs_want = reference_scatter_system(ne, damping)
                assert (S == S_want).all() and (rhs == rhs_want).all()
        return lin

    def test_acceptance_problem_matches_the_scatter(self, monkeypatch):
        problem = acceptance_problem(monkeypatch)
        assert problem.points.size and problem.vps.size and problem.point_line and problem.line_vp
        self.check_against_scatter(problem, (1e-4, 10.0))

    def test_tiled_problem_matches_the_scatter(self):
        rng = np.random.default_rng(19)
        problem = tiled_problem([make_mixed_problem(rng) for _ in range(60)])
        lin = self.check_against_scatter(problem, (1e-4, 1e2))
        assert lin.n_reduced > 500


class TestSchurStep:
    @pytest.mark.parametrize(
        "make",
        [
            point_only_problem,
            noisy_line_problem,
            vp_only_problem,
            lambda: make_mixed_problem(np.random.default_rng(7)),
            lambda: JointProblem(views={}),
            shared_vp_problem,
            lambda: tiled_problem([make_mixed_problem(np.random.default_rng(k)) for k in range(8)]),
            lone_point_problem,
        ],
        ids=["points", "lines", "vps", "mixed", "empty", "shared_vps", "tiled", "lone_point"],
    )
    def test_step_matches_the_dense_solve(self, make):
        problem = make()
        lin = _Linearizer(problem, OptimizeConfig())
        ne = lin.normal_equations(lin.residuals(_State.initial(problem)))
        H, g = dense_system(ne)
        D = np.diag(H)
        floor = 1e-12 * max(1.0, D.max(initial=0.0))
        for damping in (1e-4, 1e-1, 1e3):
            dense = np.linalg.solve(H + np.diag(damping * np.maximum(D, floor)), -g)
            step = ne.step(damping)
            assert step.shape == (problem.dof(),)
            assert relative_error(step, dense) <= 1e-8

    def test_points_split_into_components_bordered_by_the_vps(self):
        # shared VPs: every point component borders the same 4 VP columns
        lin = _Linearizer(shared_vp_problem(), OptimizeConfig())
        assert [c.shape for c in lin.components] == [(12, 3), (6, 6)]
        assert lin.n_reduced - lin.np_ == 4
        # the lone point, with no point-line term, is a component of its own
        lin = _Linearizer(lone_point_problem(), OptimizeConfig())
        assert [c.tolist() for c in lin.components] == [[[6, 7, 8]], [[0, 1, 2, 3, 4, 5]]]


# Refines shared_vp_problem in a fresh process and prints a digest of the result.
_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from linemap.optimize import OptimizeConfig, optimize
from test_optimize import shared_vp_problem
r = optimize(shared_vp_problem(copies=30), OptimizeConfig(max_iterations=20))
parts = [r.points, r.vps, np.array([r.final_cost])] + [np.concatenate([p.q, p.w]) for p in r.lines]
sys.stdout.write(hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest())
"""


def test_refinement_does_not_depend_on_the_blas_thread_count():
    # 184 reduced unknowns in 3- and 6-column point components and a 4-column
    # VP border; one dense solve of the whole system rounds differently at 1
    # and 2 OpenBLAS threads on this problem
    assert _Linearizer(shared_vp_problem(copies=30), OptimizeConfig()).n_reduced > 100
    path = os.pathsep.join([str(Path(opt_module.__file__).parents[1]), str(Path(__file__).parent)])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, check=True
        )
        digests.append(run.stdout)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestConvergence:
    def test_points_recover_exact_observations(self):
        rng = np.random.default_rng(5)
        views = ring_views(4)
        gt = rng.uniform(-0.7, 0.7, size=(6, 3))
        problem = JointProblem(views=views, points=gt + 0.1 * rng.standard_normal(gt.shape))
        for pi in range(len(gt)):
            for img in views:
                problem.point_obs.append((pi, img, views[img].project_point(gt[pi])))
        result = optimize(problem)
        assert result.converged
        assert result.final_cost < 1e-16
        assert np.abs(result.points - gt).max() < 1e-6

    def test_lines_recover_exact_observations(self):
        rng = np.random.default_rng(9)
        views = ring_views(4)
        segs = [
            Segment3D(np.array([-0.6, 0.2, -0.1]), np.array([0.5, 0.4, 0.3])),
            Segment3D(np.array([0.1, -0.6, 0.4]), np.array([0.2, 0.5, -0.3])),
        ]
        gt_lines = [plucker_from_segment(s) for s in segs]
        lines = [perturb_line(plucker_to_minimal(pl), rng, 0.01, 0.01) for pl in gt_lines]
        problem = JointProblem(views=views, lines=lines)
        for li, s in enumerate(segs):
            for img in views:
                problem.line_obs.append((li, img, project_segment(s, views[img])))
        result = optimize(problem)
        assert result.converged
        assert result.final_cost < 1e-14
        for li, gt_pl in enumerate(gt_lines):
            pl = minimal_to_plucker(result.lines[li])
            assert acute_angle(pl.d, gt_pl.d) < 1e-6
            assert np.linalg.norm(pl.m - gt_pl.m) < 1e-6 or np.linalg.norm(pl.m + gt_pl.m) < 1e-6

    def test_near_orthogonal_vps_snap_to_right_angle(self):
        a = np.array([1.0, 0.0, 0.0])
        b = normalized([math.cos(math.radians(88.0)), math.sin(math.radians(88.0)), 0.0])
        problem = JointProblem(views={}, vps=np.array([a, b]), vp_ortho=[(0, 1)])
        result = optimize(problem)
        angle = math.degrees(math.acos(abs(float(result.vps[0] @ result.vps[1]))))
        assert abs(angle - 90.0) < 0.01

    def test_point_line_association_pulls_point_onto_line(self):
        seg = Segment3D(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        par = plucker_to_minimal(plucker_from_segment(seg))
        problem = JointProblem(
            views={},
            points=np.array([[0.3, 0.2, -0.1]]),
            lines=[par],
            point_line=[(0, 0, 3.0)],
        )
        result = optimize(problem)
        pl = minimal_to_plucker(result.lines[0])
        from linemap.geometry import point_line_distance_3d

        assert point_line_distance_3d(result.points[0], pl) < 1e-6

    def test_vp_converges_to_supported_direction(self):
        rng = np.random.default_rng(21)
        views = ring_views(4)
        segs = [
            Segment3D(np.array([-0.7, y, z]), np.array([0.7, y, z]))
            for y, z in [(-0.3, 0.1), (0.2, -0.2), (0.4, 0.3)]
        ]
        lines = [plucker_to_minimal(plucker_from_segment(s)) for s in segs]
        problem = JointProblem(
            views=views,
            lines=lines,
            vps=np.array([normalized([1.0, 0.08, -0.06])]),
            line_vp=[(i, 0, 4.0) for i in range(3)],
        )
        for li, s in enumerate(segs):
            for img in views:
                problem.line_obs.append((li, img, project_segment(s, views[img])))
        result = optimize(problem)
        assert acute_angle(result.vps[0], np.array([1.0, 0.0, 0.0])) < math.radians(0.1)

    def test_noisy_observations_cost_decreases(self):
        result = optimize(noisy_line_problem())
        assert result.final_cost < result.initial_cost
        assert result.iterations <= 100


def fail_line_geometry_on(monkeypatch, bad_state):
    """Make ``_line_geometry`` raise FloatingPointError on chosen states.

    States are numbered 1, 2, ... in the order their stacked line quaternions
    first reach ``_line_geometry``; state 1 is the start.  Returns the list of
    quaternion stacks seen, one per state.
    """
    real = opt_module._line_geometry
    seen = []

    def flaky(q, w):
        if not any(q is p for p in seen):
            seen.append(q)
        k = next(i for i, p in enumerate(seen, 1) if p is q)
        if bad_state(k):
            raise FloatingPointError("injected")
        return real(q, w)

    monkeypatch.setattr(opt_module, "_line_geometry", flaky)
    return seen


class TestSolverLoop:
    def test_empty_problem(self):
        result = optimize(JointProblem(views={}))
        assert result.termination == "empty"
        assert result.iterations == 0
        assert result.converged
        assert result.initial_cost == result.final_cost == 0.0

    def test_failed_trial_is_rejected(self, monkeypatch):
        problem = noisy_line_problem()
        states = fail_line_geometry_on(monkeypatch, lambda k: k == 2)  # the first trial
        result = optimize(problem, OptimizeConfig(max_iterations=5))
        assert len(states) > 2
        assert result.iterations >= 1
        assert result.final_cost < result.initial_cost

    def test_every_trial_failing_exhausts_damping(self, monkeypatch):
        problem = noisy_line_problem()
        states = fail_line_geometry_on(monkeypatch, lambda k: k > 1)  # all but the start
        result = optimize(problem)
        assert result.termination == "damping_exhausted"
        assert result.iterations == 1
        assert result.final_cost == result.initial_cost
        assert result.lines[0] is problem.lines[0]
        # one trial per damping value 1e-4, 1e-3, ..., 1e10
        assert len(states) - 1 == 15

    def test_each_state_is_evaluated_once(self, monkeypatch):
        problem = make_mixed_problem(np.random.default_rng(7))
        counts = {"residuals": 0, "retract": 0}
        real_residuals, real_retract = _Linearizer.residuals, _State.retract

        def residuals(self, *args, **kwargs):
            counts["residuals"] += 1
            return real_residuals(self, *args, **kwargs)

        def retract(self, delta, offsets):
            counts["retract"] += 1
            return real_retract(self, delta, offsets)

        monkeypatch.setattr(_Linearizer, "residuals", residuals)
        monkeypatch.setattr(_State, "retract", retract)
        result = optimize(problem, OptimizeConfig(max_iterations=20))
        assert result.iterations >= 2
        assert counts["retract"] >= result.iterations
        assert counts["residuals"] == 1 + counts["retract"]


    @pytest.mark.parametrize("max_iterations", [6, 100])
    def test_only_states_that_start_an_iteration_build_normal_equations(
        self, monkeypatch, max_iterations
    ):
        # a trial is priced by its residual stage; Jacobians and normal
        # equations are built only for a state the next iteration steps from
        problem = noisy_line_problem()
        states = fail_line_geometry_on(monkeypatch, lambda k: k in (2, 4))  # two failed trials
        built = []
        real = _Linearizer.normal_equations

        def counted(self, ev):
            built.append(ev.cost)
            return real(self, ev)

        monkeypatch.setattr(_Linearizer, "normal_equations", counted)
        result = optimize(problem, OptimizeConfig(max_iterations=max_iterations))
        assert len(states) - 1 >= result.iterations + 2  # every trial reached the residual stage
        assert len(built) == result.iterations
        assert built[0] == result.initial_cost
        # a run that ends on an accepted step never builds for it
        ends_on_a_step = result.termination in ("cost", "max_iterations")
        assert (built[-1] == result.final_cost) != ends_on_a_step


class TestHelpers:
    def test_vp_orthogonal_pairs_threshold(self):
        vps = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                normalized([1.0, 0.3, 0.0]),
            ]
        )
        pairs = vp_orthogonal_pairs(vps, angle_deg=87.0)
        assert (0, 1) in pairs
        assert (0, 2) not in pairs  # about 17 degrees from the first axis

    def test_soft_point_line_weights_counts_shared_images(self):
        line_supports = [[(0, 2), (1, 5), (2, 1)], [(0, 3)]]
        det_points = {(0, 2): [7], (0, 3): [8], (1, 5): [7], (2, 1): [7]}
        weights = soft_point_line_weights(line_supports, det_points, min_weight=3)
        assert weights == [(7, 0, 3.0)]

    def test_soft_point_line_weights_counts_a_repeated_point_once(self):
        line_supports = [[(0, 2), (1, 5), (2, 1)]]
        det_points = {(0, 2): [7, 7], (1, 5): [7], (2, 1): [9, 7]}
        weights = soft_point_line_weights(line_supports, det_points, min_weight=3)
        assert weights == [(7, 0, 3.0)]
        assert soft_point_line_weights(line_supports, det_points, min_weight=4) == []

    def test_soft_line_vp_weights(self):
        line_supports = [[(0, 0), (1, 0), (2, 0)]]
        vp_members = [[(0, 0), (1, 0), (2, 1)]]
        det_vp = {(0, 0): (0, 0), (1, 0): (1, 0), (2, 0): (2, 1)}
        weights = soft_line_vp_weights(line_supports, vp_members, det_vp, min_weight=3)
        assert weights == [(0, 0, 3.0)]
        weights = soft_line_vp_weights(line_supports, vp_members, det_vp, min_weight=4)
        assert weights == []

    def test_soft_line_vp_weights_counts_each_support_of_a_shared_node(self):
        # two detections of image 0 carry the same VP node: both count
        line_supports = [[(0, 0), (0, 1), (1, 0), (2, 0)], [(2, 0)]]
        vp_members = [[(1, 0), (2, 0)], [(0, 0), (1, 1)]]
        det_vp = {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (1, 1)}
        weights = soft_line_vp_weights(line_supports, vp_members, det_vp, min_weight=3)
        assert weights == [(0, 1, 3.0)]

    def test_extract_point_line_edges_ratio(self):
        line = plucker_from_segment(
            Segment3D(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        )
        points = np.array([[0.0, 0.01, 0.0], [0.0, 0.5, 0.0]])
        scales = np.array([0.01, 0.01])
        kept = extract_point_line_edges(points, scales, [line], np.array([0.02]), [(0, 0), (1, 0)])
        assert kept == [(0, 0)]

    def test_extract_line_vp_edges_angle(self):
        line = plucker_from_segment(
            Segment3D(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        )
        vps = np.array([normalized([1.0, 0.05, 0.0]), normalized([1.0, 0.5, 0.0])])
        kept = extract_line_vp_edges([line], vps, [(0, 0), (0, 1)], max_angle_deg=5.0)
        assert kept == [(0, 0)]

    def test_segment_on_line_from_supports_recovers_extent(self):
        views = ring_views(3)
        seg = Segment3D(np.array([-0.5, 0.2, 0.1]), np.array([0.7, -0.1, 0.3]))
        line = plucker_from_segment(seg)
        rays = np.array([endpoint_rays(project_segment(seg, views[i]), views[i]) for i in views])
        out = segment_on_line_from_supports(line, rays, list(views.values()))
        assert out is not None
        ends = sorted([out.start, out.end], key=lambda p: p[0])
        gt = sorted([seg.start, seg.end], key=lambda p: p[0])
        assert np.linalg.norm(ends[0] - gt[0]) < 1e-8
        assert np.linalg.norm(ends[1] - gt[1]) < 1e-8

    def test_segment_on_line_needs_two_feet(self):
        line = plucker_from_segment(
            Segment3D(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 2.0]))
        )
        assert segment_on_line_from_supports(line, np.zeros((0, 2, 3)), []) is None


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the (q, w) update rotates each line about its closest point to the world origin; "
    "anchoring lines near their observations is ROADMAP direction 3",
)
def test_refined_lines_do_not_depend_on_the_world_origin():
    scene = build_scene(SceneConfig(n_views=8))
    obs = observe_scene(scene, ObservationConfig(noise_px=1.0, seed=3))
    rng = np.random.default_rng(0)
    initial = [
        Segment3D(s.start + rng.normal(0.0, 0.01, 3), s.end + rng.normal(0.0, 0.01, 3))
        for s in scene.segments3d
    ]

    def gt_offsets(T):
        """Each ground-truth endpoint's distance to its line refined in a world shifted by T."""
        views = {
            img: CameraView(v.K, v.R, v.t - v.R @ T, v.width, v.height)
            for img, v in scene.views.items()
        }
        lines = [
            plucker_to_minimal(plucker_from_segment(Segment3D(s.start + T, s.end + T)))
            for s in initial
        ]
        problem = JointProblem(views=views, lines=lines)
        for img, dets in obs.detections.items():
            for seg, gid in zip(dets, obs.det_gt[img]):
                problem.line_obs.append((gid, img, seg))
        result = optimize(problem, OptimizeConfig(max_iterations=10))
        return np.array(
            [
                [point_line_distance_3d(p + T, minimal_to_plucker(par)) for p in (gt.start, gt.end)]
                for gt, par in zip(scene.segments3d, result.lines)
            ]
        )

    base = gt_offsets(np.zeros(3))
    for T in ((30.0, 0.0, 0.0), (0.0, 0.0, 30.0)):
        assert np.abs(gt_offsets(np.array(T)) - base).max() <= 1e-6

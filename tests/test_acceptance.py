"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``[NN] name: PASS/FAIL (details)`` line (visible
with ``pytest -s``) and then asserts, so the printed verdicts always match
the pytest outcome.  Shared pipeline runs are module-scoped fixtures; the
16-view noisy box scene is reused across the mapping, refinement, and
determinism criteria.
"""

import time
from collections import Counter

import numpy as np
import pytest

from linemap.cli import main as cli_main
from linemap.config import PipelineConfig
from linemap.geometry import (
    PluckerLine,
    acute_angle,
    closest_point_line_to_line,
    minimal_to_plucker,
    plucker_from_segment,
    plucker_to_minimal,
    point_to_infinite_line_2d,
    project_line,
    project_point_to_line3d,
)
from linemap.io import canonical_dumps, tracks_payload
from linemap.metrics import evaluate_segments
from linemap.optimize import (
    JointProblem,
    OptimizeConfig,
    optimize,
    vp_orthogonal_pairs,
)
from linemap.pipeline import PipelineInput, run_pipeline
from linemap.synthetic import (
    ObservationConfig,
    SceneConfig,
    build_scene,
    observe_scene,
    scene_diameter,
)
from linemap.triangulation import (
    TriangulationError,
    solve_constrained_quadratic,
    triangulate_algebraic,
    triangulate_line_point,
    triangulate_line_vp,
)
from linemap.uncertainty import (
    _endpoint_system,
    _line_system,
    run_degeneracy_experiment,
)

from support import make_view, random_two_view_segment, two_view, weak_degenerate_pair


VERDICTS = []


def report(num, name, ok, detail):
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(f"\n{line}", flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared scenes
# ---------------------------------------------------------------------------

N_VIEWS = 16


@pytest.fixture(scope="module")
def noisy_scene():
    scene = build_scene(SceneConfig(n_views=N_VIEWS))
    obs = observe_scene(
        scene, ObservationConfig(noise_px=1.0, outlier_fraction=0.2, seed=7)
    )
    inp = PipelineInput(
        views=scene.views,
        detections=obs.detections,
        matches=obs.matches,
        points3d=scene.junctions,
        point_obs=obs.points2d,
    )
    return scene, obs, inp


@pytest.fixture(scope="module")
def noisy_refined(noisy_scene):
    _, _, inp = noisy_scene
    t0 = time.perf_counter()
    result = run_pipeline(inp, PipelineConfig())
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noisy_unrefined(noisy_scene):
    _, _, inp = noisy_scene
    return run_pipeline(inp, PipelineConfig(optimize=False))


@pytest.fixture(scope="module")
def clean_scene():
    scene = build_scene(SceneConfig(n_views=N_VIEWS))
    obs = observe_scene(scene, ObservationConfig())
    inp = PipelineInput(
        views=scene.views,
        detections=obs.detections,
        matches=obs.matches,
        points3d=scene.junctions,
        point_obs=obs.points2d,
    )
    return scene, obs, inp


@pytest.fixture(scope="module")
def clean_result(clean_scene):
    _, _, inp = clean_scene
    t0 = time.perf_counter()
    result = run_pipeline(inp, PipelineConfig())
    return result, time.perf_counter() - t0


def track_to_gt(track, obs):
    votes = Counter(obs.det_gt[img][det] for img, det in track.supports)
    return votes.most_common(1)[0][0]


def payload_bytes(result):
    return canonical_dumps(tracks_payload(result)).encode()


# ---------------------------------------------------------------------------
# 1. geometry primitives against sweep oracles
# ---------------------------------------------------------------------------


def sweep_min(line, fun, lo, hi, rounds=4, n=4001):
    best = 0.0
    for _ in range(rounds):
        s = np.linspace(lo, hi, n)
        pts = line.closest_point_to_origin()[None, :] + s[:, None] * line.d[None, :]
        i = int(np.argmin(fun(pts)))
        best = s[i]
        half = (hi - lo) / (n - 1) * 2
        lo, hi = best - half, best + half
    return line.point_at(best)


def test_01_geometry_oracles():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_rt = worst_pt = worst_ll = 0.0
    for _ in range(1000):
        l1 = PluckerLine.from_two_points(rng.normal(size=3), rng.normal(size=3))
        back = minimal_to_plucker(plucker_to_minimal(l1))
        worst_rt = max(
            worst_rt, np.abs(back.d - l1.d).max(), np.abs(back.m - l1.m).max()
        )

        p = rng.normal(size=3) * 3
        foot = project_point_to_line3d(p, l1)
        oracle = sweep_min(
            l1, lambda pts: np.linalg.norm(pts - p[None, :], axis=1), -20.0, 20.0
        )
        worst_pt = max(worst_pt, float(np.linalg.norm(foot - oracle)))

        # very small crossing angles put the closest point outside any fixed
        # sweep bracket, so keep the oracle cases reasonably conditioned
        while True:
            l2 = PluckerLine.from_two_points(rng.normal(size=3), rng.normal(size=3))
            if np.degrees(acute_angle(l1.d, l2.d)) > 6.0:
                break
        pc = closest_point_line_to_line(l1, l2)
        to_l2 = lambda pts: np.linalg.norm(
            np.cross(np.broadcast_to(l2.d, pts.shape), pts) + l2.m, axis=1
        )
        oracle = sweep_min(l1, to_l2, -60.0, 60.0)
        worst_ll = max(worst_ll, float(np.linalg.norm(pc - oracle)))
    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-6 and worst_pt < 1e-6 and worst_ll < 1e-6 and elapsed < 5.0
    report(
        1,
        "geometry oracles",
        ok,
        f"roundtrip={worst_rt:.1e} point={worst_pt:.1e} line={worst_ll:.1e} "
        f"time={elapsed:.1f}s<5s over 1000 cases",
    )


# ---------------------------------------------------------------------------
# 2. exact two-view triangulation
# ---------------------------------------------------------------------------


def test_02_triangulation_exact_fit():
    rng = np.random.default_rng(202)
    worst_rel = worst_reproj = 0.0
    for _ in range(1000):
        ref, match, gt, ref2d, match2d = random_two_view_segment(rng)
        rec = triangulate_algebraic(two_view(ref2d, ref, match2d, match))
        for hat, true in ((rec.start, gt.start), (rec.end, gt.end)):
            worst_rel = max(
                worst_rel,
                np.linalg.norm(hat - true) / max(1.0, np.linalg.norm(true)),
            )
        line2d = match2d.infinite_line
        for p in (rec.start, rec.end):
            worst_reproj = max(
                worst_reproj,
                point_to_infinite_line_2d(match.project_point(p), line2d),
            )
    ok = worst_rel <= 1e-7 and worst_reproj < 1e-8
    report(
        2,
        "triangulation exact fit",
        ok,
        f"endpoint rel={worst_rel:.1e}<=1e-7 reproj={worst_reproj:.1e}<1e-8px "
        f"over 1000 pairs",
    )


# ---------------------------------------------------------------------------
# 3. constrained quadratic solver against a dense grid
# ---------------------------------------------------------------------------


def grid_min_on_conic(A, b, Q, q):
    """Dense minimization over the non-trivial branch x(theta) of the conic."""
    best = np.inf
    lo, hi = 0.0, np.pi
    for _ in range(3):
        th = np.linspace(lo, hi, 4001)
        u = np.stack([np.cos(th), np.sin(th)], axis=1)
        uQu = np.einsum("ni,ij,nj->n", u, Q, u)
        qu = u @ q
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(uQu) < 1e-12, np.nan, -qu / uQu)
        x = t[:, None] * u
        cost = np.einsum("ni,ij,nj->n", x, A, x) + x @ b
        cost = np.where(np.isfinite(cost), cost, np.inf)
        i = int(np.argmin(cost))
        best = min(best, cost[i])
        half = (hi - lo) / 4000 * 2
        lo, hi = th[i] - half, th[i] + half
    return best


def test_03_constrained_quadratic_oracle():
    rng = np.random.default_rng(303)
    worst_gap = worst_con = -np.inf
    empty = 0
    for _ in range(500):
        M = rng.normal(size=(2, 2))
        A = M.T @ M + 0.1 * np.eye(2)
        b = rng.normal(size=2)
        Q = rng.normal(size=(2, 2))
        Q = 0.5 * (Q + Q.T)
        q = rng.normal(size=2)
        sols = solve_constrained_quadratic(A, b, Q, q)
        if not sols:
            empty += 1
            continue
        for s in sols:
            worst_con = max(worst_con, abs(s.lam @ Q @ s.lam + q @ s.lam))
        worst_gap = max(worst_gap, sols[0].cost - grid_min_on_conic(A, b, Q, q))
    ok = empty == 0 and worst_gap <= 1e-4 and worst_con <= 1e-6
    report(
        3,
        "constrained quadratic oracle",
        ok,
        f"cost gap={worst_gap:.1e}<=1e-4 constraint={worst_con:.1e}<=1e-6 "
        f"empty={empty} over 500 instances",
    )


# ---------------------------------------------------------------------------
# 4. degeneracy rescue with a known point or direction
# ---------------------------------------------------------------------------


def test_04_degeneracy_rescue():
    rng = np.random.default_rng(404)
    good = 0
    n = 200
    for _ in range(n):
        ref, match, gt, ref2d, match2d = weak_degenerate_pair(rng)
        try:
            rec = triangulate_algebraic(two_view(ref2d, ref, match2d, match))
            alg_err = max(
                np.linalg.norm(rec.start - gt.start), np.linalg.norm(rec.end - gt.end)
            )
            raised = False
        except TriangulationError:
            alg_err, raised = np.inf, True
        try:
            m2 = triangulate_line_point(
                two_view(ref2d, ref, match2d, match), 0.5 * (gt.start + gt.end)
            )
            e2 = max(
                np.linalg.norm(m2.start - gt.start), np.linalg.norm(m2.end - gt.end)
            )
        except TriangulationError:
            e2 = np.inf
        try:
            m3 = triangulate_line_vp(two_view(ref2d, ref, match2d, match), gt.end - gt.start)
            e3 = max(
                np.linalg.norm(m3.start - gt.start), np.linalg.norm(m3.end - gt.end)
            )
        except TriangulationError:
            e3 = np.inf
        alg_bad = raised or alg_err > 10.0 * max(e2, e3, 1e-12)
        if alg_bad and e2 <= 1e-3 and e3 <= 1e-3:
            good += 1
    ok = good >= 0.95 * n
    report(
        4,
        "degeneracy rescue",
        ok,
        f"{good}/{n} cases: algebraic fails or 10x worse, "
        f"point/direction-constrained within 1e-3",
    )


# ---------------------------------------------------------------------------
# 5. uncertainty sweep trend and Jacobian validation
# ---------------------------------------------------------------------------


def fd_jacobian_error(system, ref, match, ref_px, match_px):
    _, J = system(ref, match, ref_px, match_px)
    fd = np.zeros_like(J)
    h = 1e-5
    stacked = np.concatenate([ref_px.reshape(-1, 4), match_px.reshape(-1, 4)], axis=1)
    for k in range(8):
        dp = stacked.copy()
        dp[:, k] += h
        dm = stacked.copy()
        dm[:, k] -= h
        pp = system(ref, match, dp[:, :4].reshape(-1, 2, 2), dp[:, 4:].reshape(-1, 2, 2))[0]
        pm = system(ref, match, dm[:, :4].reshape(-1, 2, 2), dm[:, 4:].reshape(-1, 2, 2))[0]
        fd[:, :, k] = (pp - pm).reshape(-1, 6) / (2 * h)
    return np.abs(fd - J).max() / max(1.0, np.abs(J).max())


def test_05_uncertainty_trend():
    t0 = time.perf_counter()
    rows = run_degeneracy_experiment()
    by_angle = {r.angle_deg: r for r in rows}
    ratio = by_angle[2.0].median_line / by_angle[90.0].median_line
    ends = [r.median_endpoint for r in rows]
    spread = max(ends) / min(ends)

    rng = np.random.default_rng(505)
    ref = make_view(np.array([-2.0, 0.0, 0.0]), np.zeros(3), f=700.0)
    match = make_view(np.array([2.0, 0.1, -0.2]), np.zeros(3), f=700.0)
    ref_px = rng.uniform(100, 500, size=(5, 2, 2))
    match_px = rng.uniform(100, 500, size=(5, 2, 2))
    fd_err = max(
        fd_jacobian_error(_endpoint_system, ref, match, ref_px, match_px),
        fd_jacobian_error(_line_system, ref, match, ref_px, match_px),
    )
    elapsed = time.perf_counter() - t0
    ok = ratio >= 100.0 and spread < 2.0 and fd_err < 1e-4 and elapsed < 120.0
    report(
        5,
        "uncertainty degeneracy trend",
        ok,
        f"2deg/90deg={ratio:.0f}x>=100x endpoint spread={spread:.3f}<2 "
        f"fd={fd_err:.1e}<1e-4 time={elapsed:.0f}s<120s",
    )


# ---------------------------------------------------------------------------
# 6. invariance under global scene rescaling
# ---------------------------------------------------------------------------


def test_06_scale_invariance(noisy_scene, noisy_unrefined):
    scene, obs, _ = noisy_scene
    tau = 0.01 * scene_diameter(scene)
    base = noisy_unrefined
    base_segs = [t.segment for t in base.tracks]
    base_rep = evaluate_segments(scene.segments3d, base_segs, taus=(tau,))

    def scaled_views(s):
        return {
            i: type(v)(K=v.K, R=v.R, t=s * v.t, width=v.width, height=v.height)
            for i, v in scene.views.items()
        }

    worst_geo = worst_metric = 0.0
    members_equal = True
    for s in (1e-3, 1e3):
        inp = PipelineInput(
            views=scaled_views(s),
            detections=obs.detections,
            matches=obs.matches,
            points3d=s * scene.junctions,
            point_obs=obs.points2d,
        )
        res = run_pipeline(inp, PipelineConfig(optimize=False))
        members_equal &= [t.supports for t in res.tracks] == [
            t.supports for t in base.tracks
        ]
        members_equal &= res.stats["accepted"] == base.stats["accepted"]
        for t, b in zip(res.tracks, base.tracks):
            den = max(1.0, np.abs(b.segment.endpoints()).max())
            worst_geo = max(
                worst_geo,
                np.abs(t.segment.endpoints() / s - b.segment.endpoints()).max() / den,
            )
        gt = [type(g)(s * g.start, s * g.end) for g in scene.segments3d]
        segs = [t.segment for t in res.tracks]
        rep = evaluate_segments(gt, segs, taus=(s * tau,))
        worst_metric = max(
            worst_metric,
            abs(rep.recall[0] - base_rep.recall[0]),
            abs(rep.inlier_pct[0] - base_rep.inlier_pct[0]) / 100.0,
        )
    ok = members_equal and worst_geo < 1e-9 and worst_metric < 1e-9
    report(
        6,
        "scale invariance",
        ok,
        f"memberships equal={members_equal} geometry rel={worst_geo:.1e} "
        f"recall/inlier drift={worst_metric:.1e} over s in {{1e-3,1e3}}",
    )


# ---------------------------------------------------------------------------
# 7. end-to-end mapping quality
# ---------------------------------------------------------------------------


def test_07_end_to_end_mapping(noisy_scene, noisy_refined, clean_scene, clean_result):
    scene, _, _ = noisy_scene
    result, noisy_time = noisy_refined
    tau = 0.01 * scene_diameter(scene)
    segs = [t.segment for t in result.tracks]
    rep = evaluate_segments(scene.segments3d, segs, taus=(tau,))
    recall, inliers = rep.recall[0], rep.inlier_pct[0]

    clean, clean_time = clean_result
    cscene, cobs, _ = clean_scene
    csegs = [t.segment for t in clean.tracks]
    crecall = evaluate_segments(cscene.segments3d, csegs, taus=(tau,)).recall[0]
    owners = Counter(track_to_gt(t, cobs) for t in clean.tracks)
    one_track_each = sorted(owners) == list(range(len(cscene.segments3d))) and set(
        owners.values()
    ) == {1}

    ok = (
        recall >= 0.90
        and inliers >= 90.0
        and crecall >= 0.999
        and one_track_each
        and noisy_time < 30.0
        and clean_time < 30.0
    )
    report(
        7,
        "end-to-end mapping",
        ok,
        f"noisy recall={recall:.3f}>=0.90 inliers={inliers:.0f}%>=90% "
        f"clean recall={crecall:.4f}>=0.999 one-track-per-line={one_track_each} "
        f"time={noisy_time:.0f}s/{clean_time:.0f}s<30s",
    )


# ---------------------------------------------------------------------------
# 8. joint refinement
# ---------------------------------------------------------------------------


def mean_perp_error(tracks, views, detections, lines=None):
    """Mean pixel distance from supporting endpoints to the projected lines.

    Each track's detections are scored against the projection of its own
    infinite line, or of ``lines[i]`` when alternative lines are given.
    """
    if lines is None:
        lines = [plucker_from_segment(t.segment) for t in tracks]
    total, n = 0.0, 0
    for t, line3d in zip(tracks, lines):
        for img, di in t.supports:
            det = detections[img][di]
            line = project_line(line3d, views[img])
            for p in (det.start, det.end):
                total += point_to_infinite_line_2d(p, line)
                n += 1
    return total / n


def test_08_joint_refinement(noisy_scene, noisy_unrefined, noisy_refined):
    scene, obs, _ = noisy_scene
    pre = noisy_unrefined
    post, _ = noisy_refined
    e_pre = mean_perp_error(pre.tracks, scene.views, obs.detections)
    e_post = mean_perp_error(post.tracks, scene.views, obs.detections)
    gt_lines = [plucker_from_segment(scene.segments3d[track_to_gt(t, obs)]) for t in pre.tracks]
    e_gt = mean_perp_error(pre.tracks, scene.views, obs.detections, gt_lines)

    # with ground-truth VP associations every parallel group must tighten
    axes = [int(scene.segment_axis[track_to_gt(t, obs)]) for t in pre.tracks]
    problem = JointProblem(views=scene.views)
    problem.lines = [plucker_to_minimal(plucker_from_segment(t.segment)) for t in pre.tracks]
    problem.line_obs = [
        (li, img, obs.detections[img][di])
        for li, t in enumerate(pre.tracks)
        for img, di in t.supports
    ]
    problem.vps = scene.vp_directions.copy()
    problem.line_vp = [
        (li, axes[li], float(len(t.supports))) for li, t in enumerate(pre.tracks)
    ]
    problem.vp_ortho = vp_orthogonal_pairs(problem.vps)
    refined = optimize(problem, OptimizeConfig())

    # Under 1 px endpoint noise little of the error can be removed at all
    # (ground-truth lines score worse than the unrefined ones), so a fixed
    # cut of the raw error is out of reach.  A line-only least-squares refit
    # of the unrefined tracks (no angle weight, a Cauchy scale far above the
    # residuals) marks what a line fit reaches; refinement must close a
    # share of the gap down to it.
    oracle = optimize(
        JointProblem(views=scene.views, lines=problem.lines, line_obs=problem.line_obs),
        OptimizeConfig(angle_weight_alpha=0.0, line_loss_scale=1e3),
    )
    e_ls = mean_perp_error(
        pre.tracks, scene.views, obs.detections, [minimal_to_plucker(l) for l in oracle.lines]
    )
    gap = e_pre - e_ls
    oracle_ok = oracle.termination in ("cost", "gradient") and gap > 0.0
    closed = (e_pre - e_post) / gap if gap > 0.0 else float("nan")

    dirs_pre = [t.segment.direction for t in pre.tracks]
    dirs_post = [minimal_to_plucker(l).d for l in refined.lines]
    groups_tighten = True
    for axis in range(3):
        idx = [i for i, a in enumerate(axes) if a == axis]
        if len(idx) < 2:
            continue
        worst_pre = max(
            acute_angle(dirs_pre[i], dirs_pre[j]) for i in idx for j in idx if i < j
        )
        worst_post = max(
            acute_angle(dirs_post[i], dirs_post[j]) for i in idx for j in idx if i < j
        )
        groups_tighten &= worst_post < worst_pre

    # a VP pair 2 degrees away from orthogonal must snap onto it
    a = np.radians(88.0)
    toy = JointProblem(
        views={},
        vps=np.array([[1.0, 0.0, 0.0], [np.cos(a), np.sin(a), 0.0]]),
        vp_ortho=[(0, 1)],
    )
    toy_res = optimize(toy, OptimizeConfig())
    toy_angle = np.degrees(acute_angle(toy_res.vps[0], toy_res.vps[1]))

    ok = (
        oracle_ok
        and e_post <= e_pre - 0.20 * gap
        and groups_tighten
        and abs(toy_angle - 90.0) <= 0.01
    )
    report(
        8,
        "joint refinement",
        ok,
        f"perp error pre={e_pre:.3f} post={e_post:.3f} ls={e_ls:.3f} gt={e_gt:.3f}px "
        f"gap closed={100*closed:.0f}% (need >=20%) "
        f"ls oracle={oracle.iterations}it/{oracle.termination} "
        f"opt={post.stats['opt_iterations']}it/{post.stats['opt_termination']} "
        f"vp groups tighten={groups_tighten} toy vp angle={toy_angle:.4f}deg",
    )


# ---------------------------------------------------------------------------
# 9. structural association recovery
# ---------------------------------------------------------------------------


def test_09_association_recovery(clean_scene, clean_result):
    scene, obs, _ = clean_scene
    result, _ = clean_result
    gt_edges = {(j, s) for j, s in scene.junction_edges}
    mapped = {
        (point_idx, track_to_gt(result.tracks[track_idx], obs))
        for point_idx, track_idx in result.point_line_edges
    }
    edges_exact = mapped == gt_edges and len(mapped) == len(result.point_line_edges)

    # each VP track must correspond to one GT axis and collect exactly the
    # tracks of that axis
    vp_axis = {}
    for vi, vt in enumerate(result.vp_tracks):
        angles = [acute_angle(vt.direction, ax) for ax in scene.vp_directions]
        vp_axis[vi] = int(np.argmin(angles))
    groups_exact = len(result.vp_tracks) == 3 and sorted(vp_axis.values()) == [0, 1, 2]
    grouped = {}
    for track_idx, vp_idx in result.line_vp_edges:
        grouped.setdefault(vp_axis[vp_idx], set()).add(
            int(scene.segment_axis[track_to_gt(result.tracks[track_idx], obs)])
        )
    groups_exact &= all(v == {axis} for axis, v in grouped.items())
    groups_exact &= len(result.line_vp_edges) == len(result.tracks)

    ok = edges_exact and groups_exact
    report(
        9,
        "association recovery",
        ok,
        f"junction edges {len(mapped)}/{len(gt_edges)} exact={edges_exact} "
        f"vp grouping exact={groups_exact}",
    )


# ---------------------------------------------------------------------------
# 10. depth-guided segment fitting
# ---------------------------------------------------------------------------


def test_10_depth_fitting():
    from linemap.depthfit import fit_segment_to_depth
    from linemap.geometry import point_line_distance_3d
    from linemap.synthetic import make_depth_scene

    n = 200
    good = 0
    for i in range(n):
        rng = np.random.default_rng(1000 + i)
        view, depth, seg2d, gt3d = make_depth_scene(rng, occluded_fraction=0.3)
        fit = fit_segment_to_depth(seg2d, view, depth, seed=i)
        if fit is None:
            continue
        gt_line = PluckerLine.from_two_points(gt3d.start, gt3d.end)
        ts = np.linspace(0.0, 1.0, 32)
        pts = (
            fit.segment.start[None]
            + ts[:, None] * (fit.segment.end - fit.segment.start)[None]
        )
        if max(point_line_distance_3d(p, gt_line) for p in pts) <= fit.threshold:
            good += 1
    ok = good >= 0.95 * n
    report(
        10,
        "depth-guided fitting",
        ok,
        f"{good}/{n} fits within the scale-adaptive threshold at 30% occlusion",
    )


# ---------------------------------------------------------------------------
# 11. determinism and CLI failure contract
# ---------------------------------------------------------------------------


def test_11_determinism_and_cli(noisy_scene, noisy_refined, tmp_path, capsys):
    _, _, inp = noisy_scene
    first, _ = noisy_refined
    repeat = run_pipeline(inp, PipelineConfig())
    identical = payload_bytes(first) == payload_bytes(repeat)

    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "cameras.json").write_text('{"0": {"K": "nope"}}\n')
    code = cli_main(
        ["map", "--input", str(broken), "--output", str(tmp_path / "out")]
    )
    err = capsys.readouterr().err
    diagnostic = code == 2 and str(broken / "cameras.json") in err

    ok = identical and diagnostic
    report(
        11,
        "determinism and CLI contract",
        ok,
        f"repeat run byte-identical={identical} "
        f"malformed input exit=2 naming file={diagnostic}",
    )

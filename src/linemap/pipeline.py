"""End-to-end mapping: detections and matches in, 3D line tracks out.

Stages: neighbor selection, per-image vanishing point estimation and
point-segment association, per-detection proposal triangulation with
degeneracy rescue, consistency-scored selection, track clustering,
cross-image VP tracks, joint refinement, and 3D association graph
extraction.  Everything runs in one thread, in image order, so the output
is identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .association import (
    VPTrack,
    associate_points_to_segments,
    build_vp_tracks,
    estimate_vps,
    vp_direction_world,
)
from .config import PipelineConfig
from .geometry import (
    CameraView,
    Segment2D,
    minimal_to_plucker,
    normalized,
    plucker_from_segment,
    plucker_to_minimal,
    project_segment,
)
from .optimize import (
    JointProblem,
    extract_line_vp_edges,
    extract_point_line_edges,
    optimize,
    segment_on_line_from_supports,
    soft_line_vp_weights,
    soft_point_line_weights,
    vp_orthogonal_pairs,
)
from .scoring import selection_pair_score
from .tracks import LineTrack, TrackCandidate, build_tracks
from .triangulation import (
    DegenerateTriangulationError,
    RayPlaneForm,
    TriangulationError,
    ray_plane_form,
    triangulate_algebraic,
    triangulate_line_point,
    triangulate_line_vp,
    triangulate_multipoint,
    weak_epipolar_iou,
)

__all__ = ["PipelineInput", "PipelineResult", "compute_neighbors", "run_pipeline"]

Node = tuple[int, int]


@dataclass
class PipelineInput:
    """Cameras, detections and optional cues; ``root`` is the dataset directory, if loaded."""

    views: dict[int, CameraView]
    detections: dict[int, list[Segment2D]]
    matches: dict[int, list[list[Node]]] | None = None
    points3d: np.ndarray | None = None
    point_obs: dict[int, list[tuple[int, np.ndarray]]] = field(default_factory=dict)
    neighbors: dict[int, list[int]] | None = None
    root: Path | None = None

    def depth_path(self, image_id: int) -> Path:
        return self.root / "depth" / f"{image_id}.bin"


@dataclass
class PipelineResult:
    tracks: list[LineTrack]
    vp_tracks: list[VPTrack]
    point_line_edges: list[tuple[int, int]]  # (global point idx, track idx)
    line_vp_edges: list[tuple[int, int]]  # (track idx, vp track idx)
    points3d: np.ndarray | None
    stats: dict


def compute_neighbors(
    images: list[int],
    point_obs: dict[int, list[tuple[int, np.ndarray]]],
    n_neighbors: int,
) -> dict[int, list[int]]:
    """Rank other images by Dice overlap of observed point ids.

    Without point observations every pair scores zero and the ranking
    falls back to ascending image id.
    """
    sets = {img: {pi for pi, _ in point_obs.get(img, [])} for img in images}
    out = {}
    for img in images:
        scored = []
        for other in images:
            if other == img:
                continue
            a, b = sets[img], sets[other]
            denom = len(a) + len(b)
            dice = 2.0 * len(a & b) / denom if denom else 0.0
            scored.append((-dice, other))
        scored.sort()
        out[img] = [other for _, other in scored[:n_neighbors]]
    return out


def _detection_proposals(
    img: int,
    view: CameraView,
    rays: tuple[np.ndarray, np.ndarray],
    kept: list[tuple[Node, RayPlaneForm]],
    config: PipelineConfig,
    assoc_pts: list[np.ndarray],
    vp_cam: np.ndarray | None,
) -> list[tuple[TrackCandidate, int]]:
    """Triangulated hypotheses for one detection, tagged by generating image."""
    proposals: list[tuple[TrackCandidate, int]] = []
    for (j, _), form in kept:
        try:
            seg = triangulate_algebraic(form, config.min_tri_angle_deg)
            proposals.append((TrackCandidate(seg, "algebraic"), j))
            continue
        except DegenerateTriangulationError:
            pass
        except TriangulationError:
            continue
        # degenerate ray/plane geometry: rescue with a point or a VP direction
        rescued = False
        for p in assoc_pts[:2]:
            try:
                seg = triangulate_line_point(form, p)
            except TriangulationError:
                continue
            proposals.append((TrackCandidate(seg, "point"), j))
            rescued = True
            break
        if not rescued and vp_cam is not None:
            try:
                seg = triangulate_line_vp(form, vp_cam)
                proposals.append((TrackCandidate(seg, "vp"), j))
            except TriangulationError:
                pass
    if len(assoc_pts) >= 2:
        try:
            seg = triangulate_multipoint(rays, view, np.array(assoc_pts))
            proposals.append((TrackCandidate(seg, "point"), img))
        except TriangulationError:
            pass
    return proposals


def _select_best(
    proposals: list[tuple[TrackCandidate, int]],
    ref_view: CameraView,
    views: dict[int, CameraView],
    config: PipelineConfig,
) -> TrackCandidate | None:
    """Keep the proposal best supported by proposals from other images.

    A proposal's support is the sum, over the other generating images, of
    its best pair score against that image's proposals; ties keep the first
    proposal.  The pair score is symmetric bit for bit, so each cross-image
    pair is scored once.  Each proposal is projected once into each
    generating image, and every pair reads those projections.
    """
    if not proposals:
        return None
    n = len(proposals)
    by_img: dict[int, list[int]] = {}
    for idx, (_, gen) in enumerate(proposals):
        by_img.setdefault(gen, []).append(idx)
    # with one generating image no pair is scored, so nothing is projected
    gens = list(by_img) if len(by_img) > 1 else []
    proj = [{j: project_segment(cand.segment, views[j]) for j in gens} for cand, _ in proposals]
    scores = [[0.0] * n for _ in range(n)]
    for a, (cand_a, gen_a) in enumerate(proposals):
        pa = proj[a]
        for b in range(a + 1, n):
            cand_b, gen_b = proposals[b]
            if gen_a != gen_b:
                pb = proj[b]
                scores[a][b] = scores[b][a] = selection_pair_score(
                    cand_a.segment,
                    cand_b.segment,
                    ref_view,
                    ((pa[gen_a], pb[gen_a]), (pa[gen_b], pb[gen_b])),
                    config,
                )
    best_idx = -1
    best_score = -1.0
    for idx, (_, gen) in enumerate(proposals):
        row = scores[idx]
        total = 0.0
        for j, others in by_img.items():
            if j != gen:
                total += max(row[oi] for oi in others)
        if total > best_score:
            best_score = total
            best_idx = idx
    if best_score >= config.accept_threshold:
        return proposals[best_idx][0]
    return None


def run_pipeline(data: PipelineInput, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    views = data.views
    images = sorted(views)
    neighbors = data.neighbors or compute_neighbors(images, data.point_obs, config.n_neighbors)
    neighbor_sets = {img: set(neighbors.get(img, ())) for img in images}

    # association table: each detection's points and VP node, looked up once
    det_points: dict[Node, list[int]] = {}  # global point ids, in association order
    det_vp: dict[Node, Node] = {}  # detection -> VP node (img, k)
    vp_cam: dict[Node, np.ndarray] = {}  # VP node -> camera-frame direction
    vp_world: dict[Node, np.ndarray] = {}  # VP node -> world direction
    # ray table: each detection's endpoint rays in normalized coordinates, solved once
    det_rays: dict[Node, tuple[np.ndarray, np.ndarray]] = {}
    for img in images:
        dets = data.detections[img]
        view = views[img]
        for di, det in enumerate(dets):
            det_rays[(img, di)] = (
                view.pixel_to_normalized(det.start),
                view.pixel_to_normalized(det.end),
            )
        if config.use_vps:
            vps, assign = estimate_vps(
                dets,
                inlier_px=config.vp_inlier_px,
                min_support=config.vp_min_support,
                max_models=config.vp_max_models,
                seed=config.seed,
            )
            for k, vp in enumerate(vps):
                vp_cam[(img, k)] = normalized(np.linalg.solve(views[img].K, vp))
                vp_world[(img, k)] = vp_direction_world(views[img], vp)
            for di, k in enumerate(assign):
                if k >= 0:
                    det_vp[(img, di)] = (img, int(k))
        entries = data.point_obs.get(img, [])
        if config.use_points and data.points3d is not None and entries:
            xy = np.array([p for _, p in entries]).reshape(-1, 2)
            for li, si in associate_points_to_segments(xy, dets, config.point_assoc_px):
                det_points.setdefault((img, si), []).append(entries[li][0])

    candidates: dict[Node, TrackCandidate] = {}
    all_edges: list[tuple[Node, Node]] = []
    n_proposals = 0
    for img in images:
        view = views[img]
        rows = data.matches.get(img, []) if data.matches else []
        for di in range(len(data.detections[img])):
            node = (img, di)
            rays = det_rays[node]
            row = rows[di] if di < len(rows) else []
            kept: list[tuple[Node, RayPlaneForm]] = []
            for j, dj in row:
                if j == img or j not in neighbor_sets[img]:
                    continue
                if len(kept) >= config.top_k_matches:
                    break
                # a match without a match plane scores IoU 0
                form = ray_plane_form(view, rays, views[j], det_rays[(j, dj)])
                if form is not None and weak_epipolar_iou(form) >= config.iou_min:
                    kept.append(((j, dj), form))
            proposals = _detection_proposals(
                img,
                view,
                rays,
                kept,
                config,
                [data.points3d[pi] for pi in det_points.get(node, ())],
                vp_cam.get(det_vp.get(node)),
            )
            n_proposals += len(proposals)
            best = _select_best(proposals, view, views, config)
            if best is not None:
                candidates[node] = best
                all_edges.extend((node, mn) for mn, _ in kept)

    tracks = build_tracks(candidates, all_edges, views, config)

    # cross-image VP tracks, linked by co-support of line tracks
    vp_tracks: list[VPTrack] = []
    if config.use_vps and tracks:
        shared: dict[tuple[Node, Node], int] = {}
        for t in tracks:
            nodes = {det_vp[s] for s in t.supports if s in det_vp}
            for a in nodes:
                for b in nodes:
                    if a < b and a[0] != b[0]:
                        shared[(a, b)] = shared.get((a, b), 0) + 1
        vp_tracks = build_vp_tracks(
            vp_world,
            shared,
            min_shared=config.vp_track_min_shared,
            max_angle_deg=config.vp_track_max_angle_deg,
        )

    line_supports = [t.supports for t in tracks]
    pl_weights: list[tuple[int, int, float]] = []
    if config.use_points and data.points3d is not None and tracks:
        pl_weights = soft_point_line_weights(
            line_supports, det_points, min_weight=config.soft_min_weight
        )
    lv_weights: list[tuple[int, int, float]] = []
    if vp_tracks:
        lv_weights = soft_line_vp_weights(
            line_supports,
            [vt.members for vt in vp_tracks],
            det_vp,
            min_weight=config.soft_min_weight,
        )

    refined_points = None if data.points3d is None else np.array(data.points3d, copy=True)
    pid_list = sorted({pt for pt, _, _ in pl_weights})
    pid_map = {pt: i for i, pt in enumerate(pid_list)}
    opt_stats = {}
    if config.optimize and tracks:
        problem = JointProblem(
            views=views,
            points=(
                refined_points[pid_list] if pid_list else np.zeros((0, 3))
            ),
            lines=[plucker_to_minimal(plucker_from_segment(t.segment)) for t in tracks],
            vps=np.array([vt.direction for vt in vp_tracks]).reshape(-1, 3),
        )
        for img in images:
            for pi, xy in data.point_obs.get(img, []):
                if pi in pid_map:
                    problem.point_obs.append((pid_map[pi], img, xy))
        for ti, t in enumerate(tracks):
            for img, det in t.supports:
                problem.line_obs.append((ti, img, data.detections[img][det]))
        problem.point_line = [(pid_map[pt], li, w) for pt, li, w in pl_weights]
        problem.line_vp = [(li, vi, w) for li, vi, w in lv_weights]
        problem.vp_ortho = vp_orthogonal_pairs(problem.vps, config.ortho_angle_deg)
        result = optimize(problem, config.optimize_config())
        opt_stats = {
            "opt_initial_cost": result.initial_cost,
            "opt_final_cost": result.final_cost,
            "opt_iterations": result.iterations,
            "opt_termination": result.termination,
        }
        for ti, t in enumerate(tracks):
            line = minimal_to_plucker(result.lines[ti])
            seg = segment_on_line_from_supports(
                line, [(det_rays[s], views[s[0]]) for s in t.supports]
            )
            if seg is not None:
                t.segment = seg
        for vi, vt in enumerate(vp_tracks):
            vt.direction = result.vps[vi]
        for pt, i in pid_map.items():
            refined_points[pt] = result.points[i]

    # 3D association graphs on the refined geometry
    lines = [plucker_from_segment(t.segment) for t in tracks] if pl_weights or lv_weights else []
    point_line_edges: list[tuple[int, int]] = []
    if pl_weights:
        point_images: dict[int, list[int]] = {}
        for img in images:
            for pt, _ in data.point_obs.get(img, []):
                point_images.setdefault(pt, []).append(img)
        point_scales = np.array(
            [_min_depth_scale(refined_points[pt], point_images[pt], views) for pt in pid_list]
        )
        line_scales = np.array(
            [_min_depth_scale(t.segment.midpoint, t.image_ids, views) for t in tracks]
        )
        kept = extract_point_line_edges(
            refined_points[pid_list],
            point_scales,
            lines,
            line_scales,
            [(pid_map[pt], li) for pt, li, _ in pl_weights],
            max_ratio=config.assoc3d_max_ratio,
        )
        point_line_edges = sorted((pid_list[i], li) for i, li in kept)
    line_vp_edges: list[tuple[int, int]] = []
    if lv_weights:
        vdirs = np.array([vt.direction for vt in vp_tracks]).reshape(-1, 3)
        line_vp_edges = extract_line_vp_edges(
            lines,
            vdirs,
            [(li, vi) for li, vi, _ in lv_weights],
            max_angle_deg=config.assoc3d_max_angle_deg,
        )

    stats = {
        "images": len(images),
        "detections": sum(len(v) for v in data.detections.values()),
        "proposals": n_proposals,
        "accepted": len(candidates),
        "tracks": len(tracks),
        "vp_tracks": len(vp_tracks),
        "point_line_edges": len(point_line_edges),
        "line_vp_edges": len(line_vp_edges),
    }
    stats.update(opt_stats)
    return PipelineResult(
        tracks=tracks,
        vp_tracks=vp_tracks,
        point_line_edges=point_line_edges,
        line_vp_edges=line_vp_edges,
        points3d=refined_points,
        stats=stats,
    )


def _min_depth_scale(x: np.ndarray, images, views: dict[int, CameraView]) -> float:
    """Min depth/focal of ``x`` over images seeing it in front; 0 if none do."""
    depths = [(views[img].depth(x), views[img].focal) for img in images]
    return min((d / f for d, f in depths if d > 0), default=0.0)

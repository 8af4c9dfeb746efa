"""End-to-end mapping: detections and matches in, 3D line tracks out.

Stages: neighbor selection, per-image vanishing point estimation and
point-segment association, proposal triangulation (one array pass over
each reference image's matches) with degeneracy rescue, consistency-scored
selection, track clustering,
cross-image VP tracks, joint refinement, and 3D association graph
extraction.  Everything runs in one thread, in image order, so the output
is identical across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

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
    Segment3D,
    dot3,
    minimal_to_plucker,
    normalized,
    plucker_from_segment,
    plucker_to_minimal,
    relative_pose,
)
from .optimize import (
    JointProblem,
    OptimizeConfig,
    extract_line_vp_edges,
    extract_point_line_edges,
    optimize,
    segment_on_line_from_supports,
    soft_line_vp_weights,
    soft_point_line_weights,
    vp_orthogonal_pairs,
)
from .scoring import proposal_block, selection_pair_score
from .tracks import LineTrack, TrackCandidate, build_tracks
from .triangulation import (
    match_rows,
    triangulate_algebraic,
    triangulate_line_point,
    triangulate_line_vp,
    triangulate_multipoint,
    weak_epipolar_iou,
)

__all__ = ["PipelineInput", "PipelineResult", "compute_neighbors", "run_pipeline"]

Node = tuple[int, int]

TOP_K_MATCHES = 10  # matches past the IoU gate kept per detection, in match-list order
IOU_MIN = 0.1  # weak epipolar IoU a match needs to be triangulated
# the triangulation outcomes counted in ``stats``: kept matches that are
# degenerate, rescued through a point, through a VP direction or not at
# all, and the multi-point proposals
TRIANGULATION_STATS = (
    "degenerate_matches",
    "point_rescues",
    "vp_rescues",
    "unrescued_matches",
    "multipoint_proposals",
)


@dataclass
class PipelineInput:
    """Cameras, detections and optional cues."""

    views: dict[int, CameraView]
    detections: dict[int, list[Segment2D]]
    matches: dict[int, list[list[Node]]] | None = None
    points3d: np.ndarray | None = None
    point_obs: dict[int, list[tuple[int, np.ndarray]]] = field(default_factory=dict)
    neighbors: dict[int, list[int]] | None = None


@dataclass
class PipelineResult:
    tracks: list[LineTrack]
    vp_tracks: list[VPTrack]
    point_line_edges: list[tuple[int, int]]  # (global point idx, track idx)
    line_vp_edges: list[tuple[int, int]]  # (track idx, vp track idx)
    points3d: np.ndarray | None
    stats: dict


def compute_neighbors(
    views: dict[int, CameraView],
    point_obs: dict[int, list[tuple[int, np.ndarray]]],
    n_neighbors: int = 20,
) -> dict[int, list[int]]:
    """Rank other images by Dice overlap of observed point ids.

    Ties go to the nearer camera centre, then to the lower image id, so
    that without point observations, or where most points are seen from
    most views, each image's neighbours are the views around it rather than
    the lowest ids.  The centres (:attr:`~linemap.geometry.CameraView.camera_center`)
    and their squared distances are summed term by term
    (:func:`~linemap.geometry.dot3`), so the ranking does not depend on the
    BLAS kernel.
    """
    images = sorted(views)
    sets = {img: {pi for pi, _ in point_obs.get(img, [])} for img in images}
    centers = {img: views[img].camera_center.tolist() for img in images}
    out = {}
    for img in images:
        scored = []
        for other in images:
            if other == img:
                continue
            a, b = sets[img], sets[other]
            denom = len(a) + len(b)
            dice = 2.0 * len(a & b) / denom if denom else 0.0
            gap = [x - y for x, y in zip(centers[img], centers[other])]
            scored.append((-dice, dot3(gap, gap), other))
        scored.sort()
        out[img] = [other for *_, other in scored[:n_neighbors]]
    return out


class RayTable(NamedTuple):
    """Every detection's endpoint rays in normalized coordinates, ``(2, 3)``
    rows: detection ``d`` of ``images[k]`` is row ``first[k] + d`` of
    ``rays``."""

    images: np.ndarray
    first: np.ndarray
    rays: np.ndarray

    @classmethod
    def solve(
        cls, views: dict[int, CameraView], detections: dict[int, list[Segment2D]]
    ) -> RayTable:
        """The table of every image's detections, one broadcast solve per image."""
        images = sorted(views)
        rays = [np.zeros((0, 2, 3))]
        for img in images:
            pixels = np.array([(d.start, d.end) for d in detections[img]], dtype=np.float64)
            rays.append(views[img].pixel_to_normalized(pixels.reshape(-1, 2)).reshape(-1, 2, 3))
        first = np.cumsum([0] + [len(r) for r in rays[1:]])
        return cls(np.array(images, dtype=np.intp).reshape(-1), first, np.concatenate(rays))

    def of(self, img: int) -> np.ndarray:
        """The rows of image ``img``'s detections."""
        k = int(np.searchsorted(self.images, img))
        return self.rays[self.first[k] : self.first[k + 1]]

    def at(self, imgs: np.ndarray, dets: np.ndarray) -> np.ndarray:
        """The rows of detections ``dets[i]`` of images ``imgs[i]``.

        Raises:
            KeyError: if an image or a detection does not exist.
        """
        k = np.minimum(np.searchsorted(self.images, imgs), len(self.images) - 1)
        rows = self.first[k] + dets
        known = (self.images[k] == imgs) & (dets >= 0) & (rows < self.first[k + 1])
        if not known.all():
            i = int(np.argmin(known))
            raise KeyError(f"no detection {int(dets[i])} in image {int(imgs[i])}")
        return self.rays[rows]


class ImageProposals(NamedTuple):
    """The proposals of one reference image's detections, one row each.

    Rows are grouped by detection in detection order: within a detection,
    the algebraic or rescued proposal of each kept match in match order,
    then the multi-point one.  ``gens`` is each row's generating image and
    ``counts`` the number of rows of each detection.  ``kept`` lists each
    detection's kept matches, and ``outcomes`` counts the image's
    :data:`TRIANGULATION_STATS`.
    """

    start: np.ndarray
    end: np.ndarray
    sources: list[str]
    gens: list[int]
    counts: list[int]
    kept: list[list[Node]]
    outcomes: Counter


def _image_proposals(
    img: int,
    views: dict[int, CameraView],
    neighbors: list[int],
    rows: list[list[Node]],
    rays: RayTable,
    assoc_pts: list[list[np.ndarray]],
    vp_dirs: list[np.ndarray | None],
) -> ImageProposals:
    """Triangulated hypotheses for every detection of image ``img``.

    ``rows[d]`` is detection ``d``'s match list, ``assoc_pts[d]`` its
    associated 3D points and ``vp_dirs[d]`` its camera-frame VP direction
    or None.  Every match into a neighbour is one row of one block, which
    gets its form and its IoU gate.  The first :data:`TOP_K_MATCHES` rows
    of each detection that pass the gate are kept and triangulated as one
    block.  The degenerate rows go to the point rescue as one block with
    their detection's first associated point, those that fail it and have
    a second point to it again, and those still left to the VP rescue; the
    detections with two or more points get their multi-point proposals as
    one more block.
    """
    view, x = views[img], rays.of(img)
    matches = [m for row in rows for m in row]
    js, djs = np.array(matches, dtype=np.intp).reshape(len(matches), 2).T
    det = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    eligible = np.flatnonzero((js != img) & np.isin(js, neighbors))
    det, js, djs = det[eligible], js[eligible], djs[eligible]
    y = rays.at(js, djs)
    # the pose table: one relative pose per neighbour that a match reaches
    pair_images = np.unique(js)
    poses = [relative_pose(view, views[j]) for j in pair_images.tolist()]
    pose = np.searchsorted(pair_images, js)
    R = np.array([R for R, _ in poses]).reshape(-1, 3, 3)[pose]
    t = np.array([t for _, t in poses]).reshape(-1, 3)[pose]
    block = match_rows(view, R, t, x[det, 0], x[det, 1], y[:, 0], y[:, 1])
    # each detection keeps its first TOP_K_MATCHES rows past the gate, in match order
    hit = np.flatnonzero(weak_epipolar_iou(block) >= IOU_MIN)
    rank = np.arange(len(hit)) - np.searchsorted(det[hit], det[hit])
    kept = hit[rank < TOP_K_MATCHES]
    block, det, js, djs = block.take(kept), det[kept], js[kept], djs[kept]
    tri = triangulate_algebraic(block)
    start, end, found = tri.start, tri.end, tri.ok
    sources = ["algebraic"] * len(kept)
    # degenerate ray/plane geometry: rescue through the detection's first
    # point, then its second, then its VP direction
    outcomes = Counter(dict.fromkeys(TRIANGULATION_STATS, 0))
    left = np.flatnonzero(tri.bad1 | tri.bad2)
    outcomes["degenerate_matches"] = len(left)

    def rescue(solve, source: str, cues: list) -> None:
        """``solve`` the rows still ``left`` whose detection has a cue, as one block."""
        nonlocal left
        tried = left[[cues[d] is not None for d in det[left].tolist()]]
        if not len(tried):
            return
        out = solve(block.take(tried), np.array([cues[d] for d in det[tried].tolist()]))
        ok = out.failure == 0
        done = tried[ok]
        start[done], end[done], found[done] = out.start[ok], out.end[ok], True
        for i in done.tolist():
            sources[i] = source
        left = np.setdiff1d(left, done)
        outcomes[source + "_rescues"] += len(done)

    rescue(triangulate_line_point, "point", [p[0] if len(p) > 0 else None for p in assoc_pts])
    rescue(triangulate_line_point, "point", [p[1] if len(p) > 1 else None for p in assoc_pts])
    rescue(triangulate_line_vp, "vp", vp_dirs)
    outcomes["unrescued_matches"] = len(left)
    found = np.flatnonzero(found)
    owner, gens = det[found].tolist(), js[found].tolist()
    sources = [sources[i] for i in found.tolist()]
    start, end = [start[found]], [end[found]]
    # then each detection's multi-point proposal, after its match proposals
    multi = [d for d, pts in enumerate(assoc_pts) if len(pts) >= 2]
    if multi:
        pts = np.array([p for d in multi for p in assoc_pts[d]], dtype=np.float64)
        point_owner = np.repeat(np.arange(len(multi)), [len(assoc_pts[d]) for d in multi])
        fit = triangulate_multipoint(x[multi], view, pts, point_owner)
        ok = np.flatnonzero(fit.failure == 0)
        owner += [multi[i] for i in ok.tolist()]
        gens += [img] * len(ok)
        sources += ["point"] * len(ok)
        start.append(fit.start[ok])
        end.append(fit.end[ok])
        outcomes["multipoint_proposals"] = len(ok)
    order = np.argsort(
        2 * np.array(owner, dtype=np.intp) + (np.arange(len(owner)) >= len(found)), kind="stable"
    )
    kept_nodes: list[list[Node]] = [[] for _ in rows]
    for d, j, dj in zip(det.tolist(), js.tolist(), djs.tolist()):
        kept_nodes[d].append((j, dj))
    return ImageProposals(
        np.concatenate(start)[order],
        np.concatenate(end)[order],
        [sources[i] for i in order.tolist()],
        [gens[i] for i in order.tolist()],
        np.bincount(np.array(owner, dtype=np.intp), minlength=len(rows)).tolist(),
        kept_nodes,
        outcomes,
    )


def _select_best(
    props: ImageProposals,
    ref_view: CameraView,
    views: dict[int, CameraView],
    config: PipelineConfig,
) -> list[int | None]:
    """For each detection of one reference image, the row of its proposal
    best supported by proposals from other images, or None.

    A proposal's support is the sum, over the other generating images of
    its detection in order of first appearance, of its best pair score
    against that image's proposals; ties keep the first proposal.  The
    image's pairs are scored as one block, each proposal measured in the
    image that generated it.  The pair score is symmetric bit for bit, so
    each cross-image pair is scored once.
    """
    if not props.gens:
        return [None] * len(props.counts)
    counts = np.array(props.counts, dtype=np.intp)
    n = len(props.gens)
    det = np.repeat(np.arange(len(counts)), counts)
    # rank of each proposal's generating image within its detection, in order
    # of first appearance: number the (detection, image) groups by first row
    _, gen = np.unique(np.array(props.gens), return_inverse=True)
    _, head, group = np.unique(det * (gen.max() + 1) + gen, return_index=True, return_inverse=True)
    order = np.argsort(head)
    group_det = det[head[order]]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order)) - np.searchsorted(group_det, group_det)
    cols = rank[group]
    # every pair a < b of one detection, a first, then b, from different images
    after = np.cumsum(counts)[det] - np.arange(n) - 1
    a = np.repeat(np.arange(n), after)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(after) - after, after)
    cross = cols[a] != cols[b]
    a, b = a[cross], b[cross]
    block = proposal_block(props.start, props.end, props.gens, views, ref_view)
    scores = selection_pair_score(block, a, b, config)
    # best[i, r]: proposal i's best score against the r-th generating image of
    # its detection; its own image's column stays 0.0, which adds nothing
    best = np.zeros((n, int(cols.max()) + 1))
    np.maximum.at(best, (a, cols[b]), scores)
    np.maximum.at(best, (b, cols[a]), scores)
    support = best[:, 0]
    for r in range(1, best.shape[1]):
        support = support + best[:, r]  # one image at a time, as a sequential sum
    # each detection's first row of largest support, as max() keeps the first
    # of equal keys (no support is NaN)
    filled = np.flatnonzero(counts)
    top = np.maximum.reduceat(support, (np.cumsum(counts) - counts)[filled])
    hit = np.flatnonzero(support == np.repeat(top, counts[filled]))
    winners, first = np.unique(det[hit], return_index=True)
    chosen = np.full(len(counts), -1)
    chosen[winners] = hit[first]
    accept = (chosen >= 0) & (support[chosen] >= config.accept_threshold)
    return [int(k) if ok else None for k, ok in zip(chosen.tolist(), accept.tolist())]


def run_pipeline(data: PipelineInput, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    views = data.views
    images = sorted(views)
    neighbors = data.neighbors or compute_neighbors(views, data.point_obs)

    # association table: each detection's points and VP node, looked up once
    det_points: dict[Node, list[int]] = {}  # global point ids, in association order
    det_vp: dict[Node, Node] = {}  # detection -> VP node (img, k)
    vp_cam: dict[Node, np.ndarray] = {}  # VP node -> camera-frame direction
    vp_world: dict[Node, np.ndarray] = {}  # VP node -> world direction
    # ray table: each detection's endpoint rays in normalized coordinates
    rays = RayTable.solve(views, data.detections)
    for img in images:
        dets = data.detections[img]
        if config.use_vps:
            vps, assign = estimate_vps(dets)
            for k, vp in enumerate(vps):
                vp_cam[(img, k)] = normalized(np.linalg.solve(views[img].K, vp))
                vp_world[(img, k)] = vp_direction_world(views[img], vp)
            for di, k in enumerate(assign):
                if k >= 0:
                    det_vp[(img, di)] = (img, int(k))
        entries = data.point_obs.get(img, [])
        if config.use_points and data.points3d is not None and entries:
            xy = np.array([p for _, p in entries]).reshape(-1, 2)
            for li, si in associate_points_to_segments(xy, dets):
                det_points.setdefault((img, si), []).append(entries[li][0])

    candidates: dict[Node, TrackCandidate] = {}
    all_edges: list[tuple[Node, Node]] = []
    n_proposals = 0
    outcomes = Counter(dict.fromkeys(TRIANGULATION_STATS, 0))
    for img in images:
        view = views[img]
        n_dets = len(data.detections[img])
        rows = data.matches.get(img, []) if data.matches else []
        rows = [rows[di] if di < len(rows) else [] for di in range(n_dets)]
        nodes = [(img, di) for di in range(n_dets)]
        # triangulate every detection's proposals, then select within the image
        # at once: selection never feeds back into proposal generation
        props = _image_proposals(
            img,
            views,
            list(neighbors.get(img, ())),
            rows,
            rays,
            [[data.points3d[pi] for pi in det_points.get(node, ())] for node in nodes],
            [vp_cam.get(det_vp.get(node)) for node in nodes],
        )
        n_proposals += len(props.gens)
        outcomes.update(props.outcomes)
        selected = _select_best(props, view, views, config)
        for node, best, matched in zip(nodes, selected, props.kept):
            if best is not None:
                seg = Segment3D(props.start[best].copy(), props.end[best].copy())
                candidates[node] = TrackCandidate(seg, props.sources[best])
                all_edges.extend((node, mn) for mn in matched)

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
        vp_tracks = build_vp_tracks(vp_world, shared)

    line_supports = [t.supports for t in tracks]
    pl_weights: list[tuple[int, int, float]] = []
    if config.use_points and data.points3d is not None and tracks:
        pl_weights = soft_point_line_weights(line_supports, det_points)
    lv_weights: list[tuple[int, int, float]] = []
    if vp_tracks:
        lv_weights = soft_line_vp_weights(line_supports, [vt.members for vt in vp_tracks], det_vp)

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
        problem.vp_ortho = vp_orthogonal_pairs(problem.vps)
        result = optimize(problem, OptimizeConfig(max_iterations=config.opt_max_iterations))
        opt_stats = {
            "opt_initial_cost": result.initial_cost,
            "opt_final_cost": result.final_cost,
            "opt_iterations": result.iterations,
            "opt_termination": result.termination,
        }
        # trim every refined line to its supports' rays, as one block
        support_images = [img for t in tracks for img, _ in t.supports]
        segments = segment_on_line_from_supports(
            [minimal_to_plucker(param) for param in result.lines],
            rays.at(
                np.array(support_images, dtype=np.intp),
                np.array([di for t in tracks for _, di in t.supports], dtype=np.intp),
            ),
            [views[img] for img in support_images],
            np.repeat(np.arange(len(tracks)), [len(t.supports) for t in tracks]),
        )
        for t, seg in zip(tracks, segments):
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
        )
        point_line_edges = sorted((pid_list[i], li) for i, li in kept)
    line_vp_edges: list[tuple[int, int]] = []
    if lv_weights:
        vdirs = np.array([vt.direction for vt in vp_tracks]).reshape(-1, 3)
        line_vp_edges = extract_line_vp_edges(lines, vdirs, [(li, vi) for li, vi, _ in lv_weights])

    stats = {
        "images": len(images),
        "detections": sum(len(v) for v in data.detections.values()),
        "proposals": n_proposals,
        **outcomes,
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

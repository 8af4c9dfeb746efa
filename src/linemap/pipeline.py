"""End-to-end mapping: detections and matches in, 3D line tracks out.

Stages: neighbor selection, per-image vanishing point estimation and
point-segment association, proposal triangulation (one array pass over
each reference image's matches) with degeneracy rescue (one block per run
and cue), consistency-scored selection, track clustering, cross-image VP
tracks, joint refinement, and 3D association graph
extraction.  Everything runs in one thread, in image order, so the output
is identical across runs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
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
    AlgebraicRows,
    MatchRows,
    Poses,
    join_rows,
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


class ImageCues(NamedTuple):
    """What one reference image's proposals are made from, besides the rays.

    ``rows[d]`` is detection ``d``'s match list, ``points[d]`` its associated
    3D points in association order and ``vp_dirs[d]`` its camera-frame VP
    direction or None.
    """

    img: int
    neighbors: list[int]
    rows: list[list[Node]]
    points: list[list[np.ndarray]]
    vp_dirs: list[np.ndarray | None]


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


class _Triangulated(NamedTuple):
    """One reference image's kept matches, one row each in detection and
    match order: each row's detection, matched image and matched detection,
    the rows' algebraic triangulation, the degenerate rows (``left``) and
    their forms (``block``)."""

    det: np.ndarray
    js: np.ndarray
    djs: np.ndarray
    tri: AlgebraicRows
    left: np.ndarray
    block: MatchRows


def _triangulate_image(views: dict[int, CameraView], rays: RayTable, cue: ImageCues) -> _Triangulated:
    """Every match of ``cue.img`` into a neighbour is one row of one block,
    which gets its form and its IoU gate.  The first :data:`TOP_K_MATCHES`
    rows of each detection that pass the gate are kept and triangulated as
    one block."""
    img, rows = cue.img, cue.rows
    view, x = views[img], rays.of(img)
    matches = [m for row in rows for m in row]
    js, djs = np.array(matches, dtype=np.intp).reshape(len(matches), 2).T
    det = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    eligible = np.flatnonzero((js != img) & np.isin(js, cue.neighbors))
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
    block = block.take(kept)
    tri = triangulate_algebraic(block)
    left = np.flatnonzero(tri.bad1 | tri.bad2)
    return _Triangulated(det[kept], js[kept], djs[kept], tri, left, block.take(left))


def _rescue(block: MatchRows, points: list[list[np.ndarray]], vp_dirs: list[np.ndarray | None]):
    """Rescue each degenerate row of ``block`` through its detection's first
    point, then its second, then its VP direction (``points[i]`` and
    ``vp_dirs[i]`` are row ``i``'s): one block per cue, whatever the rows'
    reference images.  Returns each row's source (``"point"``, ``"vp"`` or
    ``""`` for none) and its ``(m, 3)`` endpoints, placeholders where it has
    no source."""
    source = np.full(len(block.c), "", dtype="U5")
    start, end = np.zeros((len(source), 3)), np.zeros((len(source), 3))
    left = np.arange(len(source))

    def rescue(solve, name: str, cues: list) -> None:
        """``solve`` the rows still ``left`` that have a cue, as one block."""
        nonlocal left
        tried = left[[cues[i] is not None for i in left.tolist()]]
        if not len(tried):
            return
        out = solve(block.take(tried), np.array([cues[i] for i in tried.tolist()]))
        ok = out.failure == 0
        done = tried[ok]
        start[done], end[done], source[done] = out.start[ok], out.end[ok], name
        left = np.setdiff1d(left, done)

    rescue(triangulate_line_point, "point", [p[0] if len(p) > 0 else None for p in points])
    rescue(triangulate_line_point, "point", [p[1] if len(p) > 1 else None for p in points])
    rescue(triangulate_line_vp, "vp", vp_dirs)
    return source, start, end


def _proposals(
    views: dict[int, CameraView], rays: RayTable, cues: list[ImageCues]
) -> Iterator[ImageProposals]:
    """Triangulated hypotheses for every detection of each image of ``cues``,
    one :class:`ImageProposals` per image in that order.

    Each image's matches are formed, gated and triangulated as one block
    (:func:`_triangulate_image`).  Then the degenerate rows of every image
    go to the rescue together (:func:`_rescue`), and the detections of
    every image with two or more points get their multi-point proposals as
    one block.  A row's outcome does not depend on the other rows of its
    block, so each proposal is the one that a block per image gives.  Each
    image's proposals are assembled as they are asked for, and its rows
    are let go once they are.
    """
    fronts = [_triangulate_image(views, rays, cue) for cue in cues]
    degenerate = np.cumsum([len(f.left) for f in fronts])
    rescued = [(np.full(0, "", dtype="U5"), np.zeros((0, 3)), np.zeros((0, 3)))] * len(cues)
    if len(cues) and degenerate[-1]:
        dets = [f.det[f.left].tolist() for f in fronts]
        points = [cue.points[d] for cue, ds in zip(cues, dets) for d in ds]
        vp_dirs = [cue.vp_dirs[d] for cue, ds in zip(cues, dets) for d in ds]
        outcome = _rescue(join_rows([f.block for f in fronts]), points, vp_dirs)
        rescued = list(zip(*(np.split(values, degenerate[:-1]) for values in outcome)))
    multi = [[d for d, pts in enumerate(cue.points) if len(pts) >= 2] for cue in cues]
    fits = [None] * len(cues)
    if any(multi):
        groups = [cue.points[d] for cue, ds in zip(cues, multi) for d in ds]
        fit = triangulate_multipoint(
            np.concatenate([rays.of(cue.img)[ds] for cue, ds in zip(cues, multi)]),
            Poses.join([Poses.of(views[cue.img], len(ds)) for cue, ds in zip(cues, multi)]),
            np.array([p for pts in groups for p in pts], dtype=np.float64),
            np.repeat(np.arange(len(groups)), [len(pts) for pts in groups]),
        )
        cuts = np.cumsum([len(ds) for ds in multi])[:-1]
        fits = list(zip(*(np.split(values, cuts) for values in fit)))
    for k, cue in enumerate(cues):
        yield _image_proposals(cue, fronts[k], rescued[k], multi[k], fits[k])
        fronts[k] = rescued[k] = fits[k] = None


def _image_proposals(cue: ImageCues, front: _Triangulated, rescued, multi: list[int], fit) -> ImageProposals:
    """One image's proposals from its triangulated rows, its degenerate rows'
    rescue (``(source, start, end)`` of :func:`_rescue`) and the multi-point
    ``fit`` (``(failure, start, end)``) of its detections ``multi``."""
    det, js, djs, tri, left, _ = front
    source, r_start, r_end = rescued
    start, end, found = tri.start, tri.end, tri.ok
    sources = ["algebraic"] * len(det)
    done = np.flatnonzero(source != "")
    rows = left[done]
    start[rows], end[rows], found[rows] = r_start[done], r_end[done], True
    for i, name in zip(rows.tolist(), source[done].tolist()):
        sources[i] = name
    outcomes = Counter(dict.fromkeys(TRIANGULATION_STATS, 0))
    outcomes["degenerate_matches"] = len(left)
    for name in source[done].tolist():
        outcomes[name + "_rescues"] += 1
    outcomes["unrescued_matches"] = len(left) - len(done)
    found = np.flatnonzero(found)
    owner, gens = det[found].tolist(), js[found].tolist()
    sources = [sources[i] for i in found.tolist()]
    start, end = [start[found]], [end[found]]
    # then each detection's multi-point proposal, after its match proposals
    if multi:
        failure, fit_start, fit_end = fit
        ok = np.flatnonzero(failure == 0)
        owner += [multi[i] for i in ok.tolist()]
        gens += [cue.img] * len(ok)
        sources += ["point"] * len(ok)
        start.append(fit_start[ok])
        end.append(fit_end[ok])
        outcomes["multipoint_proposals"] = len(ok)
    order = np.argsort(
        2 * np.array(owner, dtype=np.intp) + (np.arange(len(owner)) >= len(found)), kind="stable"
    )
    kept_nodes: list[list[Node]] = [[] for _ in cue.rows]
    for d, j, dj in zip(det.tolist(), js.tolist(), djs.tolist()):
        kept_nodes[d].append((j, dj))
    return ImageProposals(
        np.concatenate(start)[order],
        np.concatenate(end)[order],
        [sources[i] for i in order.tolist()],
        [gens[i] for i in order.tolist()],
        np.bincount(np.array(owner, dtype=np.intp), minlength=len(cue.rows)).tolist(),
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

    cues = []
    for img in images:
        n_dets = len(data.detections[img])
        rows = data.matches.get(img, []) if data.matches else []
        nodes = [(img, di) for di in range(n_dets)]
        cues.append(
            ImageCues(
                img,
                list(neighbors.get(img, ())),
                [rows[di] if di < len(rows) else [] for di in range(n_dets)],
                [[data.points3d[pi] for pi in det_points.get(node, ())] for node in nodes],
                [vp_cam.get(det_vp.get(node)) for node in nodes],
            )
        )

    candidates: dict[Node, TrackCandidate] = {}
    all_edges: list[tuple[Node, Node]] = []
    n_proposals = 0
    outcomes = Counter(dict.fromkeys(TRIANGULATION_STATS, 0))
    # every image's proposals, then selection within each image: selection
    # never feeds back into proposal generation
    for cue, props in zip(cues, _proposals(views, rays, cues)):
        n_proposals += len(props.gens)
        outcomes.update(props.outcomes)
        selected = _select_best(props, views[cue.img], views, config)
        for di, (best, matched) in enumerate(zip(selected, props.kept)):
            if best is not None:
                node = (cue.img, di)
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

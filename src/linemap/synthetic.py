"""Synthetic Manhattan-world scenes with known ground truth.

The scene is a wireframe box with inset grid lines on three faces plus a
few floating axis-aligned struts, observed by a ring of cameras.  All
segments are parallel to one of the three coordinate axes, grid crossings
provide junction points lying on exactly two lines, and the axes serve as
ground-truth vanishing directions.  Observation synthesis fragments each
projected segment into overlapping detections, adds Gaussian pixel noise,
optionally drops detections, and can inject wrong matches.

A separate helper builds slanted-plane depth maps with occluder patches
for exercising the depth-fitting stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .depthfit import DepthMap, backproject_samples
from .geometry import (
    CameraView,
    Segment2D,
    Segment3D,
    closest_point_line_to_line,
    intrinsics_matrix,
    normalized,
    point_line_distance_3d,
    plucker_from_segment,
    project_segment,
    sample_segment,
)

__all__ = [
    "SceneConfig",
    "SyntheticScene",
    "build_scene",
    "ring_views",
    "ObservationConfig",
    "SyntheticObservations",
    "observe_scene",
    "make_depth_scene",
]


@dataclass(frozen=True)
class SceneConfig:
    n_views: int = 8
    image_width: int = 640
    image_height: int = 480
    focal: float = 600.0
    ring_radius: float = 5.0
    ring_height: float = 0.8
    n_segments: int = 40
    seed: int = 0


@dataclass
class SyntheticScene:
    config: SceneConfig
    views: dict[int, CameraView]
    segments3d: list[Segment3D]
    segment_axis: np.ndarray  # axis id (0, 1, 2) per segment
    junctions: np.ndarray  # (J, 3) crossing points
    junction_edges: list[tuple[int, int]]  # (junction idx, segment idx)
    vp_directions: np.ndarray  # (3, 3) unit rows


def _look_at_rotation(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    forward = normalized(target - center)
    up = np.array([0.0, -1.0, 0.0])
    right = normalized(np.cross(up, forward))
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def ring_views(config: SceneConfig) -> dict[int, CameraView]:
    K = intrinsics_matrix(config.focal, config.image_width / 2.0, config.image_height / 2.0)
    views = {}
    for i in range(config.n_views):
        a = 2.0 * math.pi * i / config.n_views
        center = np.array(
            [
                config.ring_radius * math.cos(a),
                config.ring_height * math.sin(2.0 * a + 0.7),
                config.ring_radius * math.sin(a),
            ]
        )
        R = _look_at_rotation(center, np.zeros(3))
        views[i] = CameraView(
            K=K, R=R, t=-R @ center, width=config.image_width, height=config.image_height
        )
    return views


def _axis_segment(axis: int, lo: float, hi: float, coords: tuple[float, float]) -> Segment3D:
    """Segment along ``axis`` from lo to hi; the other two coords are fixed."""
    others = [i for i in range(3) if i != axis]
    a = np.zeros(3)
    a[axis] = lo
    a[others[0]], a[others[1]] = coords
    b = a.copy()
    b[axis] = hi
    return Segment3D(a, b)


def _grid_face(axis_u: int, axis_v: int, fixed_axis: int, fixed_val: float):
    """Two triples of crossing inset lines on one box face."""
    segments = []
    axes = []
    offsets = (-0.5, 0.0, 0.5)
    for off in offsets:
        segments.append(_axis_segment(axis_u, -0.9, 0.9, _fixed_coords(axis_u, axis_v, off, fixed_axis, fixed_val)))
        axes.append(axis_u)
    for off in offsets:
        segments.append(_axis_segment(axis_v, -0.9, 0.9, _fixed_coords(axis_v, axis_u, off, fixed_axis, fixed_val)))
        axes.append(axis_v)
    return segments, axes


def _fixed_coords(axis: int, cross_axis: int, cross_val: float, fixed_axis: int, fixed_val: float):
    """Values of the two non-``axis`` coordinates in ascending axis order."""
    others = [i for i in range(3) if i != axis]
    vals = {cross_axis: cross_val, fixed_axis: fixed_val}
    return (vals[others[0]], vals[others[1]])


def build_scene(config: SceneConfig = SceneConfig()) -> SyntheticScene:
    rng = np.random.default_rng(config.seed)
    segments: list[Segment3D] = []
    axes: list[int] = []

    # 12 box edges
    for axis in range(3):
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                segments.append(_axis_segment(axis, -1.0, 1.0, (s1, s2)))
                axes.append(axis)

    # inset crossing grids on three mutually orthogonal faces
    for axis_u, axis_v, fixed_axis, fixed_val in ((0, 2, 1, -1.0), (0, 1, 2, 1.0), (1, 2, 0, -1.0)):
        segs, axs = _grid_face(axis_u, axis_v, fixed_axis, fixed_val)
        segments.extend(segs)
        axes.extend(axs)

    # floating struts away from everything else, up to the requested count
    placed = np.array([p for s in segments for p in (s.start, s.end)])
    attempts = 0
    while len(segments) < config.n_segments and attempts < 1000:
        attempts += 1
        axis = attempts % 3
        coords = rng.uniform(-0.7, 0.7, size=2)
        lo = rng.uniform(-0.8, -0.2)
        hi = rng.uniform(0.2, 0.8)
        cand = _axis_segment(axis, lo, hi, (coords[0], coords[1]))
        line = plucker_from_segment(cand)
        # distance of every placed endpoint to the candidate's line
        feet = placed + np.cross(line.d, line.m + np.cross(line.d, placed))
        if np.linalg.norm(placed - feet, axis=1).min() < 0.15:
            continue
        segments.append(cand)
        axes.append(axis)
        placed = np.concatenate([placed, [cand.start, cand.end]])
    if len(segments) < config.n_segments:
        raise ValueError(f"build_scene: placed {len(segments)} of {config.n_segments} requested")
    segments = segments[: config.n_segments]
    axes = axes[: config.n_segments]

    # junctions: pairwise crossings of distinct-axis segments (inset grids)
    junctions = []
    edges = []
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if axes[i] == axes[j]:
                continue
            si, sj = segments[i], segments[j]
            li, lj = plucker_from_segment(si), plucker_from_segment(sj)
            # candidate crossing: closest point between supporting lines
            try:
                p = closest_point_line_to_line(li, lj)
            except ValueError:
                continue
            if point_line_distance_3d(p, li) > 1e-9 or point_line_distance_3d(p, lj) > 1e-9:
                continue
            for s in (si, sj):
                t = (p - s.start) @ s.direction
                if t < 0.05 or t > s.length - 0.05:
                    break
            else:
                junctions.append(p)
                idx = len(junctions) - 1
                edges.append((idx, i))
                edges.append((idx, j))
    return SyntheticScene(
        config=config,
        views=ring_views(config),
        segments3d=segments,
        segment_axis=np.array(axes, dtype=int),
        junctions=np.array(junctions).reshape(-1, 3),
        junction_edges=edges,
        vp_directions=np.eye(3),
    )


def scene_diameter(scene: SyntheticScene) -> float:
    """Diagonal of the bounding box of all ground-truth segment endpoints."""
    pts = np.array([p for s in scene.segments3d for p in (s.start, s.end)])
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservationConfig:
    noise_px: float = 0.0
    max_fragments: int = 2
    drop_prob: float = 0.0
    outlier_fraction: float = 0.0
    min_fragment_px: float = 20.0
    point_noise_px: float = 0.0
    seed: int = 0


@dataclass
class SyntheticObservations:
    detections: dict[int, list[Segment2D]]
    det_gt: dict[int, list[int]]  # ground-truth segment id per detection
    matches: dict[int, list[list[tuple[int, int]]]]
    points2d: dict[int, list[tuple[int, np.ndarray]]]


def _visible_subsegment(seg: Segment3D, view: CameraView) -> Segment2D | None:
    """Projection of a 3D segment if both endpoints land inside the image."""
    proj = project_segment(seg, view)
    if proj is None:
        return None
    m = 2.0
    for p in (proj.start, proj.end):
        if not (m <= p[0] <= view.width - m and m <= p[1] <= view.height - m):
            return None
    return proj


def _fragment_intervals(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    if n <= 1:
        a = rng.uniform(0.0, 0.1)
        b = rng.uniform(0.9, 1.0)
        return [(a, b)]
    cut = rng.uniform(0.4, 0.6)
    overlap = rng.uniform(0.06, 0.15)
    return [(0.0, min(1.0, cut + overlap)), (max(0.0, cut - overlap), 1.0)]


def observe_scene(
    scene: SyntheticScene, config: ObservationConfig = ObservationConfig()
) -> SyntheticObservations:
    rng = np.random.default_rng(config.seed)
    detections: dict[int, list[Segment2D]] = {img: [] for img in scene.views}
    det_gt: dict[int, list[int]] = {img: [] for img in scene.views}

    for img, view in scene.views.items():
        for gid, seg in enumerate(scene.segments3d):
            if _visible_subsegment(seg, view) is None:
                continue
            if rng.random() < config.drop_prob:
                continue
            n_frag = int(rng.integers(1, config.max_fragments + 1))
            for lo, hi in _fragment_intervals(rng, n_frag):
                p1 = seg.start + lo * (seg.end - seg.start)
                p2 = seg.start + hi * (seg.end - seg.start)
                frag = _visible_subsegment(Segment3D(p1, p2), view)
                if frag is None or frag.length < config.min_fragment_px:
                    continue
                if config.noise_px > 0:
                    frag = Segment2D(
                        frag.start + rng.normal(0.0, config.noise_px, 2),
                        frag.end + rng.normal(0.0, config.noise_px, 2),
                    )
                detections[img].append(frag)
                det_gt[img].append(gid)

    by_gt: dict[int, dict[int, list[int]]] = {img: {} for img in scene.views}
    for img in scene.views:
        for di, gid in enumerate(det_gt[img]):
            by_gt[img].setdefault(gid, []).append(di)

    matches: dict[int, list[list[tuple[int, int]]]] = {}
    for img in scene.views:
        rows = []
        for di, gid in enumerate(det_gt[img]):
            row: list[tuple[int, int]] = []
            for other in scene.views:
                if other == img:
                    continue
                row.extend((other, dj) for dj in by_gt[other].get(gid, ()))
                if config.outlier_fraction > 0 and detections[other]:
                    if rng.random() < config.outlier_fraction:
                        row.append((other, int(rng.integers(0, len(detections[other])))))
            rows.append(row)
        matches[img] = rows

    points2d: dict[int, list[tuple[int, np.ndarray]]] = {img: [] for img in scene.views}
    for img, view in scene.views.items():
        for pi, p in enumerate(scene.junctions):
            try:
                px = view.project_point(p)
            except ValueError:
                continue
            if not (0 <= px[0] <= view.width and 0 <= px[1] <= view.height):
                continue
            if config.point_noise_px > 0:
                px = px + rng.normal(0.0, config.point_noise_px, 2)
            points2d[img].append((pi, px))

    return SyntheticObservations(
        detections=detections, det_gt=det_gt, matches=matches, points2d=points2d
    )


# ---------------------------------------------------------------------------
# depth scenes
# ---------------------------------------------------------------------------


def make_depth_scene(
    rng: np.random.Generator,
    width: int = 640,
    height: int = 480,
    focal: float = 600.0,
    occluded_fraction: float = 0.3,
):
    """A slanted base plane, a 2D segment on it, and occluders hiding part of it.

    Returns ``(view, depth_map, seg2d, gt_segment3d)`` where the ground
    truth segment is the back-projection of the 2D segment onto the base
    plane and roughly ``occluded_fraction`` of its samples see a nearer
    occluder depth instead.
    """
    K = intrinsics_matrix(focal, width / 2.0, height / 2.0)
    view = CameraView(K=K, R=np.eye(3), t=np.zeros(3), width=width, height=height)

    # base plane: z = z0 + gx * x + gy * y (in camera frame), mild slant
    z0 = rng.uniform(4.0, 7.0)
    gx, gy = rng.uniform(-0.25, 0.25, size=2)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    # depth solves z = z0 + gx * (u - cx) z / f + gy * (v - cy) z / f
    denom = 1.0 - gx * (xx - K[0, 2]) / focal - gy * (yy - K[1, 2]) / focal
    denom = np.maximum(denom, 0.2)
    base = z0 / denom
    data = base.astype(np.float32)

    # a long 2D segment with margin from the border
    while True:
        a = rng.uniform([60, 60], [width - 60, height - 60])
        b = rng.uniform([60, 60], [width - 60, height - 60])
        if np.linalg.norm(b - a) > 0.45 * min(width, height):
            break
    seg2d = Segment2D(a, b)

    # fronto-parallel occluder patches straddling the segment; stop near the
    # target fraction and never exceed what a majority fit can survive
    samples = sample_segment(seg2d, 1.0)
    sy = np.clip(samples[:, 1].astype(int), 0, height - 1)
    sx = np.clip(samples[:, 0].astype(int), 0, width - 1)
    occluded = np.zeros(data.shape, dtype=bool)
    target = occluded_fraction * len(samples)
    for _ in range(60):
        if occluded[sy, sx].sum() >= target:
            break
        idx = rng.integers(0, len(samples))
        cx, cy = samples[idx]
        hw, hh = rng.uniform(6, 18, size=2)
        x0, x1 = int(max(0, cx - hw)), int(min(width, cx + hw))
        y0, y1 = int(max(0, cy - hh)), int(min(height, cy + hh))
        trial = occluded.copy()
        trial[y0:y1, x0:x1] = True
        if trial[sy, sx].sum() > 0.45 * len(samples):
            continue
        occluded = trial
        data[y0:y1, x0:x1] = np.float32(rng.uniform(1.2, 0.55 * z0))

    ends = np.stack([seg2d.start, seg2d.end])
    depths = z0 / np.maximum(
        1.0 - gx * (ends[:, 0] - K[0, 2]) / focal - gy * (ends[:, 1] - K[1, 2]) / focal, 0.2
    )
    pts = backproject_samples(view, ends, depths)
    gt3d = Segment3D(pts[0], pts[1])
    return view, DepthMap(data), seg2d, gt3d

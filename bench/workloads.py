"""The three benchmark workloads: inputs, the timed operation, output checks.

Each workload drives linemap only through its documented interfaces: the
``linemap`` CLI (``synth``/``map``), ``run_pipeline`` with
``PipelineConfig`` keys, and ``optimize`` on a ``JointProblem``.  Calls go
through module attributes (``pipeline.run_pipeline``), never through
names bound at import, so a traced run sees them.

A workload has four steps:

* ``setup(seed, work)`` makes the operation's inputs (timed as setup_s);
* ``reference(inputs)`` reads back what the checks need (not timed);
* ``operate(inputs, work)`` is the timed operation (wall_s);
* ``check(ref, output, corrupt)`` returns quality metrics, a digest of the
  output for the byte-identity check, and the list of failed checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from linemap import cli, geometry, optimize, pipeline, synthetic
from linemap.config import PipelineConfig

import checks

NOISE_PX = 1.0
TAU_SHARE = 0.01  # recall radius as a share of the scene diameter
MIN_IMAGES = 4  # linemap's default min_images; a GT line seen in fewer is unmappable


class CheckFailed(Exception):
    """A set-up step or an output broke one of the benchmark's properties."""


@dataclass
class MapReference:
    P: dict[int, np.ndarray]  # image -> 3x4 projection
    dets: dict[int, np.ndarray]  # image -> (n, 4) detections
    gt_a: np.ndarray  # mappable ground-truth segments
    gt_b: np.ndarray
    tau: float


@dataclass
class Tracks:
    a: np.ndarray
    b: np.ndarray
    supports: list[list[tuple[int, int]]]
    digest: str


def _quiet(fn, *args):
    """Call ``fn`` with stdout captured (the CLI prints run statistics)."""
    with contextlib.redirect_stdout(_io.StringIO()):
        return fn(*args)


def _mappable(gt: np.ndarray, det_gt: dict[int, list[int]]) -> np.ndarray:
    """Ground-truth segments detected in at least ``MIN_IMAGES`` images."""
    seen = [set() for _ in range(len(gt))]
    for img, ids in det_gt.items():
        for gid in ids:
            seen[gid].add(img)
    return gt[[len(s) >= MIN_IMAGES for s in seen]]


def _shift(tracks: Tracks, dist: float) -> Tracks:
    off = dist * np.ones(3) / math.sqrt(3.0)
    return Tracks(tracks.a + off, tracks.b + off, tracks.supports, tracks.digest)


def check_mapping(ref: MapReference, tracks: Tracks, corrupt: str | None):
    """Recall, per-track accuracy, support span and reprojection of a map."""
    if corrupt == "shift":
        tracks = _shift(tracks, 2.0 * ref.tau)
    failures = []
    n = len(tracks.a)
    if n == 0:
        return {"recall": 0.0, "reproj_px": 0.0}, tracks.digest, ["no tracks"]
    recall = checks.length_recall(ref.gt_a, ref.gt_b, tracks.a, tracks.b, ref.tau)
    if recall < 0.95:
        failures.append(f"recall {recall:.4f} < 0.95 at tau={ref.tau:.4f}")
    dist = checks.track_mean_distances(tracks.a, tracks.b, ref.gt_a, ref.gt_b, ref.tau)
    close = float(np.mean(dist <= ref.tau))
    if close < 0.90:
        failures.append(f"{close:.1%} of {n} tracks within tau of the ground truth (< 90%)")
    spans = [len({img for img, _ in s}) for s in tracks.supports]
    if min(spans) < MIN_IMAGES:
        failures.append(f"a track spans {min(spans)} images (< {MIN_IMAGES})")
    rows = [(i, img, det) for i, s in enumerate(tracks.supports) for img, det in s]
    idx = np.array([i for i, _, _ in rows])
    reproj = checks.mean_perp_px(
        tracks.a[idx],
        tracks.b[idx],
        np.stack([ref.P[img] for _, img, _ in rows]),
        np.stack([ref.dets[img][det] for _, img, det in rows]),
    )
    floor = NOISE_PX * checks.NOISE_FLOOR_PER_SIGMA
    if not 0.75 * floor <= reproj <= 1.25 * floor:
        failures.append(f"reproj_px {reproj:.4f} outside [0.75, 1.25] x noise floor {floor:.3f}")
    return {"recall": recall, "reproj_px": reproj}, tracks.digest, failures


# ---------------------------------------------------------------------------
# map_box16: the README quick start through the CLI
# ---------------------------------------------------------------------------


class MapBox16:
    name = "map_box16"
    views = 16
    outliers = 0.2

    def setup(self, seed: int, work: Path) -> Path:
        data = work / "data"
        argv = ["synth", "--output", str(data), "--views", str(self.views),
                "--noise", str(NOISE_PX), "--outliers", str(self.outliers), "--seed", str(seed)]
        if _quiet(cli.main, argv) != 0:
            raise CheckFailed(f"linemap {' '.join(argv)} failed")
        return data

    def reference(self, data: Path) -> MapReference:
        cams = json.loads((data / "cameras.json").read_text())
        segs = json.loads((data / "segments.json").read_text())
        gt = json.loads((data / "gt_lines.json").read_text())
        gt_seg = _mappable(
            np.array(gt["segments"], dtype=float),
            {int(k): v for k, v in gt["det_gt"].items()},
        )
        P = checks.projection_matrices(
            {int(k): (np.array(c["K"]), np.array(c["R"]), np.array(c["t"])) for k, c in cams.items()}
        )
        dets = {int(k): np.array(v, dtype=float).reshape(-1, 4) for k, v in segs.items()}
        tau = TAU_SHARE * checks.scene_diameter(gt_seg[:, :3], gt_seg[:, 3:])
        return MapReference(P, dets, gt_seg[:, :3], gt_seg[:, 3:], tau)

    def operate(self, data: Path, work: Path) -> Path:
        out = work / "out"
        argv = ["map", "--input", str(data), "--output", str(out)]
        if _quiet(cli.main, argv) != 0:
            raise CheckFailed(f"linemap {' '.join(argv)} failed")
        return out

    def check(self, ref: MapReference, out: Path, corrupt: str | None):
        raw = (out / "tracks.json").read_bytes()
        doc = json.loads(raw)["tracks"]
        tracks = Tracks(
            np.array([t["start"] for t in doc], dtype=float).reshape(-1, 3),
            np.array([t["end"] for t in doc], dtype=float).reshape(-1, 3),
            [[(int(i), int(d)) for i, d in t["supports"]] for t in doc],
            hashlib.sha256(raw).hexdigest(),
        )
        return check_mapping(ref, tracks, corrupt)


# ---------------------------------------------------------------------------
# map_lines_only: run_pipeline without points, VPs or refinement
# ---------------------------------------------------------------------------


class MapLinesOnly:
    name = "map_lines_only"
    views = 12
    segments = 76
    outliers = 0.2
    config = {"use_points": "false", "use_vps": "false", "optimize": "false"}

    def setup(self, seed: int, work: Path):
        # One scene for every seed; the seed draws the observations.  Near the
        # generator's cap the strut rejection loop's cost swings with the
        # scene seed (2.4-4.6 s at 76 segments), which would drown setup_s.
        scene = synthetic.build_scene(
            synthetic.SceneConfig(n_views=self.views, n_segments=self.segments, seed=0)
        )
        obs = synthetic.observe_scene(
            scene,
            synthetic.ObservationConfig(noise_px=NOISE_PX, outlier_fraction=self.outliers, seed=seed),
        )
        data = pipeline.PipelineInput(views=scene.views, detections=obs.detections, matches=obs.matches)
        return scene, obs, data

    def reference(self, inputs) -> MapReference:
        scene, obs, _ = inputs
        gt = np.array([np.concatenate([s.start, s.end]) for s in scene.segments3d])
        gt_seg = _mappable(gt, obs.det_gt)
        P = checks.projection_matrices({img: (v.K, v.R, v.t) for img, v in scene.views.items()})
        dets = {
            img: np.array([[*d.start, *d.end] for d in ds], dtype=float).reshape(-1, 4)
            for img, ds in obs.detections.items()
        }
        tau = TAU_SHARE * checks.scene_diameter(gt_seg[:, :3], gt_seg[:, 3:])
        return MapReference(P, dets, gt_seg[:, :3], gt_seg[:, 3:], tau)

    def operate(self, inputs, work: Path):
        return pipeline.run_pipeline(inputs[2], PipelineConfig().updated(self.config))

    def check(self, ref: MapReference, result, corrupt: str | None):
        a = np.array([t.segment.start for t in result.tracks], dtype=float).reshape(-1, 3)
        b = np.array([t.segment.end for t in result.tracks], dtype=float).reshape(-1, 3)
        supports = [[(int(i), int(d)) for i, d in t.supports] for t in result.tracks]
        h = hashlib.sha256(a.tobytes() + b.tobytes() + repr(supports).encode())
        return check_mapping(ref, Tracks(a, b, supports, h.hexdigest()), corrupt)


# ---------------------------------------------------------------------------
# refine_ba: optimize on a joint problem built from ground truth
# ---------------------------------------------------------------------------


@dataclass
class RefineInputs:
    problem: optimize.JointProblem
    config: optimize.OptimizeConfig
    gt_a: np.ndarray  # ground-truth line of each problem line
    gt_b: np.ndarray
    init_a: np.ndarray  # initial line of each problem line
    init_b: np.ndarray
    vp_axis: np.ndarray  # (3, 3) ground-truth VP directions
    tau: float


class RefineBA:
    name = "refine_ba"
    tiles = 7
    tile_pitch = 6.0  # box side is 2; each tile has its own camera ring
    ring_views = 8
    line_sigma = 0.02  # initial endpoint perturbation, scene units
    point_sigma = 0.02
    vp_deg = 2.0
    max_iterations = 5
    min_views = 4

    def _tile_offsets(self) -> np.ndarray:
        # Tiles sit on the diagonal, centred on the origin.  A box spans 2 in
        # each axis, so two tiles' parallel lines differ by at least
        # tile_pitch - 2 in both of their fixed coordinates: none are collinear.
        k = np.arange(self.tiles) - (self.tiles - 1) / 2.0
        return self.tile_pitch * k[:, None] * np.ones(3)

    def setup(self, seed: int, work: Path) -> RefineInputs:
        rng = np.random.default_rng(seed)
        scene = synthetic.build_scene(synthetic.SceneConfig(n_views=self.ring_views, seed=seed))
        base_a = np.array([s.start for s in scene.segments3d])
        base_b = np.array([s.end for s in scene.segments3d])
        axis_of = np.array(scene.segment_axis, dtype=int)
        junctions = np.asarray(scene.junctions, dtype=float).reshape(-1, 3)

        views: dict[int, geometry.CameraView] = {}
        gt_a, gt_b, line_axis, line_obs = [], [], [], []
        pts, point_obs, point_line = [], [], []
        for k, off in enumerate(self._tile_offsets()):
            tile_views = {}
            for i, v in scene.views.items():
                tile_views[k * self.ring_views + i] = geometry.CameraView(
                    K=v.K, R=v.R, t=v.t - v.R @ off, width=v.width, height=v.height
                )
            views.update(tile_views)
            seen_by_line: dict[int, set[int]] = {}
            for si in range(len(base_a)):
                a, b = base_a[si] + off, base_b[si] + off
                obs = []
                for img, v in tile_views.items():
                    seg = _observe_segment(rng, v, a, b)
                    if seg is not None:
                        obs.append((img, seg))
                if len(obs) < self.min_views:
                    continue
                li = len(gt_a)
                seen_by_line[si] = {img for img, _ in obs}
                gt_a.append(a)
                gt_b.append(b)
                line_axis.append(int(axis_of[si]))
                line_obs.extend((li, img, geometry.Segment2D(*seg)) for img, seg in obs)
            first_line = len(gt_a) - len(seen_by_line)
            local = {si: first_line + n for n, si in enumerate(seen_by_line)}
            for ji, p in enumerate(junctions):
                p = p + off
                seen = {}
                for img, v in tile_views.items():
                    px = _project(v, p)
                    if px is not None:
                        seen[img] = px + rng.normal(0.0, NOISE_PX, 2)
                if len(seen) < 2:
                    continue
                pi = len(pts)
                pts.append(p)
                point_obs.extend((pi, img, xy) for img, xy in seen.items())
                for jj, si in scene.junction_edges:
                    if jj == ji and si in local:
                        w = len(seen_by_line[si] & set(seen))
                        if w >= 3:
                            point_line.append((pi, local[si], float(w)))

        gt_a, gt_b = np.array(gt_a), np.array(gt_b)
        init_a = gt_a + rng.normal(0.0, self.line_sigma, gt_a.shape)
        init_b = gt_b + rng.normal(0.0, self.line_sigma, gt_b.shape)
        lines = [
            geometry.plucker_to_minimal(geometry.PluckerLine.from_two_points(p, q))
            for p, q in zip(init_a, init_b)
        ]
        n_obs = np.bincount([li for li, _, _ in line_obs], minlength=len(lines))
        vp_axis = np.eye(3)
        vps = np.array([_tilt(rng, e, self.vp_deg) for e in vp_axis])
        problem = optimize.JointProblem(
            views=views,
            points=np.array(pts) + rng.normal(0.0, self.point_sigma, (len(pts), 3)),
            lines=lines,
            vps=vps,
            point_obs=point_obs,
            line_obs=line_obs,
            point_line=point_line,
            line_vp=[(li, ax, float(n_obs[li])) for li, ax in enumerate(line_axis)],
            vp_ortho=[(0, 1), (0, 2), (1, 2)],
        )
        tau = TAU_SHARE * checks.scene_diameter(base_a, base_b)
        return RefineInputs(
            problem,
            optimize.OptimizeConfig(max_iterations=self.max_iterations),
            gt_a, gt_b, init_a, init_b, vp_axis, tau,
        )

    def reference(self, inputs: RefineInputs):
        p = inputs.problem
        P = checks.projection_matrices({img: (v.K, v.R, v.t) for img, v in p.views.items()})
        idx = np.array([li for li, _, _ in p.line_obs])
        P_obs = np.stack([P[img] for _, img, _ in p.line_obs])
        ends = np.array([[*s.start, *s.end] for _, _, s in p.line_obs], dtype=float)

        def reproj(a, b):
            return checks.mean_perp_px(a[idx], b[idx], P_obs, ends)

        return {
            "reproj": reproj,
            "gt_px": reproj(inputs.gt_a, inputs.gt_b),
            "init_px": reproj(inputs.init_a, inputs.init_b),
            "inputs": inputs,
        }

    def operate(self, inputs: RefineInputs, work: Path):
        return optimize.optimize(inputs.problem, inputs.config)

    def check(self, ref, result, corrupt: str | None):
        inputs: RefineInputs = ref["inputs"]
        if corrupt == "initial":
            a, b = inputs.init_a, inputs.init_b
        else:
            ends = [checks.line_points_from_minimal(par.q, par.w) for par in result.lines]
            a = np.array([e[0] for e in ends]).reshape(-1, 3)
            b = np.array([e[1] for e in ends]).reshape(-1, 3)
        failures = []
        if not result.final_cost < result.initial_cost:
            failures.append(f"final cost {result.final_cost:.6g} >= initial {result.initial_cost:.6g}")
        px = ref["reproj"](a, b)
        if not px < ref["init_px"]:
            failures.append(f"reproj_px {px:.4f} not below the initial lines' {ref['init_px']:.4f}")
        if not px <= ref["gt_px"]:
            failures.append(f"reproj_px {px:.4f} above the ground-truth lines' {ref['gt_px']:.4f}")
        vps = np.asarray(result.vps, dtype=float)
        for k, axis in enumerate(inputs.vp_axis):
            cos = abs(float(vps[k] @ axis)) / float(np.linalg.norm(vps[k]))
            deg = math.degrees(math.acos(min(1.0, cos)))
            if deg > 1.0:
                failures.append(f"VP {k} is {deg:.3f} deg from its axis (> 1)")
        # share of ground-truth length within tau of its refined (infinite) line
        pts, w, owner = checks.sample_segments(inputs.gt_a, inputs.gt_b, inputs.tau / 4.0)
        near = checks.distance_to_lines(pts, a[owner], b[owner]) <= inputs.tau
        recall = float(w[near].sum() / w.sum())
        if recall < 0.95:
            failures.append(f"recall {recall:.4f} < 0.95 at tau={inputs.tau:.4f}")
        blob = b"".join(
            np.concatenate([par.q, par.w]).tobytes() for par in result.lines
        ) + np.asarray(result.points).tobytes() + vps.tobytes()
        metrics = {"recall": recall, "reproj_px": px}
        return metrics, hashlib.sha256(blob).hexdigest(), failures


def _project(view, p: np.ndarray, margin: float = 2.0):
    """Pixel of a world point, or None when behind the camera or off the image."""
    x = view.K @ (view.R @ p + view.t)
    if x[2] <= 1e-9:
        return None
    uv = x[:2] / x[2]
    if not (margin <= uv[0] <= view.width - margin and margin <= uv[1] <= view.height - margin):
        return None
    return uv


def _observe_segment(rng, view, a, b, min_px: float = 20.0):
    """A noisy detection of a random sub-interval of ``ab``, if visible."""
    if _project(view, a) is None or _project(view, b) is None:
        return None
    lo, hi = rng.uniform(0.0, 0.1), rng.uniform(0.9, 1.0)
    p, q = _project(view, a + lo * (b - a)), _project(view, a + hi * (b - a))
    if np.linalg.norm(q - p) < min_px:
        return None
    return p + rng.normal(0.0, NOISE_PX, 2), q + rng.normal(0.0, NOISE_PX, 2)


def _tilt(rng, axis: np.ndarray, deg: float) -> np.ndarray:
    """``axis`` rotated by ``deg`` degrees towards a random perpendicular."""
    r = rng.normal(size=3)
    perp = r - (r @ axis) * axis
    perp /= np.linalg.norm(perp)
    t = math.radians(deg)
    return math.cos(t) * axis + math.sin(t) * perp


WORKLOADS = {w.name: w for w in (MapBox16(), MapLinesOnly(), RefineBA())}

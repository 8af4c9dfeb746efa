"""Command line interface.

Subcommands:

* ``map``: run the full mapping pipeline on a dataset directory.
* ``synth``: generate a synthetic dataset (mapping scene or depth scenes).
* ``eval``: compare a tracks file against ground-truth segments.
* ``degeneracy``: run the two-view uncertainty sweep and write a CSV.
* ``fit-depth``: fit 3D segments to per-image depth maps.

Exit codes: 0 on success, 2 for missing or malformed input files or flag
values (the message names the offending file or flag), 1 for any other
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, parse_overrides, read_config_file
from .depthfit import DepthMap, fit_segment_to_depth
from .geometry import CameraView
from .io import (
    InputError,
    canonical_dumps,
    load_dataset,
    load_gt_segments,
    read_tracks_json,
    segments_from_payload,
    tracks_payload,
    write_ply,
    write_tracks_json,
)
from .metrics import evaluate_segments
from .pipeline import run_pipeline
from .synthetic import (
    ObservationConfig,
    SceneConfig,
    build_scene,
    make_depth_scene,
    observe_scene,
)
from .uncertainty import run_degeneracy_experiment


def _build_config(args) -> PipelineConfig:
    config = PipelineConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise InputError(path, "config file not found")
        try:
            config = config.updated(read_config_file(path))
        except ValueError as e:
            raise InputError(path, str(e)) from e
    if getattr(args, "set", None):
        try:
            config = config.updated(parse_overrides(args.set))
        except ValueError as e:
            raise InputError("--set", str(e)) from e
    return config


def _require(ok: bool, flag: str, domain: str, value) -> None:
    """Reject a flag value outside its domain (exit 2, naming the flag)."""
    if not ok:
        raise InputError(flag, f"expected {domain}, got {value!r}")


def cmd_map(args) -> int:
    config = _build_config(args)
    data = load_dataset(args.input)
    if data.matches is None:
        raise InputError(Path(args.input) / "matches.json", "mapping requires a matches file")
    result = run_pipeline(data, config)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    payload = tracks_payload(
        result.tracks,
        vp_tracks=result.vp_tracks,
        point_line_edges=result.point_line_edges,
        line_vp_edges=result.line_vp_edges,
        points3d=result.points3d,
        stats=result.stats,
    )
    write_tracks_json(out / "tracks.json", payload)
    write_ply(out / "lines.ply", [t.segment for t in result.tracks])
    for key in sorted(result.stats):
        print(f"{key}: {result.stats[key]}")
    return 0


def _camera_json(view: CameraView) -> dict:
    return {"K": view.K, "R": view.R, "t": view.t, "width": view.width, "height": view.height}


def _write_box_dataset(out: Path, args) -> None:
    scene = build_scene(
        SceneConfig(n_views=args.views, seed=args.seed)
    )
    obs = observe_scene(
        scene,
        ObservationConfig(
            noise_px=args.noise,
            drop_prob=args.drop,
            outlier_fraction=args.outliers,
            point_noise_px=args.point_noise,
            seed=args.seed,
        ),
    )
    cameras = {str(img): _camera_json(view) for img, view in scene.views.items()}
    segments = {
        str(img): [[*det.start, *det.end] for det in dets]
        for img, dets in obs.detections.items()
    }
    matches = {
        str(img): [[[j, dj] for j, dj in row] for row in rows]
        for img, rows in obs.matches.items()
    }
    points = {
        "points": scene.junctions,
        "observations": {
            str(img): [[pi, *xy] for pi, xy in entries]
            for img, entries in obs.points2d.items()
        },
    }
    gt = {
        "segments": [[*s.start, *s.end] for s in scene.segments3d],
        "axis": scene.segment_axis,
        "vp_directions": scene.vp_directions,
        "junctions": scene.junctions,
        "junction_edges": [[j, s] for j, s in scene.junction_edges],
        "det_gt": {str(img): ids for img, ids in obs.det_gt.items()},
    }
    (out / "cameras.json").write_text(canonical_dumps(cameras))
    (out / "segments.json").write_text(canonical_dumps(segments))
    (out / "matches.json").write_text(canonical_dumps(matches))
    (out / "points.json").write_text(canonical_dumps(points))
    (out / "gt_lines.json").write_text(canonical_dumps(gt))


def _write_depth_dataset(out: Path, args) -> None:
    rng = np.random.default_rng(args.seed)
    (out / "depth").mkdir(exist_ok=True)
    cameras = {}
    segments = {}
    gt_rows = []
    for i in range(args.views):
        view, dm, seg2d, gt3d = make_depth_scene(rng, occluded_fraction=args.occlusion)
        cameras[str(i)] = _camera_json(view)
        segments[str(i)] = [[*seg2d.start, *seg2d.end]]
        dm.save(out / "depth" / f"{i}.bin")
        gt_rows.append([*gt3d.start, *gt3d.end])
    (out / "cameras.json").write_text(canonical_dumps(cameras))
    (out / "segments.json").write_text(canonical_dumps(segments))
    (out / "gt_lines.json").write_text(canonical_dumps({"segments": gt_rows}))


def cmd_synth(args) -> int:
    _require(args.views >= 1, "--views", "at least 1", args.views)
    _require(args.seed >= 0, "--seed", "an integer >= 0", args.seed)
    for flag, value in (("--noise", args.noise), ("--point-noise", args.point_noise)):
        _require(0.0 <= value < math.inf, flag, "a finite number >= 0", value)
    for flag, value in (
        ("--drop", args.drop),
        ("--outliers", args.outliers),
        ("--occlusion", args.occlusion),
    ):
        _require(0.0 <= value <= 1.0, flag, "a number in [0, 1]", value)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "box":
        _write_box_dataset(out, args)
    else:
        _write_depth_dataset(out, args)
    print(f"wrote {args.kind} dataset to {out}")
    return 0


def cmd_eval(args) -> int:
    try:
        taus = tuple(float(v) for v in args.taus.split(","))
    except ValueError as e:
        raise InputError("--taus", f"expected comma-separated numbers, got {args.taus!r}") from e
    _require(all(0.0 < tau < math.inf for tau in taus), "--taus", "finite values > 0", args.taus)
    payload = read_tracks_json(args.tracks)
    pred = segments_from_payload(payload)
    supports = [
        [(int(img), int(det)) for img, det in t.get("supports", [])]
        for t in payload["tracks"]
    ]
    gt = load_gt_segments(args.gt)
    report = evaluate_segments(gt, pred, taus=taus, aggregate=args.aggregate, supports=supports)
    print(report.format())
    return 0


def cmd_degeneracy(args) -> int:
    _require(args.lines >= 1, "--lines", "at least 1", args.lines)
    _require(args.seed >= 0, "--seed", "an integer >= 0", args.seed)
    rows = run_degeneracy_experiment(n_lines=args.lines, seed=args.seed, out_csv=args.output)
    print(f"wrote {len(rows)} angles to {args.output}")
    return 0


def cmd_fit_depth(args) -> int:
    _require(args.seed >= 0, "--seed", "an integer >= 0", args.seed)
    data = load_dataset(args.input)
    fits = []
    failures = []
    for img in sorted(data.views):
        depth_path = data.depth_path(img)
        if not depth_path.is_file():
            continue
        try:
            dm = DepthMap.load(depth_path)
        except ValueError as e:
            raise InputError(depth_path, str(e)) from e
        for di, det in enumerate(data.detections[img]):
            fit = fit_segment_to_depth(
                det, data.views[img], dm, seed=args.seed + di
            )
            if fit is None:
                failures.append([img, di])
            else:
                fits.append(
                    {
                        "image": img,
                        "detection": di,
                        "start": [float(v) for v in fit.segment.start],
                        "end": [float(v) for v in fit.segment.end],
                        "inlier_ratio": fit.inlier_ratio,
                    }
                )
    Path(args.output).write_text(canonical_dumps({"fits": fits, "failures": failures}))
    print(f"fitted {len(fits)} segments, {len(failures)} failures")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linemap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="run the mapping pipeline on a dataset directory")
    p.add_argument("--input", required=True, help="dataset directory")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--output", required=True)
    p.add_argument("--kind", choices=("box", "depth"), default="box")
    p.add_argument("--views", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.0, help="endpoint noise sigma in pixels")
    p.add_argument("--drop", type=float, default=0.0, help="detection drop probability")
    p.add_argument("--outliers", type=float, default=0.0, help="wrong-match injection rate")
    p.add_argument("--point-noise", type=float, default=0.0)
    p.add_argument("--occlusion", type=float, default=0.3, help="depth scenes only")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="evaluate tracks against ground truth segments")
    p.add_argument("--tracks", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--taus", default="0.01,0.025,0.05")
    p.add_argument("--aggregate", choices=("mean", "max"), default="mean",
                   help="per-track sample distance aggregation for the inlier percentage")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("degeneracy", help="two-view uncertainty sweep over line angles")
    p.add_argument("--output", required=True, help="CSV path")
    p.add_argument("--lines", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_degeneracy)

    p = sub.add_parser("fit-depth", help="fit segments to depth maps in a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fit_depth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e.path}: {e.message}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

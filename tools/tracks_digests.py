"""Print the reference sha256 prefixes of ``tracks.json`` on the fixed scenes.

Run from the repository root:

    PYTHONPATH=src python3 tools/tracks_digests.py

Each line is ``<name> <first 16 hex digits of sha256>``.  The scenes are the
acceptance suite's: the 16-view box scene observed with 1 px noise and 20%
outlier matches (seed 7) under three configs, the same scene observed
cleanly, and ``linemap synth --views 16 --noise 1.0 --outliers 0.2 --seed 1``
followed by ``linemap map``.  A change meant to keep outputs the same must
print the same five lines as its parent on the same host.  BLAS runs on one
thread, because joint refinement's dense solves round differently with the
thread count; across CPUs and numpy builds the last bit may still differ.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from linemap.cli import main as cli_main  # noqa: E402
from linemap.config import PipelineConfig  # noqa: E402
from linemap.io import canonical_dumps, tracks_payload  # noqa: E402
from linemap.pipeline import PipelineInput, run_pipeline  # noqa: E402
from linemap.synthetic import (  # noqa: E402
    ObservationConfig,
    SceneConfig,
    build_scene,
    observe_scene,
)


def _prefix(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def _scene_input(observation: ObservationConfig) -> PipelineInput:
    scene = build_scene(SceneConfig(n_views=16))
    obs = observe_scene(scene, observation)
    return PipelineInput(
        views=scene.views,
        detections=obs.detections,
        matches=obs.matches,
        points3d=scene.junctions,
        point_obs=obs.points2d,
    )


def _digest(inp: PipelineInput, config: PipelineConfig) -> str:
    result = run_pipeline(inp, config)
    payload = tracks_payload(
        result.tracks,
        vp_tracks=result.vp_tracks,
        point_line_edges=result.point_line_edges,
        line_vp_edges=result.line_vp_edges,
        points3d=result.points3d,
        stats=result.stats,
    )
    return _prefix(canonical_dumps(payload).encode())


def _cli_digest() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "out"
        synth = ["synth", "--output", str(data), "--views", "16", "--noise", "1.0",
                 "--outliers", "0.2", "--seed", "1"]
        for argv in (synth, ["map", "--input", str(data), "--output", str(out)]):
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli_main(argv)
            if status != 0:
                raise SystemExit(f"linemap {argv[0]} failed")
        return _prefix((out / "tracks.json").read_bytes())


def main() -> int:
    noisy = _scene_input(ObservationConfig(noise_px=1.0, outlier_fraction=0.2, seed=7))
    rows = [
        ("noisy_default", lambda: _digest(noisy, PipelineConfig())),
        ("noisy_unrefined", lambda: _digest(noisy, PipelineConfig(optimize=False))),
        ("noisy_lines_only", lambda: _digest(
            noisy, PipelineConfig(use_points=False, use_vps=False, optimize=False))),
        ("clean_default", lambda: _digest(_scene_input(ObservationConfig()), PipelineConfig())),
        ("cli_synth_map", _cli_digest),
    ]
    for name, digest in rows:
        print(name, digest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

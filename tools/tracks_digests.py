"""Print the reference sha256 prefixes of ``tracks.json`` and ``linemap eval``
on the fixed scenes.

Run from the repository root:

    PYTHONPATH=src python3 tools/tracks_digests.py

Each line is ``<name> <first 16 hex digits of sha256>``.  The scenes are the
acceptance suite's: the 16-view box scene observed with 1 px noise and 20%
outlier matches (seed 7) under three configs, the same scene observed
cleanly under the same three configs, and ``linemap synth --views 16 --noise
1.0 --outliers 0.2 --seed 1`` followed by ``linemap map``.  An eighth line,
``cli_eval``, digests what ``linemap eval`` prints for that map against the
scene's ``gt_lines.json``, with the default taus and then with ``--aggregate
max``.  A change meant to keep outputs the same must print the same eight
lines as its parent on the same host.  BLAS runs on one thread, because joint
refinement's reduced solve (the dense system left on the points and VPs once
the line blocks are eliminated) can round differently with the thread count;
across CPUs and numpy builds the last bit may still differ.
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
    return _prefix(canonical_dumps(tracks_payload(run_pipeline(inp, config))).encode())


def _cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(argv)
    if status != 0:
        raise SystemExit(f"linemap {argv[0]} failed")
    return out.getvalue().encode()


def _cli_digests():
    """``tracks.json`` of ``linemap synth`` then ``linemap map``, and the stdout of
    ``linemap eval`` on it with default taus followed by ``--aggregate max``."""
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "out"
        _cli(["synth", "--output", str(data), "--views", "16", "--noise", "1.0",
              "--outliers", "0.2", "--seed", "1"])
        _cli(["map", "--input", str(data), "--output", str(out)])
        tracks, gt = out / "tracks.json", data / "gt_lines.json"
        yield "cli_synth_map", _prefix(tracks.read_bytes())
        evaluate = ["eval", "--tracks", str(tracks), "--gt", str(gt)]
        yield "cli_eval", _prefix(_cli(evaluate) + _cli([*evaluate, "--aggregate", "max"]))


def main() -> int:
    configs = [
        ("default", PipelineConfig()),
        ("unrefined", PipelineConfig(optimize=False)),
        ("lines_only", PipelineConfig(use_points=False, use_vps=False, optimize=False)),
    ]
    scenes = [
        ("noisy", ObservationConfig(noise_px=1.0, outlier_fraction=0.2, seed=7)),
        ("clean", ObservationConfig()),
    ]
    for scene, observation in scenes:
        inp = _scene_input(observation)
        for name, config in configs:
            print(f"{scene}_{name}", _digest(inp, config), flush=True)
    for name, digest in _cli_digests():
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Dataset loading and result serialization.

A dataset directory holds:

* ``cameras.json``: ``{"<image>": {"K": 3x3, "R": 3x3, "t": [3], "width", "height"}}``
* ``segments.json``: ``{"<image>": [[x1, y1, x2, y2], ...]}``
* ``matches.json`` (optional): ``{"<image>": [[[img, det], ...] per detection]}``
* ``points.json`` (optional): ``{"points": [[x, y, z], ...], "observations":
  {"<image>": [[point_idx, u, v], ...]}}``
* ``neighbors.json`` (optional): ``{"<image>": [image ids]}``
* ``depth/<image>.bin`` (optional): two little-endian uint32 (height,
  width) then float32 row-major z-depth, NaN meaning invalid.

Outputs are written as canonical JSON: object keys sorted, no spaces,
floats rendered with ``%.9g`` so that a write/read/write cycle is
byte-stable.  Malformed inputs raise :class:`InputError`, which carries
the offending file path for CLI diagnostics.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .geometry import EPS, CameraView, Segment2D, Segment3D
from .pipeline import PipelineInput

__all__ = [
    "InputError",
    "load_dataset",
    "load_cameras",
    "load_segments",
    "load_matches",
    "load_points",
    "load_neighbors",
    "load_gt_segments",
    "canonical_dumps",
    "write_tracks_json",
    "read_tracks_json",
    "write_ply",
]


class InputError(Exception):
    """A dataset file or a command-line value is missing, unreadable, or malformed."""

    def __init__(self, path, message: str):
        self.path = str(path)
        self.message = message
        super().__init__(f"{path}: {message}")


def _load_json(path: Path):
    if not path.is_file():
        raise InputError(path, "file not found")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise InputError(path, f"invalid JSON: {e}") from e


def _image_key(path: Path, key) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise InputError(path, f"image id {key!r} is not an integer") from None


def _index(path: Path, value, where: str) -> int:
    """A JSON integer (not a bool), or an InputError naming ``path``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(path, f"{where}: index {value!r} is not an integer")
    return value


def _coords(path: Path, values, where: str) -> list[float]:
    """Finite floats from a JSON row, or an InputError naming ``path``."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError):
        raise InputError(path, f"{where}: coordinates must be numbers") from None
    if not all(math.isfinite(v) for v in out):
        raise InputError(path, f"{where}: non-finite coordinate")
    return out


def load_cameras(path: str | Path) -> dict[int, CameraView]:
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict) or not raw:
        raise InputError(path, "expected a non-empty object of cameras")
    views = {}
    for key, cam in raw.items():
        img = _image_key(path, key)
        if not isinstance(cam, dict):
            raise InputError(path, f"camera {key}: expected an object")
        try:
            K = np.array(cam["K"], dtype=np.float64)
            R = np.array(cam["R"], dtype=np.float64)
            t = np.array(cam["t"], dtype=np.float64)
            width, height = int(cam.get("width", 0)), int(cam.get("height", 0))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(path, f"camera {key}: {e}") from e
        if K.shape != (3, 3) or R.shape != (3, 3) or t.shape != (3,):
            raise InputError(path, f"camera {key}: K/R must be 3x3 and t length 3")
        if not (np.isfinite(K).all() and np.isfinite(R).all() and np.isfinite(t).all()):
            raise InputError(path, f"camera {key}: non-finite value in K, R or t")
        if np.linalg.matrix_rank(K) < 3:
            raise InputError(path, f"camera {key}: K is singular")
        if np.abs(K[2] - (0.0, 0.0, 1.0)).max() > 1e-9:
            raise InputError(path, f"camera {key}: last row of K must be (0, 0, 1)")
        if abs(np.linalg.det(R) - 1.0) > 1e-6 or np.abs(R @ R.T - np.eye(3)).max() > 1e-6:
            raise InputError(path, f"camera {key}: R is not a rotation matrix")
        views[img] = CameraView(K=K, R=R, t=t, width=width, height=height)
    return views


def load_segments(path: str | Path) -> dict[int, list[Segment2D]]:
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise InputError(path, "expected an object mapping image ids to segment lists")
    out = {}
    for key, rows in raw.items():
        img = _image_key(path, key)
        segs = []
        if not isinstance(rows, list):
            raise InputError(path, f"image {key}: expected a list of segments")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 4:
                raise InputError(path, f"image {key} segment {i}: expected [x1, y1, x2, y2]")
            x1, y1, x2, y2 = _coords(path, row, f"image {key} segment {i}")
            seg = Segment2D(np.array([x1, y1]), np.array([x2, y2]))
            if seg.length < EPS:
                raise InputError(path, f"image {key} segment {i}: zero-length segment")
            segs.append(seg)
        out[img] = segs
    return out


def load_matches(path: str | Path) -> dict[int, list[list[tuple[int, int]]]]:
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise InputError(path, "expected an object mapping image ids to match lists")
    out = {}
    for key, rows in raw.items():
        img = _image_key(path, key)
        if not isinstance(rows, list):
            raise InputError(path, f"image {key}: expected a list per detection")
        table = []
        for i, row in enumerate(rows):
            where = f"image {key} detection {i}"
            if not isinstance(row, list):
                raise InputError(path, f"{where}: expected a list of pairs")
            pairs = []
            for pair in row:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InputError(path, f"{where}: match must be [image, detection]")
                pairs.append((_index(path, pair[0], where), _index(path, pair[1], where)))
            table.append(pairs)
        out[img] = table
    return out


def load_points(path: str | Path):
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict) or "points" not in raw:
        raise InputError(path, 'expected an object with "points" and "observations"')
    try:
        pts = np.array(raw["points"], dtype=np.float64).reshape(-1, 3)
    except (TypeError, ValueError) as e:
        raise InputError(path, f"points: {e}") from e
    if not np.isfinite(pts).all():
        raise InputError(path, "points: non-finite coordinate")
    raw_obs = raw.get("observations", {})
    if not isinstance(raw_obs, dict):
        raise InputError(path, "observations: expected an object mapping image ids to lists")
    obs: dict[int, list[tuple[int, np.ndarray]]] = {}
    for key, rows in raw_obs.items():
        img = _image_key(path, key)
        if not isinstance(rows, list):
            raise InputError(path, f"image {key}: expected a list of observations")
        entries = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 3:
                raise InputError(path, f"image {key} observation {i}: expected [idx, u, v]")
            where = f"image {key} observation {i}"
            pi = _index(path, row[0], where)
            if not 0 <= pi < len(pts):
                raise InputError(path, f"{where}: point index {pi} out of range")
            entries.append((pi, np.array(_coords(path, row[1:], where))))
        obs[img] = entries
    return pts, obs


def load_neighbors(path: str | Path) -> dict[int, list[int]]:
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise InputError(path, "expected an object mapping image ids to neighbor lists")
    out = {}
    for key, row in raw.items():
        img = _image_key(path, key)
        if not isinstance(row, list):
            raise InputError(path, f"image {key}: expected a list of image ids")
        out[img] = [_index(path, v, f"image {key} neighbor {i}") for i, v in enumerate(row)]
    return out


def load_gt_segments(path: str | Path) -> list[Segment3D]:
    """Read ``{"segments": [[x1, y1, z1, x2, y2, z2], ...]}``."""
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("segments"), list):
        raise InputError(path, 'expected an object with a "segments" list')
    out = []
    for i, row in enumerate(raw["segments"]):
        if not isinstance(row, list) or len(row) != 6:
            raise InputError(path, f"segment {i}: expected [x1, y1, z1, x2, y2, z2]")
        c = _coords(path, row, f"segment {i}")
        out.append(Segment3D(np.array(c[:3]), np.array(c[3:])))
    return out


def load_dataset(root: str | Path) -> PipelineInput:
    """Load and cross-validate a dataset directory."""
    root = Path(root)
    if not root.is_dir():
        raise InputError(root, "dataset directory not found")
    views = load_cameras(root / "cameras.json")
    detections = load_segments(root / "segments.json")
    for img in detections:
        if img not in views:
            raise InputError(root / "segments.json", f"image {img} has no camera")
    for img in views:
        detections.setdefault(img, [])

    matches = None
    if (root / "matches.json").is_file():
        matches = load_matches(root / "matches.json")
        for img, rows in matches.items():
            if img not in views:
                raise InputError(root / "matches.json", f"image {img} has no camera")
            if len(rows) != len(detections[img]):
                raise InputError(
                    root / "matches.json",
                    f"image {img}: {len(rows)} rows for {len(detections[img])} detections",
                )
            for i, row in enumerate(rows):
                for other, dj in row:
                    if other not in views:
                        raise InputError(
                            root / "matches.json", f"image {img} detection {i}: unknown image {other}"
                        )
                    if not 0 <= dj < len(detections[other]):
                        raise InputError(
                            root / "matches.json",
                            f"image {img} detection {i}: detection {dj} out of range for image {other}",
                        )

    points3d = None
    point_obs: dict[int, list[tuple[int, np.ndarray]]] = {}
    if (root / "points.json").is_file():
        points3d, point_obs = load_points(root / "points.json")
        for img in point_obs:
            if img not in views:
                raise InputError(root / "points.json", f"image {img} has no camera")

    neighbors = None
    if (root / "neighbors.json").is_file():
        neighbors = load_neighbors(root / "neighbors.json")
        for img, row in neighbors.items():
            if img not in views:
                raise InputError(root / "neighbors.json", f"image {img} has no camera")
            for other in row:
                if other not in views:
                    raise InputError(root / "neighbors.json", f"unknown neighbor image {other}")

    return PipelineInput(
        root=root,
        views=views,
        detections=detections,
        matches=matches,
        points3d=points3d,
        point_obs=point_obs,
        neighbors=neighbors,
    )


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def _canon(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError("non-finite float in canonical JSON")
        out.append(f"{v:.9g}")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, dict):
        out.append("{")
        first = True
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("canonical JSON object keys must be strings")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _canon(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        out.append("[")
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonicalize {type(value)!r}")


def canonical_dumps(value) -> str:
    """Deterministic JSON text: sorted keys, compact, %.9g floats."""
    out: list[str] = []
    _canon(value, out)
    out.append("\n")
    return "".join(out)


def write_tracks_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(canonical_dumps(payload))


def read_tracks_json(path: str | Path) -> dict:
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("tracks"), list):
        raise InputError(path, 'expected an object with a "tracks" list')
    for i, track in enumerate(raw["tracks"]):
        where = f"track {i}"
        if not isinstance(track, dict):
            raise InputError(path, f"{where}: expected an object")
        for key in ("start", "end"):
            xyz = track.get(key)
            if not isinstance(xyz, list) or len(xyz) != 3:
                raise InputError(path, f'{where}: "{key}" must be [x, y, z]')
            _coords(path, xyz, f"{where} {key}")
        supports = track.get("supports", [])
        if not isinstance(supports, list):
            raise InputError(path, f'{where}: "supports" must be a list')
        for pair in supports:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError(path, f"{where}: support must be [image, detection]")
            for v in pair:
                _index(path, v, f"{where} support")
    return raw


def tracks_payload(
    tracks,
    vp_tracks=None,
    point_line_edges=None,
    line_vp_edges=None,
    points3d=None,
    stats=None,
) -> dict:
    """Assemble the canonical result document for a set of line tracks."""
    payload = {
        "tracks": [
            {
                "start": [float(v) for v in t.segment.start],
                "end": [float(v) for v in t.segment.end],
                "supports": [[int(img), int(det)] for img, det in t.supports],
                "source_counts": {k: int(v) for k, v in sorted(t.source_counts.items())},
            }
            for t in tracks
        ]
    }
    if vp_tracks is not None:
        payload["vp_tracks"] = [
            {
                "direction": [float(v) for v in vt.direction],
                "members": [[int(img), int(k)] for img, k in vt.members],
            }
            for vt in vp_tracks
        ]
    if point_line_edges is not None:
        payload["point_line_edges"] = [[int(a), int(b)] for a, b in point_line_edges]
    if line_vp_edges is not None:
        payload["line_vp_edges"] = [[int(a), int(b)] for a, b in line_vp_edges]
    if points3d is not None:
        payload["points"] = [[float(v) for v in p] for p in points3d]
    if stats is not None:
        payload["stats"] = stats
    return payload


def segments_from_payload(payload: dict) -> list[Segment3D]:
    return [
        Segment3D(np.array(t["start"], dtype=np.float64), np.array(t["end"], dtype=np.float64))
        for t in payload["tracks"]
    ]


def write_ply(path: str | Path, segments: list[Segment3D]) -> None:
    """ASCII PLY with one vertex pair and one edge per segment."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {2 * len(segments)}",
        "property float x",
        "property float y",
        "property float z",
        f"element edge {len(segments)}",
        "property int vertex1",
        "property int vertex2",
        "end_header",
    ]
    for seg in segments:
        for p in (seg.start, seg.end):
            lines.append(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")
    for i in range(len(segments)):
        lines.append(f"{2 * i} {2 * i + 1}")
    Path(path).write_text("\n".join(lines) + "\n")

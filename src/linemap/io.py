"""Dataset reading and writing, and result serialization.

This module is the one home of the dataset layout.  A dataset directory holds:

* ``cameras.json``: ``{"<image>": {"K": 3x3, "R": 3x3, "t": [3], "width", "height"}}``
* ``segments.json``: ``{"<image>": [[x1, y1, x2, y2], ...]}``
* ``matches.json`` (optional): ``{"<image>": [[[img, det], ...] per detection]}``
* ``points.json`` (optional): ``{"points": [[x, y, z], ...], "observations":
  {"<image>": [[point_idx, u, v], ...]}}``
* ``neighbors.json`` (optional): ``{"<image>": [image ids]}``
* ``depth/<image>.bin`` (optional): two little-endian uint32 (height,
  width) then float32 row-major z-depth, NaN meaning invalid.
* ``gt_lines.json`` (synthetic scenes): ``{"segments": [[x1, y1, z1, x2, y2, z2], ...]}``

:func:`load_dataset` reads the layout and :func:`write_dataset` writes it.
Outputs are written as canonical JSON: object keys sorted, no spaces,
floats rendered with ``%.9g`` so that a write/read/write cycle is
byte-stable, except that ``-0`` reads back as ``0``.  Malformed inputs
raise :class:`InputError`, which carries the offending file path for CLI
diagnostics.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .depthfit import DepthMap
from .geometry import EPS, CameraView, Segment2D, Segment3D
from .pipeline import PipelineInput, PipelineResult

__all__ = [
    "InputError",
    "MATCHES",
    "load_dataset",
    "write_dataset",
    "depth_path",
    "load_depth",
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

CAMERAS = "cameras.json"
SEGMENTS = "segments.json"
MATCHES = "matches.json"
POINTS = "points.json"
NEIGHBORS = "neighbors.json"
GT_LINES = "gt_lines.json"

# largest magnitude of any number read from a dataset or a tracks file; beyond it
# products of coordinates can overflow inside a run
MAX_MAGNITUDE = 1e12


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
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise InputError(path, "invalid JSON: nested too deeply") from None
    except ValueError as e:  # bad syntax, bytes that are not UTF-8, over-long integers
        raise InputError(path, f"invalid JSON: {e}") from None


def _image_keys(path: Path, raw: dict):
    """Yield ``(image id, key, value)`` from an object keyed by image ids.

    Two keys that name one image (``"0"`` and ``"00"``) are an InputError.
    """
    seen: dict[int, str] = {}
    for key, value in raw.items():
        try:
            img = int(key)
        except (TypeError, ValueError):
            raise InputError(path, f"image id {key!r} is not an integer") from None
        if img in seen:
            raise InputError(path, f"keys {seen[img]!r} and {key!r} both name image {img}")
        seen[img] = key
        yield img, key, value


def _index(path: Path, value, where: str) -> int:
    """A JSON integer (not a bool), or an InputError naming ``path``."""
    if type(value) is not int:
        raise InputError(path, f"{where}: {value!r} is not an integer")
    return value


def _coords(path: Path, row, where: str, layout: str) -> list[float]:
    """The floats, finite and at most MAX_MAGNITUDE in magnitude, of a JSON row of
    numbers (not bools) shaped like ``layout``, e.g. ``"[x, y, z]"``, or an
    InputError naming ``path``."""
    if not isinstance(row, list) or len(row) != layout.count(",") + 1:
        raise InputError(path, f"{where}: expected {layout}")
    if not all(type(v) in (int, float) for v in row):
        raise InputError(path, f"{where}: coordinates must be numbers")
    try:
        out = [float(v) for v in row]
    except OverflowError:  # an integer beyond float range
        out = [math.inf]
    if not all(map(math.isfinite, out)):
        raise InputError(path, f"{where}: non-finite coordinate")
    if max(map(abs, out)) > MAX_MAGNITUDE:
        raise InputError(path, f"{where}: coordinate magnitude above {MAX_MAGNITUDE:g}")
    return out


def _per_image(path: Path, raw, rows: str):
    """Yield ``(image id, list)`` from an object mapping image ids to lists of ``rows``."""
    if not isinstance(raw, dict):
        raise InputError(path, f"{rows}: expected an object mapping image ids to lists")
    for img, _, value in _image_keys(path, raw):
        if not isinstance(value, list):
            raise InputError(path, f"image {img}: expected a list of {rows}")
        yield img, value


def load_cameras(path: str | Path) -> dict[int, CameraView]:
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict) or not raw:
        raise InputError(path, "expected a non-empty object of cameras")
    views = {}
    for img, key, cam in _image_keys(path, raw):
        if not isinstance(cam, dict):
            raise InputError(path, f"camera {key}: expected an object")
        try:
            K, R, t = (np.array(cam[k], dtype=np.float64) for k in "KRt")
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise InputError(path, f"camera {key}: {e}") from e
        width, height = (
            _index(path, cam.get(k, 0), f"camera {key} {k}") for k in ("width", "height")
        )
        if K.shape != (3, 3) or R.shape != (3, 3) or t.shape != (3,):
            raise InputError(path, f"camera {key}: K/R must be 3x3 and t length 3")
        if not (np.isfinite(K).all() and np.isfinite(R).all() and np.isfinite(t).all()):
            raise InputError(path, f"camera {key}: non-finite value in K, R or t")
        cond = np.linalg.cond(K)  # inf for a singular K; the limit is matrix_rank's tolerance
        if cond >= 1.0 / (3.0 * np.finfo(np.float64).eps):
            raise InputError(
                path, f"camera {key}: K is singular or badly scaled (condition number {cond:.3g})"
            )
        if np.abs(K[2] - (0.0, 0.0, 1.0)).max() > 1e-9:
            raise InputError(path, f"camera {key}: last row of K must be (0, 0, 1)")
        if abs(np.linalg.det(R) - 1.0) > 1e-6 or np.abs(R @ R.T - np.eye(3)).max() > 1e-6:
            raise InputError(path, f"camera {key}: R is not a rotation matrix")
        if max(abs(v) for v in (*K.flat, *t, width, height)) > MAX_MAGNITUDE:
            raise InputError(
                path, f"camera {key}: magnitude above {MAX_MAGNITUDE:g} in K, t, width or height"
            )
        views[img] = CameraView(K=K, R=R, t=t, width=width, height=height)
    return views


def load_segments(path: str | Path) -> dict[int, list[Segment2D]]:
    path = Path(path)
    out = {}
    for img, rows in _per_image(path, _load_json(path), "segments"):
        segs = out[img] = []
        for i, row in enumerate(rows):
            where = f"image {img} segment {i}"
            x1, y1, x2, y2 = _coords(path, row, where, "[x1, y1, x2, y2]")
            seg = Segment2D(np.array([x1, y1]), np.array([x2, y2]))
            if seg.length < EPS:
                raise InputError(path, f"{where}: zero-length segment")
            segs.append(seg)
    return out


def load_matches(path: str | Path) -> dict[int, list[list[tuple[int, int]]]]:
    path = Path(path)
    out = {}
    for img, rows in _per_image(path, _load_json(path), "match rows"):
        table = out[img] = []
        for i, row in enumerate(rows):
            where = f"image {img} detection {i}"
            if not isinstance(row, list):
                raise InputError(path, f"{where}: expected a list of pairs")
            pairs = []
            for pair in row:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InputError(path, f"{where}: match must be [image, detection]")
                pairs.append((_index(path, pair[0], where), _index(path, pair[1], where)))
            table.append(pairs)
    return out


def load_points(path: str | Path):
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("points"), list):
        raise InputError(path, 'expected an object with a "points" list and "observations"')
    rows = [_coords(path, row, f"point {i}", "[x, y, z]") for i, row in enumerate(raw["points"])]
    pts = np.array(rows, dtype=np.float64).reshape(-1, 3)
    obs: dict[int, list[tuple[int, np.ndarray]]] = {}
    for img, rows in _per_image(path, raw.get("observations", {}), "observations"):
        entries = obs[img] = []
        for i, row in enumerate(rows):
            where = f"image {img} observation {i}"
            if not isinstance(row, list) or len(row) != 3:
                raise InputError(path, f"{where}: expected [idx, u, v]")
            pi = _index(path, row[0], where)
            if not 0 <= pi < len(pts):
                raise InputError(path, f"{where}: point index {pi} out of range")
            entries.append((pi, np.array(_coords(path, row[1:], where, "[u, v]"))))
    return pts, obs


def load_neighbors(path: str | Path) -> dict[int, list[int]]:
    path = Path(path)
    return {
        img: [_index(path, v, f"image {img} neighbor {i}") for i, v in enumerate(row)]
        for img, row in _per_image(path, _load_json(path), "neighbors")
    }


def load_gt_segments(path: str | Path) -> list[Segment3D]:
    """Read ``{"segments": [[x1, y1, z1, x2, y2, z2], ...]}``."""
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("segments"), list):
        raise InputError(path, 'expected an object with a "segments" list')
    out = []
    for i, row in enumerate(raw["segments"]):
        c = _coords(path, row, f"segment {i}", "[x1, y1, z1, x2, y2, z2]")
        out.append(Segment3D(np.array(c[:3]), np.array(c[3:])))
    return out


def load_dataset(root: str | Path) -> PipelineInput:
    """Load and cross-validate a dataset directory."""
    root = Path(root)
    if not root.is_dir():
        raise InputError(root, "dataset directory not found")
    views = load_cameras(root / CAMERAS)
    detections = load_segments(root / SEGMENTS)

    def optional(name, load):
        return load(root / name) if (root / name).is_file() else None

    matches = optional(MATCHES, load_matches)
    points3d, point_obs = optional(POINTS, load_points) or (None, {})
    neighbors = optional(NEIGHBORS, load_neighbors)
    per_image = {SEGMENTS: detections, MATCHES: matches, POINTS: point_obs, NEIGHBORS: neighbors}
    for name, table in per_image.items():
        for img in table or ():
            if img not in views:
                raise InputError(root / name, f"image {img} has no camera")
    match_rows, neighbor_rows = (matches or {}).items(), (neighbors or {}).items()
    referenced = itertools.chain(
        ((MATCHES, img, j) for img, rows in match_rows for row in rows for j, _ in row),
        ((NEIGHBORS, img, j) for img, row in neighbor_rows for j in row),
    )
    for name, img, other in referenced:
        if other not in views:
            raise InputError(root / name, f"image {img}: unknown image {other}")
    for img in views:
        detections.setdefault(img, [])
    for img, rows in match_rows:
        if len(rows) != len(detections[img]):
            raise InputError(
                root / MATCHES, f"image {img}: {len(rows)} rows for {len(detections[img])} detections"
            )
        for i, row in enumerate(rows):
            for other, dj in row:
                if not 0 <= dj < len(detections[other]):
                    raise InputError(
                        root / MATCHES,
                        f"image {img} detection {i}: detection {dj} out of range for image {other}",
                    )
    return PipelineInput(views, detections, matches, points3d, point_obs, neighbors)


def depth_path(root: str | Path, image_id: int) -> Path:
    return Path(root) / "depth" / f"{image_id}.bin"


def load_depth(root: str | Path, image_id: int) -> DepthMap | None:
    """Image ``image_id``'s depth map, or None when the dataset has none for it."""
    path = depth_path(root, image_id)
    if not path.is_file():
        return None
    raw = path.read_bytes()
    if len(raw) < 8:
        raise InputError(path, f"depth file has {len(raw)} bytes, shorter than its 8-byte header")
    h, w = (int(v) for v in np.frombuffer(raw[:8], dtype="<u4"))
    expect = 8 + 4 * h * w
    if len(raw) != expect:
        raise InputError(path, f"depth file has {len(raw)} bytes, expected {expect} for {h}x{w}")
    return DepthMap(np.frombuffer(raw[8:], dtype="<f4").reshape(h, w).copy())


def write_dataset(
    root: str | Path,
    data: PipelineInput,
    depth: dict[int, DepthMap] | None = None,
    gt: dict | None = None,
) -> Path:
    """Write ``data`` as a dataset directory that :func:`load_dataset` reads back.

    ``depth`` maps image ids to depth maps; ``gt`` is written as is to
    ``gt_lines.json``.  Optional files are written only for the parts
    that are present.  Returns ``root``.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    docs = {
        CAMERAS: {
            str(img): {"K": v.K, "R": v.R, "t": v.t, "width": v.width, "height": v.height}
            for img, v in data.views.items()
        },
        SEGMENTS: {
            str(img): [[*det.start, *det.end] for det in dets]
            for img, dets in data.detections.items()
        },
    }
    if data.matches is not None:
        docs[MATCHES] = {str(img): rows for img, rows in data.matches.items()}
    if data.points3d is not None:
        docs[POINTS] = {
            "points": data.points3d,
            "observations": {
                str(img): [[pi, *xy] for pi, xy in entries]
                for img, entries in data.point_obs.items()
            },
        }
    if data.neighbors is not None:
        docs[NEIGHBORS] = {str(img): row for img, row in data.neighbors.items()}
    if gt is not None:
        docs[GT_LINES] = gt
    for name, doc in docs.items():
        (root / name).write_text(canonical_dumps(doc))
    for img, dm in (depth or {}).items():
        path = depth_path(root, img)
        path.parent.mkdir(exist_ok=True)
        header = np.array(dm.data.shape, dtype="<u4")
        path.write_bytes(header.tobytes() + dm.data.astype("<f4").tobytes())
    return root


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
            _coords(path, xyz, f"{where} {key}", "[x, y, z]")
        supports = track.get("supports", [])
        if not isinstance(supports, list):
            raise InputError(path, f'{where}: "supports" must be a list')
        for pair in supports:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError(path, f"{where}: support must be [image, detection]")
            for v in pair:
                _index(path, v, f"{where} support")
    return raw


def tracks_payload(result: PipelineResult) -> dict:
    """Assemble the canonical result document of a pipeline run.

    ``"points"`` is present only when the run had 3D points.
    """
    payload = {
        "tracks": [
            {
                "start": [float(v) for v in t.segment.start],
                "end": [float(v) for v in t.segment.end],
                "supports": [[int(img), int(det)] for img, det in t.supports],
                "source_counts": {k: int(v) for k, v in sorted(t.source_counts.items())},
            }
            for t in result.tracks
        ],
        "vp_tracks": [
            {
                "direction": [float(v) for v in vt.direction],
                "members": [[int(img), int(k)] for img, k in vt.members],
            }
            for vt in result.vp_tracks
        ],
        "point_line_edges": [[int(a), int(b)] for a, b in result.point_line_edges],
        "line_vp_edges": [[int(a), int(b)] for a, b in result.line_vp_edges],
        "stats": result.stats,
    }
    if result.points3d is not None:
        payload["points"] = [[float(v) for v in p] for p in result.points3d]
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

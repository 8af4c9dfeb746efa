"""Tests for dataset loading, canonical JSON, and result serialization."""

import json

import numpy as np
import pytest

from linemap.geometry import Segment3D
from linemap.io import (
    InputError,
    canonical_dumps,
    load_cameras,
    load_dataset,
    load_points,
    read_tracks_json,
    segments_from_payload,
    tracks_payload,
    write_ply,
    write_tracks_json,
)
from linemap.tracks import LineTrack

from support import make_view


def camera_entry(view):
    return {
        "K": view.K,
        "R": view.R,
        "t": view.t,
        "width": view.width,
        "height": view.height,
    }


def write_minimal_dataset(root, with_matches=True, with_points=True):
    views = {
        0: make_view(np.array([-1.5, 0.2, -3.0])),
        1: make_view(np.array([1.4, -0.3, -3.1])),
    }
    cameras = {str(i): camera_entry(v) for i, v in views.items()}
    segments = {
        "0": [[100.0, 120.0, 300.0, 140.0], [50.0, 60.0, 52.0, 200.0]],
        "1": [[110.0, 118.0, 290.0, 150.0]],
    }
    (root / "cameras.json").write_text(canonical_dumps(cameras))
    (root / "segments.json").write_text(canonical_dumps(segments))
    if with_matches:
        matches = {"0": [[[1, 0]], []], "1": [[[0, 0]]]}
        (root / "matches.json").write_text(canonical_dumps(matches))
    if with_points:
        points = {
            "points": [[0.1, 0.2, 0.3]],
            "observations": {"0": [[0, 200.0, 210.0]], "1": [[0, 190.0, 200.0]]},
        }
        (root / "points.json").write_text(canonical_dumps(points))
    return views


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def test_canonical_dumps_sorts_keys_and_is_insertion_order_independent():
    a = canonical_dumps({"b": 1, "a": [1.0, 2.5], "c": {"y": True, "x": None}})
    b = canonical_dumps({"c": {"x": None, "y": True}, "a": [1.0, 2.5], "b": 1})
    assert a == b
    assert a == '{"a":[1,2.5],"b":1,"c":{"x":null,"y":true}}\n'


def test_canonical_dumps_handles_numpy_scalars_and_arrays():
    text = canonical_dumps({"m": np.arange(4, dtype=np.float64).reshape(2, 2), "n": np.int64(7)})
    assert text == '{"m":[[0,1],[2,3]],"n":7}\n'


def test_canonical_dumps_float_formatting_is_stable():
    text = canonical_dumps([0.1, 1e-12, 123456789.123, np.float32(0.5)])
    assert text == "[0.1,1e-12,123456789,0.5]\n"
    # repeated serialization is byte-identical
    assert text == canonical_dumps([0.1, 1e-12, 123456789.123, np.float32(0.5)])


# ---------------------------------------------------------------------------
# loaders and validation
# ---------------------------------------------------------------------------


def test_load_dataset_roundtrip(tmp_path):
    views = write_minimal_dataset(tmp_path)
    data = load_dataset(tmp_path)
    assert sorted(data.views) == [0, 1]
    np.testing.assert_allclose(data.views[0].K, views[0].K)
    np.testing.assert_allclose(data.views[1].t, views[1].t)
    assert len(data.detections[0]) == 2
    np.testing.assert_allclose(data.detections[0][1].start, [50.0, 60.0])
    assert data.matches[0][0] == [(1, 0)]
    assert data.matches[0][1] == []
    assert data.points3d.shape == (1, 3)
    assert data.point_obs[1][0][0] == 0
    assert data.neighbors is None
    assert data.depth_path(0) == tmp_path / "depth" / "0.bin"


def test_load_dataset_without_optional_files(tmp_path):
    write_minimal_dataset(tmp_path, with_matches=False, with_points=False)
    data = load_dataset(tmp_path)
    assert data.matches is None
    assert data.points3d is None
    assert data.point_obs == {}


def test_missing_directory_names_path(tmp_path):
    missing = tmp_path / "nope"
    with pytest.raises(InputError) as err:
        load_dataset(missing)
    assert err.value.path == str(missing)


def test_invalid_json_names_file(tmp_path):
    write_minimal_dataset(tmp_path)
    (tmp_path / "segments.json").write_text("{not json")
    with pytest.raises(InputError) as err:
        load_dataset(tmp_path)
    assert err.value.path == str(tmp_path / "segments.json")
    assert "JSON" in err.value.message


def test_camera_must_have_projective_last_row(tmp_path):
    views = write_minimal_dataset(tmp_path)
    bad = camera_entry(views[0])
    bad["K"] = np.array(bad["K"], dtype=float)
    bad["K"][2, 0] = 0.5
    (tmp_path / "cameras.json").write_text(
        canonical_dumps({"0": bad, "1": camera_entry(views[1])})
    )
    with pytest.raises(InputError) as err:
        load_cameras(tmp_path / "cameras.json")
    assert "last row" in err.value.message


@pytest.mark.parametrize(
    "entry, message",
    [
        ((0, 0, float("nan")), "non-finite"),
        ((0, 0, float("inf")), "non-finite"),
        ((0, 0, 0.0), "singular"),
        ((1, 1, 0.0), "singular"),
    ],
    ids=["nan", "inf", "zero_focal", "rank_deficient"],
)
def test_camera_K_must_be_finite_and_invertible(tmp_path, entry, message):
    views = write_minimal_dataset(tmp_path)
    cam = {k: np.asarray(v).tolist() for k, v in camera_entry(views[0]).items()}
    row, col, value = entry
    cam["K"][row][col] = value
    path = tmp_path / "cameras.json"
    path.write_text(json.dumps({"0": cam}))  # json, not canonical: it rejects NaN
    with pytest.raises(InputError) as err:
        load_cameras(path)
    assert err.value.path == str(path)
    assert message in err.value.message


@pytest.mark.parametrize("index", [0.5, "0", None, True], ids=["float", "string", "null", "bool"])
def test_point_index_must_be_an_integer(tmp_path, index):
    path = tmp_path / "points.json"
    path.write_text(
        json.dumps({"points": [[0.1, 0.2, 0.3]], "observations": {"0": [[index, 200.0, 210.0]]}})
    )
    with pytest.raises(InputError) as err:
        load_points(path)
    assert err.value.path == str(path)
    assert "not an integer" in err.value.message


def test_point_observation_pixels_must_be_finite(tmp_path):
    path = tmp_path / "points.json"
    path.write_text(
        json.dumps({"points": [[0.1, 0.2, 0.3]], "observations": {"0": [[0, float("nan"), 1.0]]}})
    )
    with pytest.raises(InputError) as err:
        load_points(path)
    assert "non-finite" in err.value.message


def test_segments_for_unknown_camera_rejected(tmp_path):
    write_minimal_dataset(tmp_path)
    (tmp_path / "segments.json").write_text(
        canonical_dumps({"0": [[0.0, 0.0, 1.0, 1.0]], "7": [[0.0, 0.0, 1.0, 1.0]]})
    )
    with pytest.raises(InputError) as err:
        load_dataset(tmp_path)
    assert err.value.path == str(tmp_path / "segments.json")
    assert "image 7" in err.value.message


def test_matches_row_count_must_match_detections(tmp_path):
    write_minimal_dataset(tmp_path)
    (tmp_path / "matches.json").write_text(canonical_dumps({"0": [[[1, 0]]], "1": [[[0, 0]]]}))
    with pytest.raises(InputError) as err:
        load_dataset(tmp_path)
    assert err.value.path == str(tmp_path / "matches.json")
    assert "rows" in err.value.message


def test_matches_may_not_reference_out_of_range_detection(tmp_path):
    write_minimal_dataset(tmp_path)
    (tmp_path / "matches.json").write_text(
        canonical_dumps({"0": [[[1, 5]], []], "1": [[[0, 0]]]})
    )
    with pytest.raises(InputError) as err:
        load_dataset(tmp_path)
    assert "out of range" in err.value.message


# ---------------------------------------------------------------------------
# result documents
# ---------------------------------------------------------------------------


def make_tracks():
    return [
        LineTrack(
            segment=Segment3D(np.array([0.0, 0.1, 0.2]), np.array([1.0, 1.1, 1.2])),
            supports=[(0, 0), (1, 0)],
            source_counts={"algebraic": 2},
        ),
        LineTrack(
            segment=Segment3D(np.array([2.0, 0.0, 0.0]), np.array([2.0, 1.0, 0.0])),
            supports=[(0, 1)],
            source_counts={},
        ),
    ]


def test_tracks_payload_roundtrip(tmp_path):
    payload = tracks_payload(
        make_tracks(),
        point_line_edges=[(0, 1)],
        line_vp_edges=[(1, 0)],
        points3d=np.array([[0.5, 0.5, 0.5]]),
        stats={"tracks": 2},
    )
    path = tmp_path / "tracks.json"
    write_tracks_json(path, payload)
    back = read_tracks_json(path)
    assert back == {
        "tracks": [
            {
                "start": [0.0, 0.1, 0.2],
                "end": [1.0, 1.1, 1.2],
                "supports": [[0, 0], [1, 0]],
                "source_counts": {"algebraic": 2},
            },
            {
                "start": [2.0, 0.0, 0.0],
                "end": [2.0, 1.0, 0.0],
                "supports": [[0, 1]],
                "source_counts": {},
            },
        ],
        "point_line_edges": [[0, 1]],
        "line_vp_edges": [[1, 0]],
        "points": [[0.5, 0.5, 0.5]],
        "stats": {"tracks": 2},
    }
    segs = segments_from_payload(back)
    np.testing.assert_allclose(segs[0].end, [1.0, 1.1, 1.2])


def test_read_tracks_requires_tracks_key(tmp_path):
    path = tmp_path / "tracks.json"
    path.write_text('{"lines": []}\n')
    with pytest.raises(InputError) as err:
        read_tracks_json(path)
    assert err.value.path == str(path)


def test_write_ply_counts_and_header(tmp_path):
    path = tmp_path / "lines.ply"
    write_ply(path, [t.segment for t in make_tracks()])
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert "element vertex 4" in lines
    assert "element edge 2" in lines
    assert lines[-1] == "2 3"
    assert lines[lines.index("end_header") + 1] == "0 0.1 0.2"

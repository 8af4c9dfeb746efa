"""Tests for dataset loading, canonical JSON, and result serialization."""

import dataclasses
import json

import numpy as np
import pytest

from linemap.association import VPTrack
from linemap.depthfit import DepthMap
from linemap.geometry import Segment2D, Segment3D
from linemap.io import (
    InputError,
    canonical_dumps,
    depth_path,
    load_cameras,
    load_dataset,
    load_depth,
    load_points,
    read_tracks_json,
    segments_from_payload,
    tracks_payload,
    write_dataset,
    write_ply,
    write_tracks_json,
)
from linemap.pipeline import PipelineInput, PipelineResult
from linemap.synthetic import (
    ObservationConfig,
    SceneConfig,
    build_scene,
    make_depth_scene,
    observe_scene,
)
from linemap.tracks import LineTrack

from support import make_view


def write_minimal_dataset(root, with_matches=True, with_points=True):
    views = {
        0: make_view(np.array([-1.5, 0.2, -3.0])),
        1: make_view(np.array([1.4, -0.3, -3.1])),
    }
    detections = {
        0: [Segment2D([100.0, 120.0], [300.0, 140.0]), Segment2D([50.0, 60.0], [52.0, 200.0])],
        1: [Segment2D([110.0, 118.0], [290.0, 150.0])],
    }
    data = PipelineInput(views, detections)
    if with_matches:
        data.matches = {0: [[(1, 0)], []], 1: [[(0, 0)]]}
    if with_points:
        data.points3d = np.array([[0.1, 0.2, 0.3]])
        data.point_obs = {0: [(0, np.array([200.0, 210.0]))], 1: [(0, np.array([190.0, 200.0]))]}
    write_dataset(root, data)
    return views


def edit_cameras(root, edit):
    """Rewrite ``cameras.json`` under ``root`` with ``edit`` applied to its parsed JSON."""
    cams = json.loads((root / "cameras.json").read_text())
    edit(cams)
    (root / "cameras.json").write_text(json.dumps(cams))  # json, not canonical: it rejects NaN


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
    assert depth_path(tmp_path, 0) == tmp_path / "depth" / "0.bin"


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
    write_minimal_dataset(tmp_path)
    edit_cameras(tmp_path, lambda cams: cams["0"]["K"][2].__setitem__(0, 0.5))
    with pytest.raises(InputError) as err:
        load_cameras(tmp_path / "cameras.json")
    assert "last row" in err.value.message


@pytest.mark.parametrize(
    "entry, message",
    [
        ((0, 0, float("nan")), "non-finite"),
        ((0, 0, float("inf")), "non-finite"),
        ((0, 0, 0.0), "K is singular or badly scaled (condition number inf)"),
        ((1, 1, 0.0), "K is singular or badly scaled (condition number inf)"),
        # invertible (det 6e22) but as good as singular in float64
        ((0, 0, 1e20), "K is singular or badly scaled (condition number 1.08e+20)"),
    ],
    ids=["nan", "inf", "zero_focal", "rank_deficient", "badly_scaled"],
)
def test_camera_K_must_be_finite_and_invertible(tmp_path, entry, message):
    write_minimal_dataset(tmp_path)
    row, col, value = entry
    edit_cameras(tmp_path, lambda cams: cams["0"]["K"][row].__setitem__(col, value))
    path = tmp_path / "cameras.json"
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
# write_dataset is the inverse of load_dataset
# ---------------------------------------------------------------------------


def assert_same_input(got, want):
    """Equal up to the %.9g rounding of canonical JSON; indices exactly equal."""
    close = dict(rtol=1e-8, atol=1e-12)
    assert sorted(got.views) == sorted(want.views)
    for img, view in want.views.items():
        for name in ("K", "R", "t"):
            np.testing.assert_allclose(getattr(got.views[img], name), getattr(view, name), **close)
        assert (got.views[img].width, got.views[img].height) == (view.width, view.height)
    assert sorted(got.detections) == sorted(want.detections)
    for img, dets in want.detections.items():
        assert len(got.detections[img]) == len(dets)
        for a, b in zip(got.detections[img], dets):
            np.testing.assert_allclose([a.start, a.end], [b.start, b.end], **close)
    assert got.matches == want.matches
    assert got.neighbors == want.neighbors
    if want.points3d is None:
        assert got.points3d is None
    else:
        np.testing.assert_allclose(got.points3d, want.points3d, **close)
    assert sorted(got.point_obs) == sorted(want.point_obs)
    for img, entries in want.point_obs.items():
        assert [pi for pi, _ in got.point_obs[img]] == [pi for pi, _ in entries]
        np.testing.assert_allclose(
            [xy for _, xy in got.point_obs[img]], [xy for _, xy in entries], **close
        )


def assert_round_trip(tmp_path, data, depth=None):
    root = write_dataset(tmp_path / "data", data, depth=depth)
    assert_same_input(load_dataset(root), data)
    for img in data.views:
        got, want = load_depth(root, img), (depth or {}).get(img)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.data, want.data, equal_nan=True)


def test_write_dataset_round_trips_a_box_scene(tmp_path):
    scene = build_scene(SceneConfig(n_views=4, seed=0))
    obs = observe_scene(scene, ObservationConfig(noise_px=1.0, outlier_fraction=0.2, seed=0))
    data = PipelineInput(
        scene.views,
        obs.detections,
        obs.matches,
        scene.junctions,
        obs.points2d,
        neighbors={img: [j for j in scene.views if j != img] for img in scene.views},
    )
    assert_round_trip(tmp_path, data)
    assert {p.name for p in (tmp_path / "data").iterdir()} == {
        "cameras.json", "segments.json", "matches.json", "points.json", "neighbors.json"
    }


def test_write_dataset_round_trips_a_depth_scene(tmp_path):
    rng = np.random.default_rng(0)
    views, depth, detections = {}, {}, {}
    for i in range(2):
        views[i], depth[i], seg2d, _ = make_depth_scene(rng, occluded_fraction=0.3)
        detections[i] = [seg2d]
    del depth[1]  # an image without a depth map reads back as None
    assert_round_trip(tmp_path, PipelineInput(views, detections), depth=depth)
    assert load_depth(tmp_path / "data", 1) is None
    assert not (tmp_path / "data" / "matches.json").exists()


def write_depth_only(root, depth):
    views = {img: make_view(np.array([0.0, 0.0, -3.0])) for img in depth}
    return write_dataset(root, PipelineInput(views, {img: [] for img in views}), depth=depth)


def test_depth_map_round_trips_its_bytes(tmp_path):
    data = np.arange(12, dtype=np.float32).reshape(3, 4)
    data[1, 2] = np.nan
    root = write_depth_only(tmp_path / "data", {0: DepthMap(data)})
    assert depth_path(root, 0).read_bytes() == (
        np.array([3, 4], dtype="<u4").tobytes() + data.astype("<f4").tobytes()
    )
    loaded = load_depth(root, 0)
    assert loaded.height == 3 and loaded.width == 4
    assert np.isnan(loaded.data[1, 2])
    mask = ~np.isnan(data)
    assert np.array_equal(loaded.data[mask], data[mask])


@pytest.mark.parametrize(
    "blob",
    [b"\x02\x00\x00", b"\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00"],
    ids=["short_header", "short_data"],
)
def test_load_depth_rejects_a_truncated_file(tmp_path, blob):
    root = write_depth_only(tmp_path / "data", {0: DepthMap(np.ones((2, 2)))})
    depth_path(root, 0).write_bytes(blob)
    with pytest.raises(InputError) as err:
        load_depth(root, 0)
    assert err.value.path == str(depth_path(root, 0))


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
    result = PipelineResult(
        tracks=make_tracks(),
        vp_tracks=[VPTrack(members=[(0, 1), (1, 0)], direction=np.array([0.0, 0.6, 0.8]))],
        point_line_edges=[(0, 1)],
        line_vp_edges=[(1, 0)],
        points3d=np.array([[0.5, 0.5, 0.5]]),
        stats={"tracks": 2},
    )
    payload = tracks_payload(result)
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
        "vp_tracks": [{"direction": [0.0, 0.6, 0.8], "members": [[0, 1], [1, 0]]}],
        "point_line_edges": [[0, 1]],
        "line_vp_edges": [[1, 0]],
        "points": [[0.5, 0.5, 0.5]],
        "stats": {"tracks": 2},
    }
    segs = segments_from_payload(back)
    np.testing.assert_allclose(segs[0].end, [1.0, 1.1, 1.2])
    # a run without 3D points writes no "points"
    assert "points" not in tracks_payload(dataclasses.replace(result, points3d=None))


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

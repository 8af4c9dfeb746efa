"""Tests for the command line interface (run in-process via main)."""

import json
import shutil
import warnings

import numpy as np
import pytest

from linemap import cli
from linemap.cli import main
from linemap.io import MAX_MAGNITUDE, read_tracks_json


@pytest.fixture(scope="module")
def box_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("box")
    assert main(["synth", "--output", str(root), "--views", "6", "--seed", "0"]) == 0
    return root


@pytest.fixture(scope="module")
def mapped(box_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    assert main(["map", "--input", str(box_dataset), "--output", str(out)]) == 0
    return out


def test_synth_writes_dataset_files(box_dataset):
    for name in ("cameras.json", "segments.json", "matches.json", "points.json", "gt_lines.json"):
        assert (box_dataset / name).is_file(), name
    cams = json.loads((box_dataset / "cameras.json").read_text())
    assert sorted(cams) == [str(i) for i in range(6)]
    assert np.array(cams["0"]["K"]).shape == (3, 3)


def test_map_writes_tracks_and_ply(mapped, capsys):
    payload = read_tracks_json(mapped / "tracks.json")
    assert len(payload["tracks"]) == 40
    assert payload["stats"]["images"] == 6
    assert (mapped / "lines.ply").read_text().startswith("ply\n")


def test_map_is_deterministic_across_runs(box_dataset, mapped, tmp_path):
    out = tmp_path / "again"
    assert main(["map", "--input", str(box_dataset), "--output", str(out)]) == 0
    assert (out / "tracks.json").read_bytes() == (mapped / "tracks.json").read_bytes()


def test_eval_round_trip(box_dataset, mapped, capsys):
    code = main(
        [
            "eval",
            "--tracks",
            str(mapped / "tracks.json"),
            "--gt",
            str(box_dataset / "gt_lines.json"),
            "--taus",
            "0.0346",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "segments: gt=40 pred=40" in text
    row = next(line for line in text.splitlines() if line.startswith("tau=0.0346"))
    recall = float(row.split("recall=")[1].split()[0])
    inliers = float(row.split("inliers=")[1].rstrip("%"))
    # six views see slightly less of each segment than the default eight
    assert recall >= 0.99
    assert inliers == 100.0
    assert "supports:" in text


def test_eval_max_aggregate(box_dataset, mapped, capsys):
    code = main(
        [
            "eval",
            "--tracks",
            str(mapped / "tracks.json"),
            "--gt",
            str(box_dataset / "gt_lines.json"),
            "--taus",
            "0.0346",
            "--aggregate",
            "max",
        ]
    )
    assert code == 0
    assert "inliers=" in capsys.readouterr().out


def test_config_overrides_change_the_run(box_dataset, tmp_path, capsys):
    out = tmp_path / "strict"
    code = main(
        [
            "map",
            "--input",
            str(box_dataset),
            "--output",
            str(out),
            "--set",
            "min_images=99",
            "--set",
            "optimize=false",
        ]
    )
    assert code == 0
    payload = read_tracks_json(out / "tracks.json")
    assert payload["tracks"] == []


def test_config_file_is_applied(box_dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_images = 99\noptimize = false\n")
    out = tmp_path / "cfg-out"
    code = main(
        ["map", "--input", str(box_dataset), "--output", str(out), "--config", str(cfg)]
    )
    assert code == 0
    assert read_tracks_json(out / "tracks.json")["tracks"] == []


def test_unknown_config_key_exits_2(box_dataset, tmp_path, capsys):
    code = main(
        [
            "map",
            "--input",
            str(box_dataset),
            "--output",
            str(tmp_path / "x"),
            "--set",
            "bogus_key=1",
        ]
    )
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_malformed_segments_exit_2_and_name_the_file(box_dataset, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("cameras.json", "matches.json"):
        (broken / name).write_bytes((box_dataset / name).read_bytes())
    (broken / "segments.json").write_text("{oops")
    code = main(["map", "--input", str(broken), "--output", str(tmp_path / "y")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(broken / "segments.json") in err


@pytest.mark.parametrize(
    "row, reason",
    [
        ([100.0, 120.0, 100.0, 120.0], "zero-length"),
        ([100.0, float("nan"), 300.0, 140.0], "non-finite"),
        ([100.0, 120.0, float("inf"), 140.0], "non-finite"),
        ([100.0, "abc", 300.0, 140.0], "must be numbers"),
        ([True, 120.0, 300.0, 140.0], "must be numbers"),
    ],
    ids=["zero_length", "nan", "inf", "non_numeric", "bool"],
)
def test_bad_segment_coordinates_exit_2_and_name_the_file(
    box_dataset, tmp_path, capsys, row, reason
):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("cameras.json", "matches.json", "points.json"):
        (broken / name).write_bytes((box_dataset / name).read_bytes())
    segments = json.loads((box_dataset / "segments.json").read_text())
    segments["0"][0] = row
    (broken / "segments.json").write_text(json.dumps(segments))
    code = main(["map", "--input", str(broken), "--output", str(tmp_path / "y")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(broken / "segments.json") in err
    assert "image 0 segment 0" in err and reason in err


def _write_edited(src, dest, key, value):
    """Copy the JSON object at ``src`` to ``dest`` with ``key`` set to ``value``."""
    doc = json.loads(src.read_text()) if src.is_file() else {}
    doc[key] = value
    dest.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "name, key, value, reason",
    [
        ("matches.json", "0", [[["x", 0]]], "'x' is not an integer"),
        ("matches.json", "0", [[[1.5, 0]]], "1.5 is not an integer"),
        ("neighbors.json", "0", ["x"], "'x' is not an integer"),
        ("neighbors.json", "0", [1.7], "1.7 is not an integer"),
        ("points.json", "observations", {"0": 5}, "expected a list of observations"),
        ("points.json", "observations", [1, 2], "observations: expected an object"),
        ("points.json", "observations", {"0": [[0, "12", 210.0]]}, "coordinates must be numbers"),
        ("points.json", "points", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], "point 0: expected [x, y, z]"),
    ],
    ids=[
        "match_string",
        "match_float",
        "neighbor_string",
        "neighbor_float",
        "observations_not_lists",
        "observations_not_object",
        "observation_pixel_string",
        "points_flat",
    ],
)
def test_bad_indices_and_observations_exit_2_and_name_the_file(
    box_dataset, tmp_path, capsys, name, key, value, reason
):
    broken = tmp_path / "broken"
    broken.mkdir()
    for src in box_dataset.glob("*.json"):
        (broken / src.name).write_bytes(src.read_bytes())
    _write_edited(box_dataset / name, broken / name, key, value)
    code = main(["map", "--input", str(broken), "--output", str(tmp_path / "y")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(broken / name) in err and reason in err


def _run_with_file(box_dataset, mapped, tmp_path, capsys, name, content: bytes):
    """Run ``map`` (dataset files) or ``eval`` (gt_lines.json, tracks.json) with
    file ``name`` replaced by ``content``; return the exit code, stderr and path."""
    broken = tmp_path / "broken"
    broken.mkdir()
    for src in [*box_dataset.glob("*.json"), mapped / "tracks.json"]:
        (broken / src.name).write_bytes(src.read_bytes())
    (broken / name).write_bytes(content)
    if name in ("gt_lines.json", "tracks.json"):
        argv = ["eval", "--tracks", str(broken / "tracks.json"), "--gt", str(broken / "gt_lines.json")]
    else:
        argv = ["map", "--input", str(broken), "--output", str(tmp_path / "y")]
    code = main(argv)
    return code, capsys.readouterr().err, broken / name


ALL_JSON = ["cameras.json", "segments.json", "matches.json", "points.json", "gt_lines.json", "tracks.json"]


@pytest.mark.parametrize("name", ALL_JSON)
def test_non_utf8_json_exits_2_and_names_the_file(box_dataset, mapped, tmp_path, capsys, name):
    raw = (box_dataset / name if name != "tracks.json" else mapped / name).read_bytes()
    code, err, path = _run_with_file(
        box_dataset, mapped, tmp_path, capsys, name, raw[:1] + b'"\xff\xfe":1,' + raw[1:]
    )
    assert code == 2
    assert str(path) in err and "utf-8" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ALL_JSON)
def test_over_deep_json_exits_2_and_names_the_file(box_dataset, mapped, tmp_path, capsys, name):
    deep = b"[" * 100_000 + b"]" * 100_000
    code, err, path = _run_with_file(box_dataset, mapped, tmp_path, capsys, name, deep)
    assert code == 2
    assert str(path) in err and "nested too deeply" in err


@pytest.mark.parametrize("name", ["cameras.json", "segments.json"])
def test_two_keys_for_one_image_exit_2_and_name_both(box_dataset, mapped, tmp_path, capsys, name):
    doc = json.loads((box_dataset / name).read_text())
    first = doc["0"] if name == "cameras.json" else [[1.0, 2.0, 3.0, 4.0]]
    content = json.dumps({"00": first, **doc}).encode()
    code, err, path = _run_with_file(box_dataset, mapped, tmp_path, capsys, name, content)
    assert code == 2
    assert str(path) in err and "keys '00' and '0' both name image 0" in err


@pytest.mark.parametrize("field", ["width", "height"])
@pytest.mark.parametrize("value", ["1e999", "640.5", '"640"', "true"])
def test_bad_image_size_exits_2_and_names_the_file(
    box_dataset, mapped, tmp_path, capsys, field, value
):
    text = (box_dataset / "cameras.json").read_text()
    old = f'"{field}":{480 if field == "height" else 640}'
    assert old in text
    edited = text.replace(old, f'"{field}":{value}', 1).encode()
    code, err, path = _run_with_file(box_dataset, mapped, tmp_path, capsys, "cameras.json", edited)
    assert code == 2
    assert str(path) in err and f"camera 0 {field}" in err and "is not an integer" in err


@pytest.mark.parametrize(
    "name, key, value, reason",
    [
        ("gt_lines.json", "segments", [[0, 0, 0, 1, 1]], "segment 0: expected [x1, y1, z1, x2"),
        ("gt_lines.json", "segments", [[0, 0, float("nan"), 1, 1, 1]], "segment 0: non-finite"),
        ("tracks.json", "tracks", [{"start": [0, 0, 0]}], 'track 0: "end" must be [x, y, z]'),
        ("gt_lines.json", "segments", [[0, 0, -1e308, 1, 1, 1]], "segment 0: coordinate magnitude"),
        (
            "tracks.json",
            "tracks",
            [{"start": [0, 0, 0], "end": [1e308, 0, 0]}],
            "track 0 end: coordinate magnitude",
        ),
    ],
    ids=["gt_five_numbers", "gt_nan", "track_without_end", "gt_extreme", "track_extreme"],
)
def test_eval_bad_input_exits_2_and_names_the_file(
    box_dataset, mapped, tmp_path, capsys, name, key, value, reason
):
    files = {"gt_lines.json": box_dataset / "gt_lines.json", "tracks.json": mapped / "tracks.json"}
    _write_edited(files[name], tmp_path / name, key, value)
    files[name] = tmp_path / name
    code = main(
        ["eval", "--tracks", str(files["tracks.json"]), "--gt", str(files["gt_lines.json"])]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(files[name]) in err and reason in err


@pytest.fixture(scope="module")
def two_view_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_view")
    assert main(["synth", "--output", str(root), "--views", "2"]) == 0
    return root


# file, where the entry is named in the error, and how to set its first number
EXTREME_ENTRIES = {
    "segment_coordinate": (
        "segments.json", "image 0 segment 0", lambda doc, v: doc["0"][0].__setitem__(0, v)
    ),
    "camera_t": ("cameras.json", "camera 0", lambda doc, v: doc["0"]["t"].__setitem__(0, v)),
    "point": ("points.json", "point 0", lambda doc, v: doc["points"][0].__setitem__(0, v)),
    "observation_pixel": (
        "points.json",
        "image 0 observation 0",
        lambda doc, v: doc["observations"]["0"][0].__setitem__(1, v),
    ),
}


@pytest.mark.parametrize("value", [1e308, -1e308, MAX_MAGNITUDE, -MAX_MAGNITUDE])
@pytest.mark.parametrize("entry", sorted(EXTREME_ENTRIES))
def test_extreme_value_exits_2_naming_the_file_or_maps_without_a_warning(
    two_view_dataset, tmp_path, capsys, entry, value
):
    name, where, edit = EXTREME_ENTRIES[entry]
    data = tmp_path / "data"
    shutil.copytree(two_view_dataset, data)
    doc = json.loads((data / name).read_text())
    edit(doc, value)
    (data / name).write_text(json.dumps(doc))
    argv = ["map", "--input", str(data), "--output", str(tmp_path / "out"), "--set", "min_images=2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow inside the run exits 1
        code = main(argv)
    err = capsys.readouterr().err
    if abs(value) > MAX_MAGNITUDE:
        assert code == 2 and err.startswith(f"error: {data / name}: {where}: "), err
    else:
        assert code == 0, err


def test_removed_config_key_exits_2_and_lists_the_valid_keys(box_dataset, tmp_path, capsys):
    # thresholds outside PipelineConfig are code constants, not config keys
    argv = ["map", "--input", str(box_dataset), "--output", str(tmp_path / "x")]
    assert main([*argv, "--set", "iou_min=0.2"]) == 2
    err = capsys.readouterr().err
    assert "--set" in err and "unknown config key 'iou_min'" in err
    assert (
        "valid keys: accept_threshold, min_images, opt_max_iterations, optimize, remerge,"
        " tau_angle_2d, tau_angle_3d, tau_innerseg, tau_overlap, tau_perp_2d, tau_perspective,"
        " use_points, use_vps"
    ) in err


def test_bad_override_value_exits_2_and_names_the_flag(box_dataset, tmp_path, capsys):
    code = main(
        [
            "map",
            "--input",
            str(box_dataset),
            "--output",
            str(tmp_path / "x"),
            "--set",
            "min_images=two",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--set" in err and "min_images" in err
    # values that parse but leave the key's domain: a zero scale used to divide
    # by zero (exit 1), the others mapped or refined nothing with exit 0
    argv = ["map", "--input", str(box_dataset), "--output", str(tmp_path / "x")]
    for override in ("tau_angle_3d=0", "tau_angle_3d=nan", "accept_threshold=inf",
                     "opt_max_iterations=-5", "tau_overlap=2", "min_images=0"):
        assert main([*argv, "--set", override]) == 2, override
        err = capsys.readouterr().err
        assert err.startswith(f"error: --set: config key '{override.split('=')[0]}': expected ")
    assert not (tmp_path / "x").exists()


def test_out_of_domain_config_file_value_exits_2_and_names_the_file(box_dataset, tmp_path, capsys):
    path = tmp_path / "pipeline.cfg"
    path.write_text("tau_perp_2d = -5\n")
    argv = ["map", "--input", str(box_dataset), "--output", str(tmp_path / "x"), "--config"]
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: config key 'tau_perp_2d': ")


def test_bad_taus_exit_2_and_name_the_flag(box_dataset, mapped, capsys):
    code = main(
        [
            "eval",
            "--tracks",
            str(mapped / "tracks.json"),
            "--gt",
            str(box_dataset / "gt_lines.json"),
            "--taus",
            "x",
        ]
    )
    assert code == 2
    assert "--taus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--tracks", "{tmp}/t.json", "--gt", "{tmp}/g.json", "--taus", "0"],
        ["eval", "--tracks", "{tmp}/t.json", "--gt", "{tmp}/g.json", "--taus", "nan"],
        ["eval", "--tracks", "{tmp}/t.json", "--gt", "{tmp}/g.json", "--taus", "-1"],
        ["eval", "--tracks", "{tmp}/t.json", "--gt", "{tmp}/g.json", "--taus", "0.01,inf"],
        ["degeneracy", "--output", "{tmp}/s.csv", "--lines", "0"],
        ["degeneracy", "--output", "{tmp}/s.csv", "--lines", "-5"],
        ["synth", "--output", "{tmp}/d", "--views", "0"],
        ["synth", "--output", "{tmp}/d", "--noise", "-1"],
        ["synth", "--output", "{tmp}/d", "--noise", "nan"],
        ["synth", "--output", "{tmp}/d", "--point-noise", "-0.5"],
        ["synth", "--output", "{tmp}/d", "--drop", "1.5"],
        ["synth", "--output", "{tmp}/d", "--drop", "-0.1"],
        ["synth", "--output", "{tmp}/d", "--outliers", "2"],
        ["synth", "--output", "{tmp}/d", "--kind", "depth", "--outliers", "nan"],
        ["synth", "--output", "{tmp}/d", "--views", "2", "--seed", "-1"],
        ["synth", "--output", "{tmp}/d", "--kind", "depth", "--views", "1", "--occlusion", "5"],
        ["synth", "--output", "{tmp}/d", "--kind", "depth", "--views", "1", "--occlusion", "-1"],
        ["degeneracy", "--output", "{tmp}/s.csv", "--lines", "2", "--seed", "-3"],
        ["fit-depth", "--input", "{tmp}/in", "--output", "{tmp}/f.json", "--seed", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_numeric_flag_outside_its_domain_exits_2_and_names_it(tmp_path, capsys, argv):
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())  # rejected before anything is written


def test_value_error_inside_the_pipeline_exits_1(box_dataset, tmp_path, monkeypatch, capsys):
    def failing(data, config):
        raise ValueError("numerics failed")

    monkeypatch.setattr(cli, "run_pipeline", failing)
    code = main(["map", "--input", str(box_dataset), "--output", str(tmp_path / "x")])
    assert code == 1
    assert "numerics failed" in capsys.readouterr().err


def test_truncated_depth_file_exits_2_and_names_the_file(tmp_path, capsys):
    data = tmp_path / "depthset"
    assert main(["synth", "--output", str(data), "--kind", "depth", "--views", "2"]) == 0
    (data / "depth" / "1.bin").write_bytes(b"\x00" * 4)
    code = main(["fit-depth", "--input", str(data), "--output", str(tmp_path / "fits.json")])
    assert code == 2
    assert "1.bin" in capsys.readouterr().err


def test_missing_dataset_exits_2(tmp_path, capsys):
    code = main(["map", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "z")])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_map_without_matches_exits_2(box_dataset, tmp_path, capsys):
    partial = tmp_path / "partial"
    partial.mkdir()
    for name in ("cameras.json", "segments.json"):
        (partial / name).write_bytes((box_dataset / name).read_bytes())
    code = main(["map", "--input", str(partial), "--output", str(tmp_path / "w")])
    assert code == 2
    assert "matches.json" in capsys.readouterr().err


def test_degeneracy_writes_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code = main(["degeneracy", "--output", str(path), "--lines", "50"])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "angle_deg,median_endpoint,median_line"
    assert len(lines) == 91


def test_fit_depth_round_trip(tmp_path, capsys):
    data = tmp_path / "depthset"
    assert (
        main(["synth", "--output", str(data), "--kind", "depth", "--views", "4"]) == 0
    )
    assert (data / "depth" / "0.bin").is_file()
    out = tmp_path / "fits.json"
    assert main(["fit-depth", "--input", str(data), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["fits"]) + len(doc["failures"]) == 4
    assert len(doc["fits"]) >= 3
    gt = json.loads((data / "gt_lines.json").read_text())["segments"]
    for fit in doc["fits"]:
        row = gt[fit["image"]]
        gt_dir = np.array(row[3:]) - np.array(row[:3])
        fit_dir = np.array(fit["end"]) - np.array(fit["start"])
        cos = abs(gt_dir @ fit_dir) / (np.linalg.norm(gt_dir) * np.linalg.norm(fit_dir))
        assert cos > 0.999

"""Tests for the command line interface (run in-process via main)."""

import json

import numpy as np
import pytest

from linemap import cli
from linemap.cli import main
from linemap.io import read_tracks_json


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
    ],
    ids=["zero_length", "nan", "inf", "non_numeric"],
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
    ],
    ids=[
        "match_string",
        "match_float",
        "neighbor_string",
        "neighbor_float",
        "observations_not_lists",
        "observations_not_object",
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


@pytest.mark.parametrize(
    "name, key, value, reason",
    [
        ("gt_lines.json", "segments", [[0, 0, 0, 1, 1]], "segment 0: expected [x1, y1, z1, x2"),
        ("gt_lines.json", "segments", [[0, 0, float("nan"), 1, 1, 1]], "segment 0: non-finite"),
        ("tracks.json", "tracks", [{"start": [0, 0, 0]}], 'track 0: "end" must be [x, y, z]'),
    ],
    ids=["gt_five_numbers", "gt_nan", "track_without_end"],
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

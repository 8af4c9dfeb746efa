"""Tests for the flat pipeline configuration and its parsers."""

import dataclasses

import pytest

from linemap.config import PipelineConfig, parse_overrides, read_config_file


def test_defaults_are_consistent_with_subconfigs():
    cfg = PipelineConfig()
    oc = cfg.optimize_config()
    assert oc.max_iterations == cfg.opt_max_iterations
    assert oc.line_loss_scale == cfg.opt_line_loss_scale


def test_updated_coerces_strings_by_field_type():
    cfg = PipelineConfig().updated(
        {
            "n_neighbors": "5",
            "tau_perp_2d": "2.5",
            "remerge": "false",
            "optimize": "true",
            "threads": "4",
        }
    )
    assert cfg.n_neighbors == 5
    assert cfg.tau_perp_2d == 2.5
    assert cfg.remerge is False
    assert cfg.optimize is True
    assert cfg.threads == 4


def test_updated_accepts_bool_spellings():
    for raw, value in [("1", True), ("0", False), ("yes", True), ("No", False), ("TRUE", True)]:
        assert PipelineConfig().updated({"optimize": raw}).optimize is value


def test_updated_rejects_unknown_key():
    with pytest.raises(ValueError, match="no_such_key"):
        PipelineConfig().updated({"no_such_key": "1"})


def test_updated_rejects_bad_value():
    with pytest.raises(ValueError, match="threads"):
        PipelineConfig().updated({"threads": "many"})
    with pytest.raises(ValueError, match="remerge"):
        PipelineConfig().updated({"remerge": "maybe"})


def test_updated_does_not_mutate_original():
    base = PipelineConfig()
    base.updated({"min_images": "9"})
    assert base.min_images == PipelineConfig().min_images


def test_parse_overrides_key_value_pairs():
    items = parse_overrides(["min_images=2", "tau_perp_2d = 3.0"])
    assert items == {"min_images": "2", "tau_perp_2d": "3.0"}
    with pytest.raises(ValueError):
        parse_overrides(["min_images"])


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(
        "# comment line\n"
        "min_images = 2\n"
        "\n"
        "tau_perp_2d = 3.5  \n"
        "optimize = false\n"
    )
    cfg = PipelineConfig().updated(read_config_file(path))
    assert cfg.min_images == 2
    assert cfg.tau_perp_2d == 3.5
    assert cfg.optimize is False


def test_from_file_matches_updated(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("seed = 3\nvp_max_models = 2\n")
    assert PipelineConfig.from_file(path) == PipelineConfig().updated(
        {"seed": "3", "vp_max_models": "2"}
    )


def test_every_field_can_roundtrip_through_strings():
    cfg = PipelineConfig()
    items = {f.name: str(getattr(cfg, f.name)) for f in dataclasses.fields(PipelineConfig)}
    assert PipelineConfig().updated(items) == cfg

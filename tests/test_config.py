"""Tests for the flat pipeline configuration and its parsers."""

import dataclasses

import pytest

from linemap.config import SCALE_KEYS, PipelineConfig, parse_overrides, read_config_file

# one value per key and side of its domain; every scale must be finite and > 0
OUT_OF_DOMAIN = [
    *((key, raw) for key in SCALE_KEYS for raw in ("0", "-1", "nan", "inf")),
    ("tau_overlap", "-0.1"),
    ("tau_overlap", "1.5"),
    ("tau_overlap", "nan"),
    ("accept_threshold", "-1"),
    ("accept_threshold", "inf"),
    ("accept_threshold", "nan"),
    ("min_images", "0"),
    ("opt_max_iterations", "-5"),
]


def test_updated_coerces_strings_by_field_type():
    cfg = PipelineConfig().updated(
        {
            "opt_max_iterations": "5",
            "tau_perp_2d": "2.5",
            "remerge": "false",
            "optimize": "true",
            "min_images": "3",
        }
    )
    assert cfg.opt_max_iterations == 5
    assert cfg.tau_perp_2d == 2.5
    assert cfg.remerge is False
    assert cfg.optimize is True
    assert cfg.min_images == 3


def test_updated_accepts_bool_spellings():
    for raw, value in [("1", True), ("0", False), ("yes", True), ("No", False), ("TRUE", True)]:
        assert PipelineConfig().updated({"optimize": raw}).optimize is value


def test_updated_rejects_unknown_key():
    with pytest.raises(ValueError, match="no_such_key"):
        PipelineConfig().updated({"no_such_key": "1"})


def test_updated_rejects_bad_value():
    with pytest.raises(ValueError, match="min_images"):
        PipelineConfig().updated({"min_images": "many"})
    with pytest.raises(ValueError, match="remerge"):
        PipelineConfig().updated({"remerge": "maybe"})
    # parsed, but outside the key's domain
    for key, raw in OUT_OF_DOMAIN:
        with pytest.raises(ValueError, match=f"config key '{key}': expected "):
            PipelineConfig().updated({key: raw})


def test_domain_edges_are_accepted():
    cfg = PipelineConfig().updated(
        {"tau_overlap": "0", "accept_threshold": "0", "min_images": "1", "opt_max_iterations": "0"}
    )
    assert PipelineConfig().updated({"tau_overlap": "1"}).tau_overlap == 1.0
    assert (cfg.tau_overlap, cfg.accept_threshold, cfg.min_images) == (0.0, 0.0, 1)


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


def test_every_field_can_roundtrip_through_strings():
    cfg = PipelineConfig()
    items = {f.name: str(getattr(cfg, f.name)) for f in dataclasses.fields(PipelineConfig)}
    assert PipelineConfig().updated(items) == cfg

"""Pipeline configuration: one flat dataclass, file and CLI overrides.

:class:`PipelineConfig` is the only pipeline configuration; scoring and
track building read it directly, and :meth:`PipelineConfig.optimize_config`
maps the ``opt_*`` keys onto the standalone solver's ``OptimizeConfig``.

Config files are plain ``key = value`` lines; ``#`` starts a comment.
Values are coerced to the declared field type; unknown keys are rejected
with the list of valid ones so typos fail loudly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .optimize import OptimizeConfig

__all__ = ["PipelineConfig", "parse_overrides"]


@dataclass
class PipelineConfig:
    # neighbor selection and match filtering
    n_neighbors: int = 20
    top_k_matches: int = 10
    iou_min: float = 0.1
    # triangulation
    min_tri_angle_deg: float = 1.0
    # proposal scoring
    tau_angle_3d: float = 10.0
    tau_angle_2d: float = 8.0
    tau_perp_2d: float = 5.0
    tau_overlap: float = 0.05
    tau_perspective: float = 0.015
    tau_innerseg: float = 5.0  # pixel-equivalent after the depth/focal rescale
    score_gate: float = 0.5
    accept_threshold: float = 1.0
    # track building
    edge_score_min: float = 0.5
    min_supports: int = 3
    min_images: int = 4
    remerge: bool = True
    remerge_score_min: float = 0.75
    # structural cues
    use_points: bool = True
    use_vps: bool = True
    point_assoc_px: float = 2.0
    soft_min_weight: int = 3
    vp_inlier_px: float = 1.0
    vp_min_support: int = 5
    vp_max_models: int = 8
    vp_track_min_shared: int = 3
    vp_track_max_angle_deg: float = 10.0
    # joint refinement
    optimize: bool = True
    opt_max_iterations: int = 30
    opt_line_loss_scale: float = OptimizeConfig.line_loss_scale
    opt_assoc_loss_scale: float = OptimizeConfig.assoc_loss_scale
    opt_angle_weight: float = OptimizeConfig.angle_weight_alpha
    ortho_angle_deg: float = 87.0
    # 3D association extraction
    assoc3d_max_ratio: float = 2.0
    assoc3d_max_angle_deg: float = 5.0
    # vanishing point RANSAC
    seed: int = 0

    def optimize_config(self) -> OptimizeConfig:
        return OptimizeConfig(
            max_iterations=self.opt_max_iterations,
            line_loss_scale=self.opt_line_loss_scale,
            assoc_loss_scale=self.opt_assoc_loss_scale,
            angle_weight_alpha=self.opt_angle_weight,
        )

    def updated(self, items: dict[str, str]) -> "PipelineConfig":
        """A copy with string values coerced into the declared field types."""
        valid = {f.name: f for f in dataclasses.fields(self)}
        changes = {}
        for key, raw in items.items():
            if key not in valid:
                known = ", ".join(sorted(valid))
                raise ValueError(f"unknown config key {key!r}; valid keys: {known}")
            changes[key] = _coerce(raw, valid[key].type, key)
        return dataclasses.replace(self, **changes)


def _coerce(raw: str, typ, key: str):
    name = typ if isinstance(typ, str) else getattr(typ, "__name__", str(typ))
    raw = raw.strip()
    if name == "bool":
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {key!r}: cannot parse {raw!r} as bool")
    try:
        if name == "int":
            return int(raw)
        if name == "float":
            return float(raw)
    except ValueError:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r} as {name}") from None
    return raw


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse ``key = value`` lines, ignoring blanks and ``#`` comments."""
    items: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = body.split("=", 1)
        items[key.strip()] = value.strip()
    return items


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    """Parse ``key=value`` strings from the command line."""
    items: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r}: expected key=value")
        key, value = pair.split("=", 1)
        items[key.strip()] = value.strip()
    return items

"""Pipeline configuration: one flat dataclass, file and CLI overrides.

:class:`PipelineConfig` is the public tuning surface: the ``tau_*``
scoring thresholds, the selection and track-size gates, the cue and
refinement switches, and refinement's iteration cap.  Every other
threshold lives once, as a constant of the module that reads it; a
function keeps a keyword default only when some call passes it.

Config files are plain ``key = value`` lines; ``#`` starts a comment.
Values are coerced to the declared field type; unknown keys are rejected
with the list of valid ones so typos fail loudly.  A value outside its
key's domain (a scale that is not finite and positive, say) is rejected
when the config is built, naming the key.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = ["PipelineConfig", "parse_overrides"]

# distance scales of the pair scores: each divides a raw distance
SCALE_KEYS = ("tau_angle_3d", "tau_angle_2d", "tau_perp_2d", "tau_perspective", "tau_innerseg")


@dataclass
class PipelineConfig:
    # proposal scoring
    tau_angle_3d: float = 10.0
    tau_angle_2d: float = 8.0
    tau_perp_2d: float = 5.0
    tau_overlap: float = 0.05
    tau_perspective: float = 0.015
    tau_innerseg: float = 5.0  # pixel-equivalent after the depth/focal rescale
    accept_threshold: float = 1.0
    # track building
    min_images: int = 4
    remerge: bool = True
    # structural cues
    use_points: bool = True
    use_vps: bool = True
    # joint refinement
    optimize: bool = True
    opt_max_iterations: int = 30

    def __post_init__(self):
        for key in SCALE_KEYS:
            self._require(key, 0 < getattr(self, key) < math.inf, "a finite number > 0")
        self._require("tau_overlap", 0 <= self.tau_overlap <= 1, "a number in [0, 1]")
        self._require(
            "accept_threshold", 0 <= self.accept_threshold < math.inf, "a finite number >= 0"
        )
        self._require("min_images", self.min_images >= 1, "an integer >= 1")
        self._require("opt_max_iterations", self.opt_max_iterations >= 0, "an integer >= 0")

    def _require(self, key: str, ok: bool, domain: str) -> None:
        if not ok:
            raise ValueError(f"config key {key!r}: expected {domain}, got {getattr(self, key)!r}")

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

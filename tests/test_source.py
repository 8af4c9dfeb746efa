"""Source hygiene of src/linemap, checked on its syntax trees.

Every config key is read by the pipeline and documented in README, every
imported name is used, and the pair scores make no BLAS call.
"""

import ast
import dataclasses
import re
from pathlib import Path

from linemap.config import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
TREES = {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "linemap").glob("*.py"))}
FIELDS = dataclasses.fields(PipelineConfig)


def test_every_config_field_is_read_outside_config():
    read = {
        node.attr
        for name, tree in TREES.items()
        if name != "config.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "config"
    }
    assert [f.name for f in FIELDS if f.name not in read] == []


def test_readme_configuration_lists_every_field_with_its_default():
    text = (ROOT / "README.md").read_text()
    start = text.index("\n## Configuration\n")
    section = text[start : text.index("\n## ", start + 1)]
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.MULTILINE))
    documented = {
        f.name: str(f.default).lower() if isinstance(f.default, bool) else str(f.default)
        for f in FIELDS
    }
    assert rows == documented


def _bound_by_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_no_imported_name_goes_unread():
    unread = []
    for name, tree in TREES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:  # names re-exported through __all__ count as read
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unread += [f"{name}: {n}" for n in _bound_by_imports(tree) if n not in used]
    assert unread == []


def test_scoring_has_no_matrix_product():
    # the pair scores sum each dot product in a fixed order (geometry.dot3);
    # numpy's `@` would hand it to the CPU's BLAS kernel
    products = [
        node.lineno
        for node in ast.walk(TREES["scoring.py"])
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert products == []

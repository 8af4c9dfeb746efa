"""Source hygiene of src/linemap, checked on its syntax trees.

Every config key is read by the pipeline and documented in README, every
field of the synthetic and refinement configs is set by some call, every
imported name is used, no object's ``__dict__`` is written, neither the
pair scores nor the two-view triangulation of a match makes a BLAS call,
the selection and track blocks keep to the numpy calls that round as
Python floats do, no random draw runs once per loop iteration, and track
building scores no pair once per loop iteration.
"""

import ast
import dataclasses
import re
from pathlib import Path

from linemap.config import PipelineConfig
from linemap.optimize import OptimizeConfig
from linemap.synthetic import ObservationConfig, SceneConfig

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


def test_every_config_field_of_the_synthetic_scenes_and_refinement_is_set_by_some_call():
    # a field that no call in the repository passes by name is a knob nobody
    # turns: its value belongs in a module constant
    configs = (SceneConfig, ObservationConfig, OptimizeConfig)
    passed = {cls.__name__: set() for cls in configs}
    for folder in ("src", "tests", "bench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if callee in passed:
                        passed[callee].update(k.arg for k in node.keywords)
    unset = [
        f"{cls.__name__}.{f.name}"
        for cls in configs
        for f in dataclasses.fields(cls)
        if f.name not in passed[cls.__name__]
    ]
    assert unset == []


def _definitions(tree):
    """Top-level functions and the methods of top-level classes, by qualified name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _writes_object_dict(node):
    """A store into ``x.__dict__`` or ``vars(x)``, by subscript or by a mutating call."""

    def is_dict(value):
        return (isinstance(value, ast.Attribute) and value.attr == "__dict__") or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) == "vars"
        )

    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return is_dict(node.value)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("__setitem__", "update", "setdefault", "pop", "popitem", "clear")
        and is_dict(node.func.value)
    )


def _scoped_nodes(tree, where="<module>"):
    """Every node below ``tree`` with the qualified name of the definition around it."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if where == "<module>" else f"{where}.{child.name}"
            yield from _scoped_nodes(child, inner)
        else:
            yield where, child
            yield from _scoped_nodes(child, where)


def test_no_object_dict_is_written():
    # work derived from an object is a cached property of its class or a
    # value its caller holds, never an entry stored into its __dict__
    writes = [
        f"{name[:-3]}.{where}:{node.lineno}"
        for name, tree in TREES.items()
        for where, node in _scoped_nodes(tree)
        if _writes_object_dict(node)
    ]
    assert writes == []


# geometry's float code for a point's depth and a 2D segment's record
GEOMETRY_FLOAT_CODE = ("CameraView.depth", "planar_floats", "Segment2D.floats")


def _matrix_products(code):
    """``where:line`` of every ``@`` in the given ``(where, tree)`` pairs."""
    return [
        f"{where}:{node.lineno}"
        for where, tree in code
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


def test_scoring_has_no_matrix_product():
    # the pair scores sum each dot product in a fixed order (geometry.dot3);
    # numpy's `@` would hand it to the CPU's BLAS kernel
    geometry = dict(_definitions(TREES["geometry.py"]))
    code = [("scoring.py", TREES["scoring.py"])]
    code += [(f"geometry.py {name}", geometry[name]) for name in GEOMETRY_FLOAT_CODE]
    assert _matrix_products(code) == []


# the per-match two-view code, and the geometry it reads
TWO_VIEW_FLOAT_CODE = {
    "geometry.py": (
        "dot3",
        "norm3",
        "matvec3",
        "cross3_floats",
        "relative_pose",
        "Segment3D.length",
        "Segment3D.floats",
    ),
    "triangulation.py": (
        "ray_plane_form",
        "check_degeneracy",
        "triangulate_algebraic",
        "_finish_segment",
        "weak_epipolar_iou",
    ),
}


def test_two_view_triangulation_has_no_matrix_product_or_numpy_call():
    # every 3-vector product of a match goes through geometry.dot3 on Python
    # floats; `@` or a numpy function would hand it to the CPU's BLAS kernel
    code = []
    for module, names in TWO_VIEW_FLOAT_CODE.items():
        defined = dict(_definitions(TREES[module]))
        code += [(f"{module} {name}", defined[name]) for name in names]
    numpy_calls = [
        f"{where}:{node.lineno}"
        for where, tree in code
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "np"
    ]
    assert _matrix_products(code) + numpy_calls == []


# the pair-score blocks: elementwise numpy that rounds as the scalar formulas do
ROW_CODE = (
    "_dot_rows",
    "_dist_rows",
    "_min",
    "_max",
    "_acute_angles",
    "_normalized_rows",
    "PlanarRows.take",
    "_project_rows",
    "_perpendicular_rows",
    "_angle_rows",
    "_segment_rows",
    "_view_rows",
    "_cross_rows",
    "_image_components",
)
SELECTION_BLOCK_CODE = ROW_CODE + ("proposal_block", "perspective_distance", "selection_pair_score")
TRACK_BLOCK_CODE = ROW_CODE + (
    "_binary_rows",
    "_overlap_rows",
    "_along_planar",
    "_mutual_overlap_planar",
    "track_block",
    "track_pair_score",
)
# numpy calls whose result can differ from the scalar code's: a BLAS or
# pairwise reduction, a transcendental function other than libm's, `x * x`
# for `x ** 2`, or a NaN rule other than Python's min and max
INEXACT_NUMPY = {
    "einsum",
    "dot",
    "inner",
    "matmul",
    "vdot",
    "linalg",
    "sum",
    "exp",
    "arccos",
    "hypot",
    "square",
    "power",
    "minimum",
    "maximum",
}


def _inexact_calls(names):
    """``@`` and inexact numpy calls in the named definitions of scoring.py."""
    defined = dict(_definitions(TREES["scoring.py"]))
    code = [(f"scoring.py {name}", defined[name]) for name in names]
    inexact = [
        f"{where}:{node.lineno} np.{node.attr}"
        for where, tree in code
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and node.attr in INEXACT_NUMPY
    ]
    return _matrix_products(code) + inexact


def test_selection_block_makes_only_exact_numpy_calls():
    assert _inexact_calls(SELECTION_BLOCK_CODE) == []


def test_track_block_makes_only_exact_numpy_calls():
    # every definition of scoring.py belongs to a block, except the one
    # scalar normalization the blocks call element by element
    assert _inexact_calls(TRACK_BLOCK_CODE) == []
    defined = {name for name, _ in _definitions(TREES["scoring.py"])}
    assert defined - set(SELECTION_BLOCK_CODE + TRACK_BLOCK_CODE) == {"normalize_distance"}


def test_no_random_draw_runs_once_per_iteration():
    # k samples of two distinct indices are one generator call
    # (geometry.distinct_index_pairs), never k calls of rng.choice
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    draws = sorted(
        {
            f"{name[:-3]}.{where}:{node.lineno}"
            for name, tree in TREES.items()
            for where, loop in _scoped_nodes(tree)
            if isinstance(loop, loops)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice"
        }
    )
    assert draws == []


def test_track_passes_score_no_pair_inside_a_loop():
    # build_tracks and remerge_tracks score all of their pairs as rows of one
    # block before they unite any, never one score call per edge or pair
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    defined = dict(_definitions(TREES["tracks.py"]))
    calls = sorted(
        {
            f"tracks.{name}:{node.lineno}"
            for name in ("build_tracks", "remerge_tracks")
            for loop in ast.walk(defined[name])
            if isinstance(loop, loops)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and "score" in getattr(node.func, "id", getattr(node.func, "attr", ""))
        }
    )
    assert calls == []

"""Source hygiene of src/linemap, checked on its syntax trees.

Every config key is read by the pipeline and documented in README, every
field of the synthetic and refinement configs and every keyword default of
a public function is set by some call, every imported name is used, no
object's ``__dict__`` is written, the pair scores make no BLAS call, the
selection, track and two-view match blocks and geometry's rows keep to the
numpy calls that round as Python floats do, the rescue, trim and graph
blocks make no BLAS call and only two LAPACK ones, joint refinement neither
scatters with ``np.add.at`` nor calls ``np.cross``, no random draw runs once per
loop iteration, track building scores no pair once per loop iteration, and
the pipeline forms, gates and triangulates no match once per loop
iteration, and neither it nor refinement rescues, fits or trims once per
loop iteration.
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


def _calls():
    """``(callee name, call)`` of every call in the repository's Python files."""
    for folder in ("src", "tests", "bench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    yield getattr(node.func, "id", getattr(node.func, "attr", None)), node


def test_every_config_field_of_the_synthetic_scenes_and_refinement_is_set_by_some_call():
    # a field that no call in the repository passes by name is a knob nobody
    # turns: its value belongs in a module constant
    configs = (SceneConfig, ObservationConfig, OptimizeConfig)
    passed = {cls.__name__: set() for cls in configs}
    for callee, node in _calls():
        if callee in passed:
            passed[callee].update(k.arg for k in node.keywords)
    unset = [
        f"{cls.__name__}.{f.name}"
        for cls in configs
        for f in dataclasses.fields(cls)
        if f.name not in passed[cls.__name__]
    ]
    assert unset == []


def _public_defaults(tree):
    """``(qualified name, parameter, position)`` of each parameter with a
    default of the public top-level functions and methods of public classes;
    the position counts the call's positional arguments (None for a
    keyword-only parameter)."""
    scopes = [("", tree.body, 0)] + [
        (f"{node.name}.", node.body, 1)  # a method's call does not pass `self`
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]
    for prefix, body, skip in scopes:
        for node in body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield f"{prefix}{node.name}", arg.arg, i - (0 if static else skip)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{prefix}{node.name}", arg.arg, None


def test_every_keyword_default_of_a_public_function_is_passed_by_some_call():
    # a default that no call overrides, by name or by position, is a knob
    # nobody turns: its value belongs in a module constant
    passed = set()
    for callee, node in _calls():
        passed.update((callee, k.arg) for k in node.keywords)
        if any(isinstance(a, ast.Starred) for a in node.args):
            passed.add((callee, "*"))
        passed.update((callee, i) for i in range(len(node.args)))
    unset = []
    for module, tree in TREES.items():
        for qualified, param, position in _public_defaults(tree):
            callee = qualified.rpartition(".")[2]
            if not {(callee, param), (callee, position), (callee, "*")} & passed:
                unset.append(f"{module[:-3]}.{qualified}({param})")
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


# geometry's elementwise rows: the 3-vector products, Python's min and max,
# and the 2D segment rows of the pair-score blocks' projections and of the
# stacked observations of VP estimation and joint refinement
GEOMETRY_ROW_CODE = (
    "dot_rows",
    "matvec_rows",
    "min_rows",
    "max_rows",
    "PlanarRows.take",
    "planar_rows",
    "stack_segments_2d",
)
# geometry's float code for a point's depth, and its rows
GEOMETRY_FLOAT_CODE = ("CameraView.depth",) + GEOMETRY_ROW_CODE


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


# the pair-score blocks: elementwise numpy that rounds as the scalar formulas do
ROW_CODE = (
    "_dist_rows",
    "_gate_limit",
    "_clipped_cosines",
    "_exact_degrees",
    "_degree_rows",
    "_Gated.take",
    "_distance_term",
    "_angle_term",
    "_gate_rows",
    "_min_similarity",
    "_project_rows",
    "_perpendicular_rows",
    "_cosine_rows",
    "_segment_rows",
    "_view_rows",
    "_cross_rows",
    "_image_components",
)
SELECTION_BLOCK_CODE = ROW_CODE + ("proposal_block", "perspective_distance", "selection_pair_score")
TRACK_BLOCK_CODE = ROW_CODE + (
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


def _numpy_calls(code, names):
    """``where:line np.name`` of every ``np.name`` in ``names`` in the given
    ``(where, tree)`` pairs."""
    return [
        f"{where}:{node.lineno} np.{node.attr}"
        for where, tree in code
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and node.attr in names
    ]


def _inexact_calls(names):
    """``@`` and inexact numpy calls in the named definitions of scoring.py
    and in geometry's row code."""
    scoring, geometry = (dict(_definitions(TREES[m])) for m in ("scoring.py", "geometry.py"))
    code = [(f"scoring.py {name}", scoring[name]) for name in names]
    code += [(f"geometry.py {name}", geometry[name]) for name in GEOMETRY_ROW_CODE]
    return _matrix_products(code) + _numpy_calls(code, INEXACT_NUMPY)


def test_selection_block_makes_only_exact_numpy_calls():
    assert _inexact_calls(SELECTION_BLOCK_CODE) == []


def test_track_block_makes_only_exact_numpy_calls():
    # every definition of scoring.py belongs to a block, except the one
    # scalar normalization the blocks call element by element
    assert _inexact_calls(TRACK_BLOCK_CODE) == []
    defined = {name for name, _ in _definitions(TREES["scoring.py"])}
    assert defined - set(SELECTION_BLOCK_CODE + TRACK_BLOCK_CODE) == {"normalize_distance"}


# the two-view front end: the neighbour ranking, the per-image pass, the
# match blocks (which also take one match as a block of one row), and the
# geometry they read
FRONT_END_CODE = {
    "geometry.py": (
        "dot3",
        "norm3",
        "matvec3",
        "cross3_floats",
        "relative_pose",
        "Segment3D.length",
        "columns",
        "dot_rows",
        "matvec_rows",
        "cross_rows",
        "min_rows",
        "max_rows",
    ),
    "pipeline.py": (
        "compute_neighbors",
        "_triangulate_image",
        "_rescue",
        "_proposals",
        "_image_proposals",
    ),
    "triangulation.py": (
        "Poses.of",
        "Poses.join",
        "Poses.take",
        "MatchRows.take",
        "MatchRows.form",
        "join_rows",
        "match_rows",
        "_one_row",
        "weak_epipolar_iou",
        "degenerate_rows",
        "_finish_rows",
        "triangulate_algebraic",
    ),
}
# the point, VP and multi-point rescue blocks, the track refit and trim, the
# graph extraction and the camera centre they read: no BLAS call either, and
# of LAPACK only the two eigen-solvers, each in its one helper
RESCUE_CODE = {
    "geometry.py": ("CameraView.camera_center", "principal_lines", "principal_line"),
    "triangulation.py": (
        "RescueRows.segment",
        "_fail",
        "_norm_rows",
        "_unit_rows",
        "triangulate_multipoint",
        "solve_constrained_quadratic",
        "_kkt_rows",
        "_linear_product",
        "_product",
        "_polynomial_roots",
        "_multiplier_rows",
        "_preference_order",
        "_constrained_rows",
        "triangulate_line_point",
        "triangulate_line_vp",
    ),
    "tracks.py": ("fit_segment_to_endpoints",),
    "optimize.py": (
        "segment_on_line_from_supports",
        "extract_point_line_edges",
        "extract_line_vp_edges",
    ),
}
LAPACK_HELPERS = {"principal_lines": {"eigh"}, "_polynomial_roots": {"eigvals"}}


def _code(blocks):
    code = []
    for module, names in blocks.items():
        defined = dict(_definitions(TREES[module]))
        code += [(f"{module} {name}", defined[name]) for name in names]
    return code


def test_front_end_blocks_make_only_exact_numpy_calls():
    # every row of a match block equals the float oracle bit for bit: no `@`,
    # no inexact numpy call, and the plane angle's asin and degrees through
    # math element by element, never np.arcsin or np.degrees
    code = _code(FRONT_END_CODE)
    inexact = INEXACT_NUMPY | {"arcsin", "degrees", "rad2deg"}
    assert _matrix_products(code) + _numpy_calls(code, inexact) == []
    # every definition of triangulation.py is front-end block code or rescue
    defined = {name for name, _ in _definitions(TREES["triangulation.py"])}
    assert defined - set(FRONT_END_CODE["triangulation.py"]) == set(RESCUE_CODE["triangulation.py"])


def _linalg_calls(tree):
    """The ``X`` of every ``np.linalg.X`` below ``tree``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "np"
    }


def test_rescue_trim_and_graph_blocks_make_only_exact_numpy_calls():
    # the rescue, multi-point, refit, trim and graph code sums every product
    # term by term (geometry's row helpers): no `@`, no BLAS or pairwise
    # reduction, no np.cross, np.roots or numpy.polynomial; LAPACK's eigvals
    # (the multiplier polynomial's companion matrices) and eigh (the stacked
    # PCA) run in their one helper each
    code = _code(RESCUE_CODE)
    inexact = (INEXACT_NUMPY - {"linalg"}) | {"cross", "roots", "polynomial", "arcsin", "degrees"}
    assert _matrix_products(code) + _numpy_calls(code, inexact) == []
    lapack = {where.split()[-1]: _linalg_calls(tree) for where, tree in code}
    assert {name: calls for name, calls in lapack.items() if calls} == LAPACK_HELPERS
    imports = [
        node.module
        for node in ast.walk(TREES["triangulation.py"])
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
    ]
    assert imports == []


def test_refinement_neither_scatters_with_add_at_nor_calls_np_cross():
    # joint refinement sums each matrix of its normal equations, and the
    # Schur update, with one np.bincount in a layout fixed per problem, and
    # takes every cross product through geometry.cross_rows
    def numpy_attribute(node, *names):
        for name in reversed(names):
            if not (isinstance(node, ast.Attribute) and node.attr == name):
                return False
            node = node.value
        return isinstance(node, ast.Name) and node.id == "np"

    found = [
        f"optimize.{where}:{node.lineno}"
        for where, node in _scoped_nodes(TREES["optimize.py"])
        if numpy_attribute(node, "add", "at") or numpy_attribute(node, "cross")
    ]
    assert found == []


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_no_match_is_formed_gated_or_triangulated_inside_a_loop():
    # the pipeline forms, gates and triangulates the matches of one reference
    # image as rows of one block, never one call per match or per detection
    front_end = {name for name in FRONT_END_CODE["triangulation.py"] if "." not in name}
    calls = sorted(
        {
            f"pipeline.{where}:{node.lineno}"
            for where, loop in _scoped_nodes(TREES["pipeline.py"])
            if isinstance(loop, LOOPS)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")) in front_end
        }
    )
    assert calls == []


def test_no_rescue_or_trim_runs_inside_a_loop():
    # the rescue blocks run once per image and the trim once per run: no loop
    # of pipeline.py or optimize.py calls them, or even names them
    blocks = {
        "triangulate_line_point",
        "triangulate_line_vp",
        "triangulate_multipoint",
        "segment_on_line_from_supports",
    }
    found = sorted(
        {
            f"{module[:-3]}.{where}:{node.lineno}"
            for module in ("pipeline.py", "optimize.py")
            for where, loop in _scoped_nodes(TREES[module])
            if isinstance(loop, LOOPS)
            for node in ast.walk(loop)
            if isinstance(node, ast.Name) and node.id in blocks
        }
    )
    assert found == []


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

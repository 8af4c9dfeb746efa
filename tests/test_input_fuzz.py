"""Fuzz test of the dataset input contract.

``linemap map`` runs on a small synthetic dataset after random mutations of
its files: raw bytes, JSON values, numbers set to ±1e308, and the deletion
or duplication of rows and keys.  Whatever the mutation, the run exits 0 or
2, an exit of 2 names a file inside the dataset, no traceback escapes, and
no ``RuntimeWarning`` (an overflow or an invalid value inside the run) is
printed.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linemap.cli import main

FILES = ("cameras.json", "segments.json", "matches.json", "points.json")

EXTREME = st.sampled_from([1e308, -1e308])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | EXTREME | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
NEW_KEYS = st.sampled_from(["0", "1", "2", "-1", "x", "K", "t", "width", "points", "observations"])


def _run(argv):
    """Exit code and stderr of ``main(argv)``, with every warning the run raises
    written to stderr, as a separate process prints it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    shown = (warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, err.getvalue() + "".join(shown)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    argv = ["synth", "--output", str(root), "--views", "2", "--noise", "1", "--outliers", "0.2"]
    assert _run(argv)[0] == 0
    return {name: (root / name).read_bytes() for name in FILES}


def _paths(node, prefix=()):
    """Every (path, node) from the document root down, root first."""
    yield prefix, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


def _mutate_json(data, doc, extreme=False):
    """Replace, delete or duplicate a node of ``doc``; with ``extreme``, set a
    number to ±1e308, far beyond any scene's scale."""
    kind = "extreme" if extreme else data.draw(
        st.sampled_from(["replace", "delete", "duplicate"])
    )
    paths = list(_paths(doc))
    if extreme:
        paths = [(p, v) for p, v in paths if type(v) in (int, float)] or paths
    path = data.draw(st.sampled_from([p for p, _ in paths]))
    if not path:
        return data.draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "replace":
        parent[key] = data.draw(JSON_VALUES)
    elif kind == "extreme":
        parent[key] = data.draw(EXTREME)
    elif kind == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[data.draw(NEW_KEYS)] = copy.deepcopy(parent[key])
    return doc


def _mutate_bytes(data, raw: bytes) -> bytes:
    start = data.draw(st.integers(0, len(raw)))
    stop = data.draw(st.integers(start, min(len(raw), start + 8)))
    return raw[:start] + data.draw(st.binary(max_size=4)) + raw[stop:]


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_map_on_a_mutated_dataset_exits_0_or_2_and_names_a_file(dataset, data):
    files = dict(dataset)
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(FILES))
        kind = data.draw(st.sampled_from(["bytes", "json", "extreme", "remove file"]))
        if name not in files:
            continue
        if kind == "remove file":
            del files[name]
        elif kind == "bytes":
            files[name] = _mutate_bytes(data, files[name])
        else:
            try:
                doc = json.loads(files[name])
            except ValueError:  # an earlier byte mutation broke it
                continue
            files[name] = json.dumps(_mutate_json(data, doc, kind == "extreme")).encode()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        root.mkdir()
        for name, raw in files.items():
            (root / name).write_bytes(raw)
        out = Path(tmp) / "out"
        code, err = _run(["map", "--input", str(root), "--output", str(out), "--set", "min_images=2"])
    assert code in (0, 2), err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err, err
    if code == 2:
        assert any(err.startswith(f"error: {root / name}: ") for name in FILES), err

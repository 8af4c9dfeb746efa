"""Spans around calls into linemap's public functions, installed from outside.

A :class:`Tracer` replaces each named function, wherever a ``linemap``
module has bound it (the defining module and every ``from .x import f``
copy), with a wrapper that times the call and records its parent span.
Spans are folded into per-name totals as they close: calls, total time,
time covered by traced children, and calls per (parent, child) pair.  A
name that no longer exists is listed in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in a traced run, by layer.
TARGETS = [
    ("io", "load_dataset"),
    ("io", "write_tracks_json"),
    ("io", "write_ply"),
    ("synthetic", "build_scene"),
    ("synthetic", "observe_scene"),
    ("pipeline", "run_pipeline"),
    ("association", "estimate_vps"),
    ("association", "associate_points_to_segments"),
    ("association", "vp_direction_world"),
    ("association", "build_vp_tracks"),
    ("triangulation", "weak_epipolar_iou"),
    ("triangulation", "triangulate_algebraic"),
    ("triangulation", "triangulate_line_point"),
    ("triangulation", "triangulate_line_vp"),
    ("triangulation", "triangulate_multipoint"),
    ("scoring", "selection_pair_score"),
    ("scoring", "track_pair_score"),
    ("tracks", "build_tracks"),
    ("tracks", "remerge_tracks"),
    ("optimize", "optimize"),
    ("optimize", "segment_on_line_from_supports"),
    ("optimize", "extract_point_line_edges"),
    ("optimize", "extract_line_vp_edges"),
]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.child: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.raised: Counter = Counter()  # (name, exception class) -> calls
        self.results: defaultdict = defaultdict(list)  # name -> [(args, result)]
        self.absent: list[str] = []
        self._keep = set()
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def keep_results(self, *names: str) -> None:
        """Also record ``(args, result)`` of every call to these names."""
        self._keep.update(names)

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def _wrap(self, name: str, fn):
        stack = self._stack
        keep = name in self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[(name, type(exc))] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.child[name] += frame[1]
                self.edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += dt
            if keep:
                self.results[name].append((args, result))
            return result

        return traced

    def install(self) -> None:
        found = {}
        for mod_name, attr in TARGETS:
            try:
                orig = getattr(importlib.import_module(f"linemap.{mod_name}"), attr, None)
            except ModuleNotFoundError:
                orig = None
            if callable(orig):
                found[f"{mod_name}.{attr}"] = orig
        self.absent = [f"{m}.{a}" for m, a in TARGETS if f"{m}.{a}" not in found]
        importlib.import_module("linemap.cli")  # binds names from every module it drives
        modules = [m for k, m in sys.modules.items() if k == "linemap" or k.startswith("linemap.")]
        for name, orig in found.items():
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._restore):
            setattr(m, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def table(self) -> list[dict]:
        """Per-name totals with calls by caller, for the result file."""
        return [
            {
                "name": name,
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_s(name),
                "callers": {str(p): c for (p, n), c in sorted(self.edges.items(), key=str) if n == name},
            }
            for name in sorted(self.calls)
        ]

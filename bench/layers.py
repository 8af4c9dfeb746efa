"""Per-layer metrics of a traced run, from the spans in ``spans.Tracer``.

Times are per traced operation (totals divided by the number of traced
operations) except the ``synthetic.*`` set-up times, which cover the one
traced set-up.  ``*_s`` are seconds, ``*_us`` microseconds per call and
``*_calls`` exact counts.  A layer the workload never calls reads 0; a
wrapped name that no longer exists is counted in ``trace.absent`` and
listed under ``absent`` in the result file.
"""

from __future__ import annotations

import os
import statistics


def per_layer(tracer, traced_ops, untraced_ops) -> dict:
    n = max(1, len(traced_ops))
    total = lambda name: tracer.total[name] / n  # noqa: E731
    calls = lambda name: tracer.calls[name] / n  # noqa: E731
    self_s = lambda name: tracer.self_s(name) / n  # noqa: E731

    def per_call_us(name):
        c = tracer.calls[name]
        return 1e6 * tracer.total[name] / c if c else 0.0

    out: dict[str, tuple[float, str]] = {}

    def put(key, value, unit):
        out[key] = (float(value), unit)

    put("scoring.selection_pair_s", total("scoring.selection_pair_score"), "s")
    put("scoring.selection_pair_calls", calls("scoring.selection_pair_score"), "count")
    put("scoring.selection_pair_us", per_call_us("scoring.selection_pair_score"), "us")
    put("pipeline.self_s", self_s("pipeline.run_pipeline"), "s")

    stats = [res.stats for _, res in tracer.results["pipeline.run_pipeline"]]
    accepted = sum(s.get("accepted", 0) for s in stats) / n
    proposals = sum(s.get("proposals", 0) for s in stats) / n
    detections = sum(s.get("detections", 0) for s in stats) / n
    put("pipeline.accepted", accepted, "count")
    put("pipeline.proposals", proposals, "count")
    put("pipeline.accept_ratio", accepted / detections if detections else 0.0, "fraction")

    put("triangulation.iou_s", total("triangulation.weak_epipolar_iou"), "s")
    put("triangulation.iou_calls", calls("triangulation.weak_epipolar_iou"), "count")
    put("triangulation.algebraic_s", total("triangulation.triangulate_algebraic"), "s")
    put("triangulation.algebraic_calls", calls("triangulation.triangulate_algebraic"), "count")
    put("triangulation.algebraic_us", per_call_us("triangulation.triangulate_algebraic"), "us")
    degenerate = _degenerate_class()
    put(
        "triangulation.degenerate",
        sum(
            c
            for (name, cls), c in tracer.raised.items()
            if name == "triangulation.triangulate_algebraic" and degenerate and issubclass(cls, degenerate)
        )
        / n,
        "count",
    )
    put("triangulation.rescue_point_calls", calls("triangulation.triangulate_line_point"), "count")
    put("triangulation.rescue_vp_calls", calls("triangulation.triangulate_line_vp"), "count")
    put("triangulation.multipoint_calls", calls("triangulation.triangulate_multipoint"), "count")

    put("scoring.track_pair_s", total("scoring.track_pair_score"), "s")
    put("scoring.track_pair_calls", calls("scoring.track_pair_score"), "count")
    put("scoring.track_pair_us", per_call_us("scoring.track_pair_score"), "us")
    put("tracks.build_self_s", self_s("tracks.build_tracks"), "s")
    put("tracks.remerge_self_s", self_s("tracks.remerge_tracks"), "s")
    put("tracks.remerge_pairs", tracer.edges[("tracks.remerge_tracks", "scoring.track_pair_score")] / n, "count")

    put("association.vps_s", total("association.estimate_vps"), "s")
    put("association.vps_calls", calls("association.estimate_vps"), "count")
    put("association.points_s", total("association.associate_points_to_segments"), "s")
    put(
        "association.vp_tracks_s",
        total("association.build_vp_tracks") + total("association.vp_direction_world"),
        "s",
    )

    runs = tracer.results["optimize.optimize"]
    iterations = sum(res.iterations for _, res in runs) / n
    put("optimize.s", total("optimize.optimize"), "s")
    put("optimize.iterations", iterations, "count")
    put("optimize.s_per_iteration", total("optimize.optimize") / iterations if iterations else 0.0, "s")
    put("optimize.dof", sum(args[0].dof() for args, _ in runs) / n, "count")
    put("optimize.line_obs", sum(len(args[0].line_obs) for args, _ in runs) / n, "count")
    put("optimize.trim_s", total("optimize.segment_on_line_from_supports"), "s")
    put(
        "optimize.graph_s",
        total("optimize.extract_point_line_edges") + total("optimize.extract_line_vp_edges"),
        "s",
    )

    put("io.load_s", total("io.load_dataset"), "s")
    put("io.write_s", total("io.write_tracks_json") + total("io.write_ply"), "s")
    written = [args[0] for args, _ in tracer.results["io.write_tracks_json"]]
    put("io.tracks_json_bytes", os.path.getsize(written[-1]) if written else 0, "B")

    put("synthetic.scene_s", tracer.total["synthetic.build_scene"], "s")
    put("synthetic.observe_s", tracer.total["synthetic.observe_scene"], "s")

    traced = statistics.median(op["wall_s"] for op in traced_ops) if traced_ops else 0.0
    plain = statistics.median(op["wall_s"] for op in untraced_ops) if untraced_ops else 0.0
    put("trace.wall_s", traced, "s")
    put("trace.untraced_wall_s", plain, "s")
    put("trace.overhead_pct", 100.0 * (traced / plain - 1.0) if plain else 0.0, "%")
    put("trace.absent", len(tracer.absent), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _degenerate_class():
    from linemap import triangulation

    return getattr(triangulation, "DegenerateTriangulationError", None)

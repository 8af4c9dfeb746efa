"""Benchmark for linemap: three workloads, output checks, a traced mode.

Run from the root of a source checkout (linemap is imported from
``src/``; nothing is installed):

    python3 bench/run.py --workload map_box16 --seed 1 --seconds 50 --trace 0

A run is a loop of rounds.  Each round sets the workload's inputs up from
``--seed`` and runs the operation on them; rounds go on while the fastest
round so far still ends within ``--seconds`` (at least two rounds with
``--trace 0``, one with ``--trace 1``).  Every operation's output is
checked against ground truth; an operation fails if it raises or breaks a
check.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
opens with an untraced warm-up operation; each of its rounds is then one
untraced and one traced operation on the same input, so the run also
reports the cost of tracing, and the outputs must agree byte for byte.
The full record goes to ``bench/results/``.

``--corrupt shift`` (mapping workloads) moves every output track by twice
the recall radius and ``--corrupt initial`` (refine_ba) scores the initial
lines in place of the refined ones; both must make the checks fail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread, set before numpy loads.  OpenBLAS's worker threads spin
# while they wait; on a 2-vCPU host they doubled the CPU time of a 300x300
# SVD without making it faster, and left the timing to the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _attempt(w, inputs, ref, work, corrupt, tracer=None):
    """One operation: (seconds, quality metrics, digest, failures)."""
    try:
        t0 = time.perf_counter()
        if tracer is None:
            out = w.operate(inputs, work)
        else:
            with tracer:
                out = w.operate(inputs, work)
        dt = time.perf_counter() - t0
        quality, digest, failures = w.check(ref, out, corrupt)
    except Exception as exc:  # an operation that raises counts as failed
        return None, {}, None, [f"{type(exc).__name__}: {exc}"]
    return dt, quality, digest, failures


def run(args) -> dict:
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload]
    work = HERE / "work" / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.keep_results("pipeline.run_pipeline", "optimize.optimize", "io.write_tracks_json")
    try:
        # A traced run opens with an untraced warm-up operation: the first
        # operation in a process is slower (first BLAS call, cold caches),
        # which would otherwise read as negative tracing overhead.
        kinds = ["warmup", "plain", "traced"] if tracer else ["plain"]
        setup_s = []  # one per round
        ops = []  # one dict per attempted operation
        ref = None
        fastest_round = math.inf
        min_rounds = 1 if tracer else 2
        start = time.perf_counter()
        while True:
            # One round: set the inputs up again (timed as setup_s, traced
            # only in the first round of a traced run), then the operations.
            # Set-ups spread over the run see the same host as the operations.
            t0 = time.perf_counter()
            if tracer is None or ref is not None:
                inputs = w.setup(args.seed, work)
            else:
                with tracer:
                    inputs = w.setup(args.seed, work)
            setup_s.append(time.perf_counter() - t0)
            if ref is None:
                ref = w.reference(inputs)
            r0 = time.perf_counter()
            for kind in kinds:
                traced = tracer if kind == "traced" else None
                dt, quality, digest, failures = _attempt(w, inputs, ref, work, args.corrupt, traced)
                if digest is not None and ops and digest != ops[0]["digest"]:
                    failures.append("output differs from the run's first output on the same input")
                ops.append({"kind": kind, "wall_s": dt, "digest": digest, "failures": failures, **quality})
                for f in failures:
                    _log(f"{w.name} seed {args.seed} op {len(ops)}: FAIL {f}")
            kinds = [k for k in kinds if k != "warmup"]
            now = time.perf_counter()
            fastest_round = min(fastest_round, setup_s[-1] + now - r0)
            # An untraced run makes at least two rounds, so wall_s never rests
            # on one cold operation; after that, start another round only if
            # the fastest one so far still ends within --seconds, so that a
            # 30 s operation cannot stretch a run by a whole round.
            if len(setup_s) >= min_rounds and now - start + fastest_round > args.seconds:
                break

        def of(kind):
            return [op for op in ops if op["kind"] == kind]

        if tracer is None:
            metrics = end_to_end(of("plain"), setup_s)
        else:
            import layers

            metrics = layers.per_layer(tracer, of("traced"), of("plain"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if op["failures"])
    return {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "ops": ops,
        "setup_s": setup_s,
        "absent": tracer.absent if tracer else [],
        "spans": tracer.table() if tracer else [],
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
        },
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setup_s) -> dict:
    ok = [op for op in ops if not op["failures"]]
    return {
        "wall_s": {"value": _median([op["wall_s"] for op in ok]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "reproj_px": {"value": _median([op.get("reproj_px") for op in ok]), "unit": "px"},
        "recall": {"value": _median([op.get("recall") for op in ok]), "unit": "fraction"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("map_box16", "map_lines_only", "refine_ba"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("shift", "initial"),
                        help="damage each output before checking it (checker self-test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "linemap" / "__init__.py").is_file():
        _log(f"error: no linemap sources under {src}; run from the root of a linemap checkout")
        return 2
    sys.path.insert(0, str(src))

    record = run(args)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

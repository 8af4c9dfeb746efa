"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads map_box16 refine_ba --seeds 1-10

Runs ``bench/run.py`` once per workload and seed, one after another, and
prints for each metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread, (Q3 - Q1) / median, beside the metric's bound
from ``BENCHMARK.json``.  The per-run JSON lines go to ``bench/spread/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = HERE / "spread"
    out_dir.mkdir(exist_ok=True)
    status = 0
    for name in args.workloads:
        rows = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            row = json.loads(lines[-1])
            rows.append(row)
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f}s "
                  f"attempted={row['attempted']} failed={row['failed']}", file=sys.stderr)
        (out_dir / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        if len(rows) < 2:
            continue
        for metric in rows[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"{name:15s} {metric:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bounds.get(metric)}")
        failed = sum(r["failed"] for r in rows)
        attempted = sum(r["attempted"] for r in rows)
        print(f"{name:15s} failed/attempted={failed}/{attempted}")
    return status


if __name__ == "__main__":
    sys.exit(main())

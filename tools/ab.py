"""Paired A/B timing of ``linemap map``, or of joint refinement alone: the
working tree against another commit.

Run from the repository root:

    python3 tools/ab.py REF [--pairs N] [--seed S] [--views V] [--set KEY=VALUE ...]
    python3 tools/ab.py REF --refine [--pairs N] [--seed S]

``src/linemap`` at ``REF`` is extracted with ``git archive`` and imported under
the package name ``linemap_ref`` (every import inside the package is
relative), next to the working tree's ``src/linemap``, in one process with
BLAS pinned to one thread.  One dataset is written with ``linemap synth
--views V --noise 1.0 --outliers 0.2 --seed S``, V 16 by default; a wider
ring, such as 48 views, gives each detection more matches, so the per-match
front end weighs more in the time.  After one untimed run of each copy, the
two copies' ``cli.main(["map", ...])`` alternate for N pairs, the reference
first in even pairs and the working tree first in odd ones.
Each ``--set KEY=VALUE`` (repeatable) is passed to both copies' ``map``, so
``--set optimize=false`` times the stages before joint refinement alone.

With ``--refine`` the operation is ``optimize`` on the benchmark's
``refine_ba`` problem (``bench/workloads.py``'s ``RefineBA``, seed S, built
once by the working tree), and the two copies' results (every line's
parameters, the points, the VP directions, the final cost, the iteration
count and the termination) are compared bit for bit instead of
``tracks.json``.  ``--views`` and ``--set`` apply to ``map`` only.

Prints each side's median and quartiles, the pairs the working tree won and
the median of the paired ratios (working tree / reference).  Every pair's
output bytes are compared.  When they differ (a change that moves the
output on purpose), every pair is still timed: the first differing pair
and both sides' sha256 prefixes are printed, then the summary, and the exit
status is 1.  Exits 1 as well when a run fails, and 2 when ``REF`` cannot be
read.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _extract(ref: str, dest: Path) -> bool:
    """``src/linemap`` at ``ref``, written as the package ``dest/linemap_ref``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src/linemap"],
        capture_output=True,
        check=False,
    )
    if archive.returncode != 0:
        print(f"error: {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = dest / "linemap_ref" / Path(member.name).relative_to("src/linemap")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())
    return True


def _run(cli, argv) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        status = cli.main(argv)
        elapsed = time.perf_counter() - start
    if status != 0:
        raise SystemExit(f"error: {cli.__name__} {argv[0]} exited {status}")
    return elapsed


def _summary(name: str, times: list[float]) -> str:
    if len(times) < 2:
        return f"{name}: {times[0]:.3f} s"
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"{name}: median {median:.3f} s, quartiles {q1:.3f} / {q3:.3f} s"


def _map_operation(args, sides, tmp: Path):
    """Write the synth dataset; return ``run(name) -> (seconds, tracks.json bytes)``."""
    overrides = [arg for kv in args.set for arg in ("--set", kv)]
    data = tmp / "data"
    synth = ["synth", "--output", str(data), "--views", str(args.views), "--noise", "1.0",
             "--outliers", "0.2", "--seed", str(args.seed)]
    _run(sides["new"], synth)

    def run(name):
        out = tmp / f"out_{name}"
        elapsed = _run(sides[name], ["map", "--input", str(data), "--output", str(out), *overrides])
        return elapsed, (out / "tracks.json").read_bytes()

    return run


def _refine_operation(args, sides, tmp: Path):
    """Build the refine_ba problem; return ``run(name) -> (seconds, result bytes)``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import numpy as np
    import workloads

    inputs = workloads.RefineBA().setup(args.seed, tmp)
    modules = {
        name: importlib.import_module(f"{cli.__package__}.optimize") for name, cli in sides.items()
    }

    def run(name):
        start = time.perf_counter()
        result = modules[name].optimize(inputs.problem, inputs.config)
        elapsed = time.perf_counter() - start
        arrays = [np.concatenate([par.q, par.w]) for par in result.lines]
        arrays += [np.asarray(result.points, dtype=float), np.asarray(result.vps, dtype=float)]
        ending = (result.initial_cost, result.final_cost, result.iterations, result.termination)
        return elapsed, b"".join(a.tobytes() for a in arrays) + repr(ending).encode()

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("ref", help="commit to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--views", type=int, default=16, help="views of the synth dataset")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="config override passed to both copies' map (repeatable)")
    parser.add_argument("--refine", action="store_true",
                        help="time optimize on the refine_ba problem instead of map")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.views < 2:
        parser.error("--views must be at least 2")
    if args.refine and args.set:
        parser.error("--set applies to map, not to --refine")
    output = "optimize result" if args.refine else "tracks.json"

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if not _extract(args.ref, tmp):
            return 2
        sys.path[:0] = [str(ROOT / "src"), str(tmp)]
        sides = {
            "ref": importlib.import_module("linemap_ref.cli"),
            "new": importlib.import_module("linemap.cli"),
        }
        run = (_refine_operation if args.refine else _map_operation)(args, sides, tmp)
        times = {name: [] for name in sides}
        differs = None  # the first pair whose outputs differ, with both digests
        for pair in range(-1, args.pairs):  # pair -1 is the untimed warm-up
            order = ["ref", "new"] if pair % 2 == 0 else ["new", "ref"]
            outputs = {}
            for name in order:
                elapsed, outputs[name] = run(name)
                if pair >= 0:
                    times[name].append(elapsed)
            if outputs["ref"] != outputs["new"] and differs is None:
                where = f"pair {pair + 1}" if pair >= 0 else "the warm-up"
                digests = {name: hashlib.sha256(b).hexdigest()[:16] for name, b in outputs.items()}
                differs = f"{where}: ref {digests['ref']}, new {digests['new']}"
                print(f"error: {output} differs in {differs}", file=sys.stderr, flush=True)
            if pair >= 0:
                ref, new = times["ref"][-1], times["new"][-1]
                print(f"pair {pair + 1}: ref {ref:.3f} s, new {new:.3f} s", flush=True)

    ratios = [new / ref for new, ref in zip(times["new"], times["ref"])]
    wins = sum(r < 1.0 for r in ratios)
    print(_summary(f"ref {args.ref}", times["ref"]))
    print(_summary("new (working tree)", times["new"]))
    if differs is None:
        print(f"{output} identical in all {args.pairs} pairs")
    else:
        print(f"{output} differs, first in {differs}")
    print(f"new faster in {wins} of {args.pairs} pairs; paired median ratio new/ref "
          f"{statistics.median(ratios):.3f}")
    return 0 if differs is None else 1


if __name__ == "__main__":
    sys.exit(main())

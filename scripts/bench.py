#!/usr/bin/env python3
"""Write one benchmark file: machine, LFA-only table times, kernel timings
and the per-layer counters of one traced table-2 reproduction.

Usage: python scripts/bench.py --output BENCH_<n>.json [--experiments]

Every measurement runs in a fresh child process with one BLAS thread and
imports polymg from the ``src/`` next to this script, so the file
describes that checkout.  Its keys:

* ``machine``: the environment record of ``perfbench/run.py`` (nproc, CPU
  model, caches, Python, NumPy, SciPy, BLAS and its thread count, commit).
* ``lfa_tables_s``: per table 1..7, the median and every wall time of
  ``reproduce_table(i, experiments=False)`` over three cold children
  (the import is not timed).
* ``kernel_timings``: the rows of ``scripts/kernel_timings.py`` at its
  default time budget.
* ``table2_trace``: calls, total and self seconds of every function that
  ``perfbench/tracer.py`` traces, plus its counters, over one cold
  ``reproduce_table(2, experiments=False)``.

With ``--experiments`` (it adds minutes) the file also has:

* ``tables_with_experiments_s``: per table 1..7, the wall time of one cold
  ``reproduce_table(i)``, multigrid experiments included (tables 1, 2, 6
  and 7 have none, so they repeat their LFA-only run);
* ``tier1``: the wall time, exit code and summary line of one run of the
  test suite (``python -m pytest -q --continue-on-collection-errors``,
  run from the repository root).

Without it, those two are listed under ``not_measured``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
#: cold children per table; the median is reported
REPEATS = 3
KERNEL_COLUMNS = ("config", "apply_operator_ms", "smooth_ms", "vcycle_ms",
                  "faults_per_apply")


def _child(*args: str):
    """The JSON one measurement prints in a fresh process with one BLAS
    thread."""
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(ROOT / "src")}
    return json.loads(subprocess.run(
        [sys.executable, __file__, "--child", *args], env=env, check=True,
        capture_output=True, text=True).stdout)


def measure_machine() -> dict:
    from run import environment

    return environment(len(os.sched_getaffinity(0)))


def measure_table(index: int, experiments: bool = False) -> float:
    from polymg import tables

    t0 = time.perf_counter()
    tables.reproduce_table(index, experiments=experiments)
    return time.perf_counter() - t0


def measure_tier1() -> dict:
    """One test-suite run: wall time, exit code and pytest's last line."""
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [line for line in run.stdout.splitlines() if " in " in line
             and ("passed" in line or "failed" in line)]
    return {"wall_s": wall, "exit_code": run.returncode,
            "summary": lines[-1].strip("= ") if lines else ""}


def measure_table2_trace() -> dict:
    from tracer import Tracer

    from polymg import tables

    tracer = Tracer()
    tracer.install()
    try:
        # through the module, whose binding the tracer wraps
        tables.reproduce_table(2, experiments=False)
    finally:
        tracer.uninstall()
    return tracer.summary()


def measure_kernels() -> list[dict]:
    from kernel_timings import kernel_rows

    return [dict(zip(KERNEL_COLUMNS, row)) for row in kernel_rows()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", help="the JSON file to write")
    ap.add_argument("--experiments", action="store_true",
                    help="also time the seven tables with their "
                         "experiments and one test-suite run (minutes)")
    ap.add_argument("--child", nargs="+",
                    help="run one measurement in this process and print it "
                         "as JSON: machine, table INDEX [experiments], "
                         "kernels or trace")
    args = ap.parse_args(argv)
    if args.child:
        sys.path[:0] = [str(ROOT / d) for d in ("src", "perfbench",
                                                 "scripts")]
        kind, *rest = args.child
        value = {"machine": measure_machine,
                 "table": lambda: measure_table(int(rest[0]),
                                                "experiments" in rest),
                 "kernels": measure_kernels,
                 "trace": measure_table2_trace}[kind]()
        print(json.dumps(value))
        return 0
    if args.output is None:
        ap.error("--output is required")

    tables = {}
    for index in range(1, 8):
        runs = [_child("table", str(index)) for _ in range(REPEATS)]
        tables[str(index)] = {"median": statistics.median(runs), "runs": runs}
        print(f"table {index}: {tables[str(index)]['median']:.3f} s",
              flush=True)
    report = {"machine": _child("machine"),
              "lfa_tables_s": tables,
              "kernel_timings": _child("kernels"),
              "table2_trace": _child("trace")}
    if args.experiments:
        report["tables_with_experiments_s"] = {}
        for index in range(1, 8):
            wall = _child("table", str(index), "experiments")
            report["tables_with_experiments_s"][str(index)] = wall
            print(f"table {index} with experiments: {wall:.3f} s",
                  flush=True)
        report["tier1"] = measure_tier1()
        print(f"tier-1: {report['tier1']['wall_s']:.1f} s, "
              f"{report['tier1']['summary']}", flush=True)
    else:
        report["not_measured"] = ["tables with experiments",
                                  "Tier-1 wall time"]
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

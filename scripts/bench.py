#!/usr/bin/env python3
"""Write one benchmark file: machine, LFA-only table times, kernel timings
and the per-layer counters of one traced table-2 reproduction.

Usage: python scripts/bench.py --output BENCH_<n>.json

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

Not measured: the tables with their multigrid experiments and the Tier-1
wall time, which take minutes each.
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


def measure_table(index: int) -> float:
    from polymg import tables

    t0 = time.perf_counter()
    tables.reproduce_table(index, experiments=False)
    return time.perf_counter() - t0


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
    ap.add_argument("--child", nargs="+",
                    help="run one measurement in this process and print it "
                         "as JSON: machine, table INDEX, kernels or trace")
    args = ap.parse_args(argv)
    if args.child:
        sys.path[:0] = [str(ROOT / d) for d in ("src", "perfbench",
                                                 "scripts")]
        kind, *rest = args.child
        value = {"machine": measure_machine,
                 "table": lambda: measure_table(int(rest[0])),
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
              "table2_trace": _child("trace"),
              "not_measured": ["tables with experiments", "Tier-1 wall time"]}
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

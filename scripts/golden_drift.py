#!/usr/bin/env python3
"""Exact drift of every multigrid A-norm ratio sequence of the benchmark,
and of the LFA-only table cells and lambda bounds.

For each ``vcycle`` and ``twogrid`` hierarchy of ``perfbench/workloads.py``
runs ``measure_asymptotic_rate`` at the golden seed and length and prints
the largest absolute difference from a reference and the number of ratios
that are not ``==`` to it.  It does the same for the computed cells of the
seven tables without experiments (``reproduce_table(i,
experiments=False)``) and for ``lambda_bounds`` of the built-in stencils,
both preconditioners and k = 1..3.  The reference is
``perfbench/golden.json``, which holds ratios only, or a file that
``--save`` wrote in another checkout: a change that claims bit-identical
numbers must print 0 against its parent's file.  Exits 1 if any value
differs.

Usage: PYTHONPATH=src python scripts/golden_drift.py [--save FILE]
                                                     [--reference FILE]
"""

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from polymg.multigrid import measure_asymptotic_rate  # noqa: E402
from polymg.stencils import (  # noqa: E402
    build_fd_laplace, build_fem_tri_laplace, rectangular)
from polymg.symbols import PRECONDITIONERS, lambda_bounds  # noqa: E402
from polymg.tables import TRI_PRESETS, reproduce_table  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, GOLDEN_ITERATIONS, twogrid_plan, vcycle_plan)

BUILT_IN = {"fd2d": build_fd_laplace(rectangular(1.0, 2)),
            "fd3d": build_fd_laplace(rectangular(1.0, 3)),
            **{name: build_fem_tri_laplace(*angles)
               for name, angles in TRI_PRESETS.items()}}


def ratio_sequences():
    """(keys, label, A-norm ratios) of every benchmark hierarchy."""
    for workload, plan in (("vcycle", vcycle_plan), ("twogrid", twogrid_plan)):
        for group in plan():
            for h in group.members:
                yield (workload, "ratios"), h.label, measure_asymptotic_rate(
                    h.spec, h.n, h.dimension,
                    iterations=GOLDEN_ITERATIONS[h.dimension],
                    seed=DEFAULT_SEED).ratios


def lfa_values():
    """(keys, label, values) of every LFA-only table and lambda bound."""
    for i in range(1, 8):
        cells = reproduce_table(i, experiments=False).computed
        yield ("lfa_tables",), f"table {i}", [v for row in cells for v in row]
    for name, stencil in BUILT_IN.items():
        for kind in PRECONDITIONERS:
            for k in (1, 2, 3):
                yield (("lambda_bounds",), f"{name} {kind} k={k}",
                       list(lambda_bounds(stencil, kind, k)))


def compare(got: list, want: list) -> tuple[int, float]:
    """Values not == (and lengths apart), and the largest numeric drift."""
    unequal = (sum(a != b for a, b in zip(got, want))
               + abs(len(got) - len(want)))
    drift = max((abs(a - b) for a, b in zip(got, want)
                 if a is not None and b is not None), default=0.0)
    return unequal, drift


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reference", type=Path,
                    default=ROOT / "perfbench" / "golden.json",
                    help="golden.json or a --save file of another checkout")
    ap.add_argument("--save", type=Path,
                    help="write this checkout's values to FILE")
    args = ap.parse_args()
    reference = json.loads(args.reference.read_text())
    saved, differing = {}, {}
    for keys, label, got in chain(ratio_sequences(), lfa_values()):
        mine, ref = saved, reference
        for key in keys:
            mine, ref = mine.setdefault(key, {}), ref.get(key, {})
        mine[label] = got = [None if v is None else float(v) for v in got]
        if label not in ref:  # golden.json holds no LFA values
            print(f"{keys[0]:14}{label:44}no reference", flush=True)
            continue
        unequal, drift = compare(got, ref[label])
        differing[keys[-1]] = differing.get(keys[-1], 0) + unequal
        print(f"{keys[0]:14}{label:44}drift {drift:.3e}  "
              f"unequal {unequal}/{len(ref[label])}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(saved) + "\n")
    for kind, count in differing.items():
        print(f"{kind} not == the reference: {count}")
    return 1 if any(differing.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

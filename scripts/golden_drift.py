#!/usr/bin/env python3
"""Exact drift of every multigrid A-norm ratio sequence of the benchmark.

For each ``vcycle`` and ``twogrid`` hierarchy of ``perfbench/workloads.py``
runs ``measure_asymptotic_rate`` at the golden seed and length and prints
the largest absolute difference from a reference and the number of ratios
that are not ``==`` to it.  The reference is ``perfbench/golden.json``, or
a file that ``--save`` wrote in another checkout: a change that claims
bit-identical cycles must print 0 against its parent's file.  Exits 1 if
any ratio differs.

Usage: PYTHONPATH=src python scripts/golden_drift.py [--save FILE]
                                                     [--reference FILE]
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from polymg.multigrid import measure_asymptotic_rate  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, GOLDEN_ITERATIONS, twogrid_plan, vcycle_plan)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reference", type=Path,
                    default=ROOT / "perfbench" / "golden.json",
                    help="golden.json or a --save file of another checkout")
    ap.add_argument("--save", type=Path,
                    help="write this checkout's sequences to FILE")
    args = ap.parse_args()
    reference = json.loads(args.reference.read_text())
    saved, differing = {}, 0
    for workload, plan in (("vcycle", vcycle_plan), ("twogrid", twogrid_plan)):
        ratios = saved.setdefault(workload, {"ratios": {}})["ratios"]
        for group in plan():
            for h in group.members:
                want = reference[workload]["ratios"][h.label]
                got = ratios[h.label] = measure_asymptotic_rate(
                    h.spec, h.n, h.dimension,
                    iterations=GOLDEN_ITERATIONS[h.dimension],
                    seed=DEFAULT_SEED).ratios
                unequal = sum(a != b for a, b in zip(got, want)) \
                    + abs(len(got) - len(want))
                drift = max(abs(a - b) for a, b in zip(got, want))
                differing += unequal
                print(f"{workload:8}{h.label:44}drift {drift:.3e}  "
                      f"unequal {unequal}/{len(want)}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(saved) + "\n")
    print(f"ratios not == the reference: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

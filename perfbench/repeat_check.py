"""Check that traced counts repeat exactly between two traced runs.

    python3 perfbench/repeat_check.py --workload vcycle

Runs ``run.py --trace 1`` twice for the workload and compares every
per-layer metric that is not a time.  Exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_metrics(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                          "--seed", str(seed), "--trace", "1"],
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"traced run failed ({out.returncode}):\n{out.stdout}"
                 f"{out.stderr}")
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] != "s"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1234)
    args = p.parse_args()
    first = traced_metrics(args.workload, args.seed)
    second = traced_metrics(args.workload, args.seed)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    for name, (a, b) in sorted(differ.items()):
        print(f"{name}: {a!r} != {b!r}")
    print(f"{len(first) - len(differ)} of {len(first)} counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

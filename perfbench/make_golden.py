"""Write golden.json: the computed values every benchmark run checks.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_golden.py

The golden data records what the program computed at one commit, so that
later commits can be held to it: every cell of tables 2, 4 and 7 (LFA
only), table 7's rho in both coarse modes, the LFA intervals of each
hierarchy group, and each hierarchy's full A-norm ratio sequence from
``measure_asymptotic_rate`` at the default seed.
It refuses to overwrite an existing file; regenerating it would hide drift.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from polymg.multigrid import measure_asymptotic_rate  # noqa: E402
from polymg.tables import reproduce_table  # noqa: E402

from workloads import (  # noqa: E402
    DEFAULT_SEED, GOLDEN_ITERATIONS, LFA_TABLES, twogrid_plan, vcycle_plan)


def hierarchy_golden(plan) -> dict:
    out = {"lambdas": {}, "ratios": {}}
    for group in plan():
        out["lambdas"][group.label] = group.lambdas
        for h in group.members:
            report = measure_asymptotic_rate(
                h.spec, h.n, h.dimension,
                iterations=GOLDEN_ITERATIONS[h.dimension], seed=DEFAULT_SEED)
            out["ratios"][h.label] = report.ratios
            print(f"{h.label}: rate {report.rate:.6f}", flush=True)
    return out


def main() -> int:
    target = HERE / "golden.json"
    if target.exists():
        sys.exit(f"{target} exists; delete it by hand to regenerate")
    commit = subprocess.run(["git", "-C", str(HERE), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    lfa = {i: reproduce_table(i, experiments=False) for i in LFA_TABLES}
    golden = {"commit": commit, "default_seed": DEFAULT_SEED,
              "lfa": {str(i): result.computed for i, result in lfa.items()},
              "lfa_modes": {"7": lfa[7].extras["modes"]},
              "vcycle": hierarchy_golden(vcycle_plan),
              "twogrid": hierarchy_golden(twogrid_plan)}
    target.write_text(json.dumps(golden) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Median time of the multigrid kernels on the table-5 V(1,1) shapes.

For each configuration (2D n=255 and 3D n=63, k = 1 and k = 3, at the
table degrees) prints the median milliseconds of one fine-level
``apply_operator`` and one fine-level ``Multigrid.smooth``, both on padded
vectors, and of one V-cycle (``Multigrid.cycle``, interior-shaped).
The smoother is Chebyshev on [0.25, 2]; operator costs do not depend on
the interval.  Each kernel runs once untimed (the coarsest solve is set
up on first use), then repeatedly for at least ``--seconds`` and at least
five times.  The last column is the minor page faults per plain
``apply_operator``, whose full-size output glibc maps afresh while it is
above the adaptive mmap threshold (until the process has freed a larger
array), so each call faults it in again.  A smoothing step allocates no
full-size A v (its update is fused into the operator's blocks), so only
the smooth's three work vectors can fault.  The configurations run in a
fixed order, so every run sees the same allocator history.

A second table times the coarsest layer on the two-grid k = 1 coarsest
levels 127^2 (255^2 fine, both coarse modes) and 15^3 (31^3 fine,
Galerkin): the median milliseconds of ``factor_coarsest``, the set-up a
hierarchy's first cycle pays, and of one interior-shaped solve, with the
solver's name.

Usage: PYTHONPATH=src python scripts/kernel_timings.py [--seconds 2]
"""

import argparse
import resource
import statistics
import time

import numpy as np

from polymg import (CHEBYSHEV, GALERKIN, REDISCRETIZED, CycleSpec,
                    Multigrid, SmootherSpec, apply_operator)
from polymg.multigrid import TWO_GRID, V_CYCLE, factor_coarsest

#: (dimension, n, k, degree): ROADMAP item 1's V-cycle baselines
CONFIGS = ((2, 255, 1, 2), (2, 255, 3, 17), (3, 63, 1, 3), (3, 63, 3, 22))
#: (dimension, fine n, coarse mode) of the two-grid k = 1 coarsest levels
COARSEST = ((2, 255, REDISCRETIZED), (2, 255, GALERKIN), (3, 31, GALERKIN))


def median_ms(fn, seconds: float) -> tuple[float, float]:
    """(median ms, minor page faults per call) over the timed calls."""
    fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    while len(times) < 5 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e3 * statistics.median(times), faults / len(times)


#: minimum timed seconds per kernel
SECONDS = 2.0


def kernel_rows(seconds: float = SECONDS):
    """Yield one row per configuration: (label, apply_operator ms, smooth
    ms, V-cycle ms, minor page faults per apply_operator)."""
    for dimension, n, k, degree in CONFIGS:
        spec = CycleSpec(kind=V_CYCLE, k=k, pre=1, post=1,
                         smoother=SmootherSpec(CHEBYSHEV, degree, 0.25, 2.0))
        mg = Multigrid(spec, n, dimension)
        fine = mg.levels[0]
        u = np.random.default_rng(0).standard_normal(mg.shape)
        f = np.zeros(mg.shape)
        padded_u, padded_f = fine.pad(u), fine.pad(f)
        (apply_ms, faults), (smooth_ms, _), (cycle_ms, _) = [
            median_ms(fn, seconds) for fn in (
                lambda: apply_operator(fine, padded_u),
                lambda: mg.smooth(0, padded_f, padded_u),
                lambda: mg.cycle(f, u))]
        yield (f"{dimension}D n={n} k={k} deg {degree}",
               apply_ms, smooth_ms, cycle_ms, faults)


def coarsest_rows(seconds: float = SECONDS):
    """Yield one row per coarsest level: (label, set-up ms, solve ms,
    solver name)."""
    smoother = SmootherSpec(CHEBYSHEV, 2, 0.25, 2.0)
    for dimension, n, mode in COARSEST:
        spec = CycleSpec(kind=TWO_GRID, k=1, smoother=smoother,
                         coarse_mode=mode)
        level = Multigrid(spec, n, dimension).levels[-1]
        solver = factor_coarsest(level)
        f = np.random.default_rng(0).standard_normal(level.shape)
        (setup_ms, _), (solve_ms, _) = [median_ms(fn, seconds) for fn in (
            lambda: factor_coarsest(level), lambda: solver.solve(f))]
        yield (f"{level.shape[0]}^{dimension} {mode}", setup_ms, solve_ms,
               solver.name)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=SECONDS,
                    help="minimum timed seconds per kernel")
    args = ap.parse_args()
    print(f"{'config (median ms)':<22}{'apply_operator':>16}{'smooth':>10}"
          f"{'V-cycle':>10}{'faults/apply':>14}")
    for label, apply_ms, smooth_ms, cycle_ms, faults in kernel_rows(
            args.seconds):
        print(f"{label:<22}{apply_ms:>16.3f}{smooth_ms:>10.3f}"
              f"{cycle_ms:>10.3f}{faults:>14.0f}")
    print(f"\n{'coarsest (median ms)':<22}{'set-up':>10}{'solve':>10}"
          f"{'solver':>10}")
    for label, setup_ms, solve_ms, name in coarsest_rows(args.seconds):
        print(f"{label:<22}{setup_ms:>10.3f}{solve_ms:>10.3f}{name:>10}")


if __name__ == "__main__":
    main()

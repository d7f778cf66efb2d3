#!/usr/bin/env python3
"""Sweep the smoothing interval's left end and report mu and rho.

Shows how the smoothing factor and the two-grid factor respond to
lambda0, and where the min-max and two-grid optima sit.  The sweep's rho
is the unpolished lattice maximum of the block radii.

Usage: python scripts/lambda0_sweep.py --k 2 --degree 6 --family ba1x
"""

import argparse
import json

import numpy as np

from polymg import (JACOBI, REDISCRETIZED, SA, FrequencySampling,
                    SmootherSpec, TwoGridConfig, build_fd_laplace,
                    lambda_bounds, optimal_lambda0_smoothing,
                    optimal_lambda0_two_grid, rectangular,
                    sample_frequencies, smoothing_factor)
from polymg.cli import FAMILY_ALIASES
from polymg.lfa import BlockEvaluator


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--degree", type=int, default=6)
    # SA ignores lambda0, so only the families that read it are swept
    ap.add_argument("--family", default="ba1x", choices=sorted(
        alias for alias, family in FAMILY_ALIASES.items() if family != SA))
    ap.add_argument("--lambda1", type=float, default=2.0)
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--samples", type=int, default=64)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    stencil = build_fd_laplace(rectangular(1.0, 2))
    sampling = FrequencySampling(samples_per_axis=args.samples)
    family = FAMILY_ALIASES[args.family]
    lam0_lfa, lam1 = lambda_bounds(stencil, JACOBI, args.k, sampling)
    lam1 = args.lambda1 or lam1
    lows = sample_frequencies(stencil.geometry, args.k, sampling)

    rows = []
    for lam0 in np.geomspace(lam0_lfa / 4, lam1 / 2, args.points):
        spec = SmootherSpec(family, args.degree, lam0, lam1)
        cfg = TwoGridConfig(stencil=stencil, smoother=spec, k=args.k,
                            coarse_mode=REDISCRETIZED, sampling=sampling)
        rho = BlockEvaluator(cfg).radii(spec, lows).max()
        rows.append({"lambda0": float(lam0),
                     "mu": smoothing_factor(stencil, spec, args.k,
                                            sampling=sampling),
                     "rho": float(rho)})
        print(f"lambda0={rows[-1]['lambda0']:.4f}  "
              f"mu={rows[-1]['mu']:.4f}  rho={rows[-1]['rho']:.4f}")

    lam_star = optimal_lambda0_smoothing(args.degree, lam0_lfa, lam1)
    base = SmootherSpec(family, args.degree, lam0_lfa, lam1)
    cfg = TwoGridConfig(stencil=stencil, smoother=base, k=args.k,
                        coarse_mode=REDISCRETIZED, sampling=sampling)
    lam_tg, rho_tg, _ = optimal_lambda0_two_grid(cfg)
    summary = {"lambda0_lfa": lam0_lfa, "lambda0_star": lam_star,
               "lambda0_two_grid": lam_tg, "rho_at_two_grid_opt": rho_tg,
               "sweep": rows}
    print(f"\nlambda0 (LFA bound)      = {lam0_lfa:.4f}")
    print(f"lambda0* (min-max)       = {lam_star:.4f}")
    print(f"lambda0 (two-grid optim) = {lam_tg:.4f}  rho = {rho_tg:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)


if __name__ == "__main__":
    main()

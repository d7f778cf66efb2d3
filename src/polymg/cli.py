"""Command-line front end.

Subcommands: smoothing-factor, two-grid, solve, optimize, reproduce.
Reports are JSON (default) or CSV on stdout or a file; every report
echoes the fully resolved configuration so it can be rerun without the
original flags.  Failures exit nonzero with a machine-parsable JSON error
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .lfa import (COARSE_MODES, REDISCRETIZED, TwoGridConfig,
                  optimal_lambda0_two_grid, rho_two_grid, smoothing_factor)
from .multigrid import CycleSpec, measure_asymptotic_rate
from .polynomials import (BA1X, CHEBYSHEV, SA, SmootherSpec, min_degree,
                          optimal_lambda0_smoothing)
from .stencils import Stencil, build_fd_laplace, build_fem_tri_laplace, \
    rectangular
from .symbols import FrequencySampling, JACOBI, L1_JACOBI, lambda_bounds
from .tables import TRI_PRESETS, reproduce_table

FAMILY_ALIASES = {"cheb": CHEBYSHEV, "chebyshev": CHEBYSHEV,
                  "sa": SA, "ba1x": BA1X, "ba": BA1X}


class CliError(Exception):
    pass


def _add_stencil_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stencil", choices=["fd2d", "fd3d", "tri"],
                   help="built-in operator (or use --stencil-file)")
    p.add_argument("--stencil-file", help="JSON stencil document")
    p.add_argument("--alpha", type=float, help="triangular grid angle (radians)")
    p.add_argument("--beta", type=float, help="triangular grid angle (radians)")
    p.add_argument("--preset", choices=sorted(TRI_PRESETS),
                   help="named triangular geometry")
    p.add_argument("--h", type=float, default=1.0, help="mesh width")


def _add_smoother_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   choices=sorted(FAMILY_ALIASES), help="smoother family")
    p.add_argument("--degree", type=int, help="approximant degree (required, "
                   "except by optimize --objective degree, which computes it)")
    p.add_argument("--lambda0", default="auto",
                   help="'auto' (LFA bound), 'opt' (min-max optimum), or a number")
    p.add_argument("--lambda1", default="auto",
                   help="'auto' (LFA bound) or a number")
    p.add_argument("--preconditioner", choices=[JACOBI, L1_JACOBI],
                   default=JACOBI)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=64,
                   help="frequency samples per axis")
    p.add_argument("--k", type=int, default=1, help="coarsening exponent")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", help="write the report here instead of stdout")


def _resolve_stencil(args) -> Stencil:
    if args.stencil_file:
        return Stencil.load(args.stencil_file)
    if args.stencil is None:
        raise CliError("one of --stencil or --stencil-file is required")
    if args.stencil == "fd2d":
        return build_fd_laplace(rectangular(args.h, 2))
    if args.stencil == "fd3d":
        return build_fd_laplace(rectangular(args.h, 3))
    if args.preset:
        alpha, beta = TRI_PRESETS[args.preset]
    else:
        if args.alpha is None or args.beta is None:
            raise CliError("triangular stencil needs --alpha/--beta or --preset")
        alpha, beta = args.alpha, args.beta
    return build_fem_tri_laplace(alpha, beta, args.h)


def _resolve_smoother(args, stencil: Stencil, sampling: FrequencySampling
                      ) -> tuple[SmootherSpec, dict]:
    family = FAMILY_ALIASES[args.family]
    lam0_auto, lam1_auto = lambda_bounds(stencil, args.preconditioner,
                                         args.k, sampling)
    lam1 = lam1_auto if args.lambda1 == "auto" else float(args.lambda1)
    # an interval below the spectrum amplifies the modes above its top;
    # the margin is the one lambda_bounds allows its own lambda1 estimates
    if lam1 < lam1_auto * (1.0 - 1e-9):
        raise CliError(f"--lambda1 {lam1!r} is below the LFA lambda1 "
                       f"{lam1_auto!r} of the stencil")
    degree = args.degree
    if degree is None:
        raise CliError("--degree is required")
    if args.lambda0 == "auto":
        lam0 = lam0_auto
    elif args.lambda0 == "opt":
        lam0 = optimal_lambda0_smoothing(degree, lam0_auto, lam1)
    else:
        lam0 = float(args.lambda0)
    spec = SmootherSpec(family, degree, 0.0 if family == SA else lam0, lam1)
    echo = {"lambda0_auto": lam0_auto, "lambda1_auto": lam1_auto,
            "lambda0_policy": args.lambda0}
    return spec, echo


def _emit(report: dict, args) -> None:
    # serialised in every format, so that no report carries NaN or infinity
    text = json.dumps(report, indent=2, default=_jsonable,
                      allow_nan=False) + "\n"
    if args.format == "csv":
        flat = _flatten(report)
        text = ",".join(flat) + "\n" + ",".join(
            _fmt(report, key) for key in flat) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _flatten(report: dict) -> list[str]:
    return [k for k, v in report.items()
            if isinstance(v, (int, float, str, bool))]


def _fmt(report: dict, key: str) -> str:
    v = report[key]
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def _jsonable(o):
    import numpy as np
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def cmd_smoothing_factor(args) -> None:
    sampling = FrequencySampling(samples_per_axis=args.samples)
    stencil = _resolve_stencil(args)
    spec, echo = _resolve_smoother(args, stencil, sampling)
    mu = smoothing_factor(stencil, spec, args.k,
                          preconditioner=args.preconditioner,
                          sampling=sampling, iterations=args.iterations)
    lam_star = None
    if spec.family != SA:
        lam_star = optimal_lambda0_smoothing(
            spec.degree, echo["lambda0_auto"], spec.lambda1)
    report = {"command": "smoothing-factor", "mu": mu,
              "stencil": stencil.to_dict(), "smoother": spec.to_dict(),
              "k": args.k, "iterations": args.iterations,
              "preconditioner": args.preconditioner,
              "samples_per_axis": args.samples,
              "lambda0": spec.lambda0, "lambda1": spec.lambda1,
              "lambda0_star": lam_star, **echo}
    _emit(report, args)


def cmd_two_grid(args) -> None:
    sampling = FrequencySampling(samples_per_axis=args.samples)
    stencil = _resolve_stencil(args)
    spec, echo = _resolve_smoother(args, stencil, sampling)
    modes = COARSE_MODES if args.coarse == "both" else (args.coarse,)
    rho = {}
    for mode in modes:
        cfg = TwoGridConfig(stencil=stencil, smoother=spec, k=args.k,
                            preconditioner=args.preconditioner,
                            nu1=args.nu1, nu2=args.nu2, coarse_mode=mode,
                            sampling=sampling)
        rho[mode] = rho_two_grid(cfg)
    report = {"command": "two-grid", "rho_lfa": rho,
              "stencil": stencil.to_dict(), "smoother": spec.to_dict(),
              "k": args.k, "nu1": args.nu1, "nu2": args.nu2,
              "preconditioner": args.preconditioner,
              "samples_per_axis": args.samples,
              "coarse_modes": list(modes), **echo}
    _emit(report, args)


def cmd_solve(args) -> None:
    sampling = FrequencySampling(samples_per_axis=args.samples)
    stencil = _resolve_stencil(args)
    spec, echo = _resolve_smoother(args, stencil, sampling)
    kinds = {"tg": "two-grid", "v": "v", "w": "w"}
    cyc = CycleSpec(kind=kinds[args.cycle], k=args.k, smoother=spec,
                    preconditioner=args.preconditioner, pre=args.pre,
                    post=args.post, levels=args.levels,
                    coarse_mode=args.coarse)
    report_obj = measure_asymptotic_rate(cyc, args.n,
                                         stencil.geometry.dimension,
                                         iterations=args.iterations,
                                         seed=args.seed, stencil=stencil)
    report = {"command": "solve", "rate": report_obj.rate,
              "stencil": stencil.to_dict(), **report_obj.to_dict(), **echo}
    if args.history:
        with open(args.history, "w") as f:
            f.write("iteration,anorm_ratio\n")
            for i, r in enumerate(report_obj.ratios):
                f.write(f"{i},{r:.12g}\n")
    _emit(report, args)


def cmd_optimize(args) -> None:
    sampling = FrequencySampling(samples_per_axis=args.samples)
    if args.objective == "degree":
        if args.rho is None or args.kappa is None:
            raise CliError("degree objective needs --rho and --kappa")
        m = min_degree(args.rho, args.kappa, args.lambda1_value)
        _emit({"command": "optimize", "objective": "degree", "degree": m,
               "rho": args.rho, "kappa": args.kappa,
               "lambda1": args.lambda1_value}, args)
        return
    stencil = _resolve_stencil(args)
    spec, echo = _resolve_smoother(args, stencil, sampling)
    if args.objective == "smoothing":
        lam_star = optimal_lambda0_smoothing(spec.degree,
                                             echo["lambda0_auto"],
                                             spec.lambda1)
        tuned = spec.with_lambda0(lam_star)
        mu = smoothing_factor(stencil, tuned, args.k,
                              preconditioner=args.preconditioner,
                              sampling=sampling)
        _emit({"command": "optimize", "objective": "smoothing",
               "lambda0_star": lam_star, "mu": mu,
               "stencil": stencil.to_dict(), "smoother": tuned.to_dict(),
               "k": args.k, "samples_per_axis": args.samples, **echo}, args)
        return
    cfg = TwoGridConfig(stencil=stencil, smoother=spec, k=args.k,
                        preconditioner=args.preconditioner,
                        nu1=args.nu1, nu2=args.nu2,
                        coarse_mode=args.coarse, sampling=sampling)
    lam0, rho, fallback = optimal_lambda0_two_grid(cfg)
    _emit({"command": "optimize", "objective": "twogrid", "lambda0": lam0,
           "rho_lfa": rho, "used_scan_fallback": fallback,
           "stencil": stencil.to_dict(),
           "smoother": spec.with_lambda0(lam0).to_dict(), "k": args.k,
           "coarse_mode": args.coarse, "nu1": args.nu1, "nu2": args.nu2,
           "samples_per_axis": args.samples, **echo}, args)


def cmd_reproduce(args) -> None:
    if not 1 <= args.table <= 7:
        raise CliError(f"table index {args.table} out of range 1..7")
    sampling = FrequencySampling(samples_per_axis=args.samples)
    result = reproduce_table(args.table, sampling,
                             experiments=not args.lfa_only,
                             iterations=args.iterations)
    csv_text = result.csv()
    if args.output:
        with open(args.output, "w") as f:
            f.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    compare_path = args.compare
    if compare_path is None and args.output:
        compare_path = args.output + ".compare.json"
    if compare_path:
        with open(compare_path, "w") as f:
            json.dump(result.comparison(), f, indent=2, default=_jsonable)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymg",
        description="polynomial multigrid smoothers and their Fourier analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smoothing-factor",
                       help="worst high-frequency damping of a smoother")
    _add_stencil_flags(p)
    _add_smoother_flags(p)
    _add_common_flags(p)
    p.add_argument("--iterations", type=int, default=1,
                   help="smoothing steps (exponent on the symbol)")
    p.set_defaults(func=cmd_smoothing_factor)

    p = sub.add_parser("two-grid", help="two-grid convergence factor by LFA")
    _add_stencil_flags(p)
    _add_smoother_flags(p)
    _add_common_flags(p)
    p.add_argument("--coarse", choices=list(COARSE_MODES) + ["both"],
                   default="both")
    p.add_argument("--nu1", type=int, default=1)
    p.add_argument("--nu2", type=int, default=0)
    p.set_defaults(func=cmd_two_grid)

    p = sub.add_parser("solve", help="measure an actual multigrid rate")
    _add_stencil_flags(p)
    _add_smoother_flags(p)
    _add_common_flags(p)
    p.add_argument("--cycle", choices=["tg", "v", "w"], default="v")
    p.add_argument("--n", type=int, default=255,
                   help="interior points per axis on the fine grid")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--pre", type=int, default=1)
    p.add_argument("--post", type=int, default=1)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--coarse", choices=list(COARSE_MODES),
                   default=REDISCRETIZED)
    p.add_argument("--history", help="write per-iteration ratios as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("optimize",
                       help="tune lambda0 or pick the minimal degree")
    _add_stencil_flags(p)
    _add_smoother_flags(p)
    _add_common_flags(p)
    p.add_argument("--objective", choices=["smoothing", "twogrid", "degree"],
                   required=True)
    p.add_argument("--coarse", choices=list(COARSE_MODES),
                   default=REDISCRETIZED)
    p.add_argument("--nu1", type=int, default=1)
    p.add_argument("--nu2", type=int, default=0)
    p.add_argument("--rho", type=float, help="target damping (degree objective)")
    p.add_argument("--kappa", type=float,
                   help="interval ratio lambda1/lambda0 (degree objective)")
    p.add_argument("--lambda1-value", type=float, default=2.0,
                   help="lambda1 for the degree objective")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("reproduce", help="recompute a reference table")
    p.add_argument("--table", type=int, required=True, help="table index 1..7")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--iterations", type=int, default=100,
                   help="cycles per measured rate; table 3's W-cycles run "
                        "max(60, N // 2), table 5's 3D V-cycles min(N, 60)")
    p.add_argument("--lfa-only", action="store_true",
                   help="skip the measured-rate columns")
    p.add_argument("--output", help="CSV path (companion JSON gets .compare.json)")
    p.add_argument("--compare", help="explicit path for the comparison JSON")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CliError, ValueError, OSError, RuntimeError) as err:
        json.dump({"error": type(err).__name__, "message": str(err)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

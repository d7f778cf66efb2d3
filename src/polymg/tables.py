"""Reference-table reproduction: fixtures, pipelines, and comparisons.

The reference values live here as versioned fixtures together with the
parameters (degrees, intervals) that produced them and explicit notes for
every cell the pipeline intentionally does not match: two typographical
errors and a handful of sampling-resolution artifacts in the anisotropic
k=3 corner that an actual two-grid experiment contradicts (the measured
rates agree with this pipeline's numbers; see the notes attached to the
tables).  Each reproduction returns the computed cells, the reference
cells, per-cell deviations, and those notes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

from .lfa import (GALERKIN, REDISCRETIZED, TwoGridConfig,
                  optimal_lambda0_two_grid, rho_two_grid, smoothing_factor)
from .multigrid import (CycleSpec, TWO_GRID, V_CYCLE, W_CYCLE,
                        measure_asymptotic_rate)
from .polynomials import BA1X, CHEBYSHEV, SA, SmootherSpec, \
    optimal_lambda0_smoothing
from .stencils import Stencil, build_fd_laplace, build_fem_tri_laplace, \
    rectangular
from .symbols import FrequencySampling, JACOBI, lambda_bounds

TRI_PRESETS = {
    "equilateral": (math.pi / 3, math.pi / 3),
    "isosceles-80": (4 * math.pi / 9, 4 * math.pi / 9),
}

#: reference lambda1 bounds used by the source tables
LAMBDA1_2D = 2.0
LAMBDA1_3D = 2.0
LAMBDA1_EQUILATERAL = 1.5
LAMBDA1_ISOSCELES = 17.0 / 9.0
#: computed supremum of the Jacobi-preconditioned symbol, isosceles 4pi/9;
#: the reference tables use the slightly larger round bound 17/9
LAMBDA1_ISOSCELES_COMPUTED = 1.8880706

#: interior points per axis of the measured-rate grids, by dimension
GRID_N = {2: 255, 3: 63}

SMOOTHING_DEGREES = {2: {1: 2, 2: 6, 3: 17}, 3: {1: 3, 2: 9, 3: 22}}
TRI_DEGREES = {"equilateral": {1: 1, 2: 5, 3: 14},
               "isosceles-80": {1: 8, 2: 18, 3: 43}}

PAPER = {
    1: {
        "title": "2D smoothing factors (lambda1 = 2)",
        "columns": ["chebyshev", "sa", "ba", "ba_opt", "lambda0", "lambda0_star"],
        "rows": {1: [0.074, 0.233, 0.167, 0.100, 0.500, 0.598],
                 2: [0.041, 0.221, 0.226, 0.086, 0.146, 0.202],
                 3: [0.014, 0.172, 0.230, 0.053, 0.038, 0.057]},
        "tolerances": {"chebyshev": 2e-3, "sa": 2e-3, "ba": 2e-3,
                       "ba_opt": 2e-3, "lambda0": 1e-3, "lambda0_star": 2e-3},
    },
    2: {
        "title": "3D smoothing factors (lambda1 = 2)",
        "columns": ["chebyshev", "sa", "ba", "ba_opt", "lambda0", "lambda0_star"],
        "rows": {1: [0.062, 0.227, 0.185, 0.097, 0.333, 0.419],
                 2: [0.022, 0.215, 0.171, 0.059, 0.976, 0.134],
                 3: [0.011, 0.148, 0.268, 0.051, 0.025, 0.039]},
        "tolerances": {"chebyshev": 2e-3, "sa": 2e-3, "ba": 2e-3,
                       "ba_opt": 2e-3, "lambda0": 1e-3, "lambda0_star": 2e-3},
    },
    3: {
        "title": "2D two-grid convergence (one smoothing step)",
        "columns": ["lambda0", "lambda0_star", "lambda1", "degree",
                    "cheb_rho_lfa", "cheb_rho_w", "ba_rho_lfa", "ba_rho_w",
                    "ba_opt_rho_lfa", "ba_opt_rho_w"],
        "rows": {1: [0.5, 0.598, 2.0, 2, 0.125, 0.126, 0.166, 0.166, 0.134, 0.134],
                 2: [0.146, 0.202, 2.0, 6, 0.156, 0.155, 0.221, 0.225, 0.166, 0.165],
                 3: [0.038, 0.057, 2.0, 17, 0.137, 0.137, 0.227, 0.227, 0.148, 0.149]},
        "tolerances": {"lambda0": 1e-3, "lambda0_star": 2e-3, "lambda1": 1e-9,
                       "degree": 0, "cheb_rho_lfa": 1e-2, "cheb_rho_w": 1e-2,
                       "ba_rho_lfa": 1e-2, "ba_rho_w": 1e-2,
                       "ba_opt_rho_lfa": 1e-2, "ba_opt_rho_w": 1e-2},
    },
    4: {
        "title": "two-grid-optimal lambda0 (2D)",
        "columns": ["cheb_lambda0", "cheb_rho_lfa", "cheb_rho_w",
                    "ba_lambda0", "ba_rho_lfa", "ba_rho_w"],
        "rows": {1: [0.405, 0.111, 0.113, 0.550, 0.128, 0.128],
                 2: [0.095, 0.138, 0.140, 0.167, 0.152, 0.153],
                 3: [0.019, 0.100, 0.100, 0.045, 0.133, 0.133]},
        "tolerances": {c: 1e-2 for c in
                       ["cheb_lambda0", "cheb_rho_lfa", "cheb_rho_w",
                        "ba_lambda0", "ba_rho_lfa", "ba_rho_w"]},
    },
    5: {
        "title": "V(1,1)-cycle rates, 2D and 3D",
        "columns": ["lambda0", "lambda0_star", "ba", "ba_opt", "chebyshev"],
        "rows": {"2d/k=1": [0.5, 0.598, 0.103, 0.114, 0.111],
                 "2d/k=2": [0.146, 0.202, 0.088, 0.103, 0.098],
                 "2d/k=3": [0.038, 0.057, 0.069, 0.083, 0.076],
                 "3d/k=1": [0.333, 0.419, 0.101, 0.115, 0.110],
                 "3d/k=2": [0.098, 0.134, 0.084, 0.099, 0.094],
                 "3d/k=3": [0.025, 0.039, 0.071, 0.090, 0.079]},
        "tolerances": {"lambda0": 1e-3, "lambda0_star": 2e-3, "ba": 1.5e-2,
                       "ba_opt": 1.5e-2, "chebyshev": 1.5e-2},
    },
    6: {
        "title": "two-grid factors, equilateral triangle (lambda1 = 3/2)",
        "columns": ["lambda0", "lambda0_star", "ba", "ba_opt", "chebyshev"],
        "rows": {1: [0.529, 0.623, 0.212, 0.138, 0.129],
                 2: [0.148, 0.195, 0.175, 0.101, 0.102],
                 3: [0.038, 0.056, 0.236, 0.091, 0.086]},
        "tolerances": {"lambda0": 2e-3, "lambda0_star": 2e-3, "ba": 1e-2,
                       "ba_opt": 1e-2, "chebyshev": 1e-2},
    },
    7: {
        "title": "two-grid factors, isosceles triangle 4pi/9 (lambda1 = 17/9)",
        "columns": ["lambda0", "lambda0_star", "ba", "ba_opt", "chebyshev"],
        "rows": {1: [0.112, 0.151, 0.151, 0.079, 0.064],
                 2: [0.033, 0.049, 0.261, 0.101, 0.092],
                 3: [0.009, 0.014, 0.616, 0.095, 0.086]},
        "tolerances": {"lambda0": 2e-3, "lambda0_star": 2e-3, "ba": 1e-2,
                       "ba_opt": 1e-2, "chebyshev": 1e-2},
    },
}

#: cells the pipeline deliberately does not match, with the computed value
#: it produces instead (regression-pinned) and the reason.
DOCUMENTED_DISCREPANCIES = {
    (2, 2, "lambda0"): (
        0.0976,
        "printed 0.976 is a typographical error for 0.0976; the 3D V-cycle "
        "table lists 0.098 for the same quantity"),
    (1, 3, "sa"): (
        0.1799,
        "supremum over the closed high-frequency range; the printed 0.172 "
        "reflects a sampling grid that misses the low/high interface where "
        "the SA error peaks"),
    (2, 3, "sa"): (
        0.1570,
        "same interface-sampling artifact as the 2D k=3 SA entry"),
    (6, 3, "ba"): (
        0.2089,
        "two-grid (1,0) on a 127^2 grid of this triangulation, 60 iterations, "
        "measures 0.2075, matching this pipeline; the printed 0.236 is not "
        "reproducible from the stated parameters"),
    (7, 2, "ba"): (
        0.2477,
        "two-grid (1,0) on 127^2, 60 iterations, measures 0.2454; printed "
        "0.261 not reproducible"),
    (7, 3, "ba"): (
        0.3570,
        "two-grid (1,0) on 127^2, 60 iterations, measures 0.3537; printed "
        "0.616 not reproducible"),
}


@dataclass
class TableResult:
    """One reproduced table plus its reference comparison."""

    index: int
    title: str
    columns: list[str]
    row_labels: list[str]
    computed: list[list[float]]
    reference: list[list[float]]
    tolerances: dict[str, float]
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(["row"] + self.columns) + "\n")
        for label, row in zip(self.row_labels, self.computed):
            cells = [f"{v:.6g}" if v is not None else "" for v in row]
            buf.write(",".join([str(label)] + cells) + "\n")
        return buf.getvalue()

    def comparison(self) -> dict:
        cells = []
        for label, crow, prow in zip(self.row_labels, self.computed,
                                     self.reference):
            for col, cv, pv in zip(self.columns, crow, prow):
                if cv is None or pv is None:
                    continue
                key = _discrepancy_key(self.index, label, col)
                entry = {"row": str(label), "column": col,
                         "computed": float(cv), "reference": float(pv),
                         "abs_diff": float(abs(cv - pv)),
                         "tolerance": self.tolerances.get(col),
                         "within_tolerance": bool(
                             abs(cv - pv) <= (self.tolerances.get(col) or 0.0))}
                if key in DOCUMENTED_DISCREPANCIES:
                    pinned, why = DOCUMENTED_DISCREPANCIES[key]
                    entry["documented_discrepancy"] = why
                    entry["pinned_computed_value"] = pinned
                cells.append(entry)
        return {"table": self.index, "title": self.title, "cells": cells,
                "notes": self.notes}


def _discrepancy_key(table: int, label, col: str):
    if isinstance(label, str) and label.startswith("k="):
        label = int(label[2:])
    return (table, label, col)


def _result(index: int, rows: list, extras: dict | None = None,
            notes: tuple[str, ...] = ()) -> TableResult:
    """Table ``index``'s computed rows beside its PAPER fixture, in the
    fixture's row order; notes are its documented discrepancies, then
    ``notes``."""
    fixture = PAPER[index]
    return TableResult(
        index=index, title=fixture["title"], columns=fixture["columns"],
        row_labels=[r if isinstance(r, str) else f"k={r}"
                    for r in fixture["rows"]],
        computed=rows, reference=list(fixture["rows"].values()),
        tolerances=fixture["tolerances"],
        notes=[why for (t, _, _), (_, why) in DOCUMENTED_DISCREPANCIES.items()
               if t == index] + list(notes),
        extras={} if extras is None else extras)


def _fd_stencil(dimension: int) -> Stencil:
    return build_fd_laplace(rectangular(1.0, dimension))


def _tri_stencil(preset: str) -> Stencil:
    alpha, beta = TRI_PRESETS[preset]
    return build_fem_tri_laplace(alpha, beta, 1.0)


def smoothing_table(dimension: int,
                    sampling: FrequencySampling | None = None) -> TableResult:
    """Tables 1 and 2: smoothing factors of the three families."""
    sampling = sampling or FrequencySampling()
    index = 1 if dimension == 2 else 2
    stencil = _fd_stencil(dimension)
    lam1 = LAMBDA1_2D if dimension == 2 else LAMBDA1_3D
    rows = []
    for k in (1, 2, 3):
        deg = SMOOTHING_DEGREES[dimension][k]
        lam0, _ = lambda_bounds(stencil, JACOBI, k, sampling)
        lam_star = optimal_lambda0_smoothing(deg, lam0, lam1)
        cheb = SmootherSpec(CHEBYSHEV, deg, lam0, lam1)
        sa = SmootherSpec(SA, deg, 0.0, lam1)
        ba = SmootherSpec(BA1X, deg, lam0, lam1)
        ba_opt = SmootherSpec(BA1X, deg, lam_star, lam1)
        rows.append([smoothing_factor(stencil, cheb, k, sampling=sampling),
                     smoothing_factor(stencil, sa, k, sampling=sampling),
                     smoothing_factor(stencil, ba, k, sampling=sampling),
                     smoothing_factor(stencil, ba_opt, k, sampling=sampling),
                     lam0, lam_star])
    return _result(index, rows)


def _two_grid_rhos(stencil, spec, k, sampling) -> dict[str, float]:
    out = {}
    for mode in (GALERKIN, REDISCRETIZED):
        cfg = TwoGridConfig(stencil=stencil, smoother=spec, k=k,
                            nu1=1, nu2=0, coarse_mode=mode, sampling=sampling)
        out[mode] = rho_two_grid(cfg)
    return out


def _measure(extras: dict, label: str, cyc: CycleSpec, dimension: int,
             iterations: int) -> float:
    """Run one rate measurement, stashing the worst A-norm ratio."""
    report = measure_asymptotic_rate(cyc, GRID_N[dimension], dimension,
                                     iterations=iterations)
    extras.setdefault("max_anorm_ratios", {})[label] = max(report.ratios)
    return report.rate


def two_grid_table(sampling: FrequencySampling | None = None,
                   experiments: bool = True,
                   iterations: int = 100) -> TableResult:
    """Table 3: two-grid LFA factors and measured two-grid rates (2D)."""
    sampling = sampling or FrequencySampling()
    stencil = _fd_stencil(2)
    rows, extras = [], {"modes": {}}
    for k in (1, 2, 3):
        deg = SMOOTHING_DEGREES[2][k]
        lam0, _ = lambda_bounds(stencil, JACOBI, k, sampling)
        lam_star = optimal_lambda0_smoothing(deg, lam0, LAMBDA1_2D)
        row = [lam0, lam_star, LAMBDA1_2D, deg]
        for col, spec in zip(
                ("cheb_rho_lfa", "ba_rho_lfa", "ba_opt_rho_lfa"),
                (SmootherSpec(CHEBYSHEV, deg, lam0, LAMBDA1_2D),
                 SmootherSpec(BA1X, deg, lam0, LAMBDA1_2D),
                 SmootherSpec(BA1X, deg, lam_star, LAMBDA1_2D))):
            rhos = _two_grid_rhos(stencil, spec, k, sampling)
            extras["modes"][f"k={k}/{col}"] = rhos
            row.append(rhos[REDISCRETIZED])
            if experiments:
                cyc = CycleSpec(kind=TWO_GRID, k=k, smoother=spec, pre=1,
                                post=0, coarse_mode=REDISCRETIZED)
                row.append(_measure(extras, f"k={k}/{spec.family}/{spec.lambda0:.4g}",
                                    cyc, 2, iterations))
                # the W-cycle counterpart is reported alongside (the source
                # labels its measured factors rho_W); two-grid is primary
                wcyc = CycleSpec(kind=W_CYCLE, k=k, smoother=spec, pre=1,
                                 post=0, coarse_mode=REDISCRETIZED)
                extras.setdefault("w_cycle_rates", {})[f"k={k}/{col}"] = \
                    _measure(extras, f"w/k={k}/{spec.family}/{spec.lambda0:.4g}",
                             wcyc, 2, max(60, iterations // 2))
            else:
                row.append(None)
        rows.append(row)
    return _result(3, rows, extras)


def optimal_table(sampling: FrequencySampling | None = None,
                  experiments: bool = True,
                  iterations: int = 100) -> TableResult:
    """Table 4: lambda0 tuned for the overall two-grid factor."""
    sampling = sampling or FrequencySampling()
    stencil = _fd_stencil(2)
    rows, extras = [], {}
    for k in (1, 2, 3):
        deg = SMOOTHING_DEGREES[2][k]
        row = []
        for family in (CHEBYSHEV, BA1X):
            seed_spec = SmootherSpec(family, deg, LAMBDA1_2D / 4, LAMBDA1_2D)
            cfg = TwoGridConfig(stencil=stencil, smoother=seed_spec, k=k,
                                nu1=1, nu2=0, coarse_mode=REDISCRETIZED,
                                sampling=sampling)
            lam0, rho, fallback = optimal_lambda0_two_grid(cfg)
            row.extend([lam0, rho])
            if experiments:
                spec = seed_spec.with_lambda0(lam0)
                cyc = CycleSpec(kind=TWO_GRID, k=k, smoother=spec, pre=1,
                                post=0, coarse_mode=REDISCRETIZED)
                row.append(_measure(extras, f"k={k}/{family}", cyc, 2,
                                    iterations))
            else:
                row.append(None)
        rows.append(row)
    return _result(4, rows, extras)


def v_cycle_table(sampling: FrequencySampling | None = None,
                  experiments: bool = True, iterations: int = 100
                  ) -> TableResult:
    """Table 5 (both parts): measured V(1,1) rates in 2D and 3D.

    2D rates take ``iterations`` cycles, 3D ones min(iterations, 60)."""
    sampling = sampling or FrequencySampling()
    rows, extras = [], {}
    for dimension, iters in ((2, iterations), (3, min(iterations, 60))):
        stencil = _fd_stencil(dimension)
        for k in (1, 2, 3):
            deg = SMOOTHING_DEGREES[dimension][k]
            lam0, _ = lambda_bounds(stencil, JACOBI, k, sampling)
            lam_star = optimal_lambda0_smoothing(deg, lam0, 2.0)
            row = [lam0, lam_star]
            for spec in (SmootherSpec(BA1X, deg, lam0, 2.0),
                         SmootherSpec(BA1X, deg, lam_star, 2.0),
                         SmootherSpec(CHEBYSHEV, deg, lam0, 2.0)):
                if not experiments:
                    row.append(None)
                    continue
                cyc = CycleSpec(kind=V_CYCLE, k=k, smoother=spec,
                                pre=1, post=1, coarse_mode=REDISCRETIZED)
                row.append(_measure(
                    extras, f"{dimension}d/k={k}/{spec.family}/{spec.lambda0:.4g}",
                    cyc, dimension, iters))
            rows.append(row)
    return _result(5, rows, extras)


def triangular_table(preset: str,
                     sampling: FrequencySampling | None = None) -> TableResult:
    """Tables 6 and 7: two-grid LFA factors on triangular grids."""
    sampling = sampling or FrequencySampling()
    index = 6 if preset == "equilateral" else 7
    stencil = _tri_stencil(preset)
    lam1 = LAMBDA1_EQUILATERAL if preset == "equilateral" else LAMBDA1_ISOSCELES
    rows, extras = [], {"modes": {}, "computed_lambda1": {}}
    for k in (1, 2, 3):
        deg = TRI_DEGREES[preset][k]
        lam0, lam1_c = lambda_bounds(stencil, JACOBI, k, sampling)
        lam_star = optimal_lambda0_smoothing(deg, lam0, lam1)
        row = [lam0, lam_star]
        for col, spec in zip(
                ("ba", "ba_opt", "chebyshev"),
                (SmootherSpec(BA1X, deg, lam0, lam1),
                 SmootherSpec(BA1X, deg, lam_star, lam1),
                 SmootherSpec(CHEBYSHEV, deg, lam0, lam1))):
            rhos = _two_grid_rhos(stencil, spec, k, sampling)
            extras["modes"][f"k={k}/{col}"] = rhos
            row.append(rhos[GALERKIN])
        rows.append(row)
        extras["computed_lambda1"][f"k={k}"] = lam1_c
    notes = () if index == 6 else (
        "the reference uses lambda1 = 17/9 as a spectral bound; the "
        f"computed supremum is {LAMBDA1_ISOSCELES_COMPUTED:.7f} and the "
        "table cells here are built with the reference bound",)
    return _result(index, rows, extras, notes)


def reproduce_table(index: int, sampling: FrequencySampling | None = None,
                    experiments: bool = True, iterations: int = 100
                    ) -> TableResult:
    """Reproduce one reference table by index (1..7)."""
    if index == 1:
        return smoothing_table(2, sampling)
    if index == 2:
        return smoothing_table(3, sampling)
    if index == 3:
        return two_grid_table(sampling, experiments=experiments,
                              iterations=iterations)
    if index == 4:
        return optimal_table(sampling, experiments=experiments,
                             iterations=iterations)
    if index == 5:
        return v_cycle_table(sampling, experiments=experiments,
                             iterations=iterations)
    if index == 6:
        return triangular_table("equilateral", sampling)
    if index == 7:
        return triangular_table("isosceles-80", sampling)
    raise ValueError(f"unknown table index {index}; expected 1..7")

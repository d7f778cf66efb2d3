"""The benchmark's workloads and the checks on their outputs.

``lfa`` reproduces table 2 and cells of tables 4 and 7 from the LFA alone.
``vcycle`` and ``twogrid`` build multigrid hierarchies in set-up and then
advance the ``measure_asymptotic_rate`` loop on each: a seeded random error,
one cycle per step, the A-norm ratio recorded and the error renormalised.
Every computed number is compared with the values the seed commit produced
(``golden.json``), and every LFA cell with the paper reference as
``polymg.tables`` states it.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# layer functions are called through their modules, so that the tracer's
# wrappers, installed in those namespaces, see the benchmark's own calls
from polymg import lfa, polynomials, symbols, tables
from polymg.lfa import GALERKIN, REDISCRETIZED
from polymg.multigrid import (CycleSpec, Multigrid, TWO_GRID, V_CYCLE,
                              W_CYCLE)
from polymg.polynomials import BA1X, CHEBYSHEV, SmootherSpec
from polymg.stencils import (build_fd_laplace, build_fem_tri_laplace,
                             rectangular)
from polymg.symbols import JACOBI, FrequencySampling

#: the seed measure_asymptotic_rate defaults to; golden sequences use it
DEFAULT_SEED = 1234
#: no computed number may drift from the seed commit by more than this
GOLDEN_TOL = 1e-10
#: golden A-norm ratio sequence lengths, as the table-5 reproduction uses
GOLDEN_ITERATIONS = {2: 100, 3: 60}
LFA_TABLES = (2, 4, 7)
PARTS = 3


def _error_line() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


@dataclass
class Job:
    """One table or one hierarchy; it fails if any message is recorded."""

    label: str
    failures: list[str] = field(default_factory=list)


def check_table(result, golden_rows) -> list[str]:
    """Every cell against the seed commit, then against the paper."""
    failures = []
    if len(result.computed) != len(golden_rows):
        failures.append(f"{len(result.computed)} rows, golden has "
                        f"{len(golden_rows)}")
    for label, row, gold in zip(result.row_labels, result.computed,
                                golden_rows):
        if len(row) != len(gold):
            failures.append(f"{label}: {len(row)} cells, golden has "
                            f"{len(gold)}")
        for col, value, want in zip(result.columns, row, gold):
            if want is None or value is None:
                if want is not value:
                    failures.append(f"{label}/{col}: {value!r} != golden "
                                    f"{want!r}")
            elif not abs(value - want) <= GOLDEN_TOL:
                failures.append(f"{label}/{col}: {float(value)!r} drifted "
                                f"from golden {want!r}")
    for cell in result.comparison()["cells"]:
        where = f"{cell['row']}/{cell['column']}"
        if "pinned_computed_value" in cell:
            pinned = cell["pinned_computed_value"]
            if not abs(cell["computed"] - pinned) <= cell["tolerance"]:
                failures.append(f"{where}: {cell['computed']!r} is off its "
                                f"documented pin {pinned!r}")
        elif not cell["within_tolerance"]:
            failures.append(f"{where}: {cell['computed']!r} is off the paper "
                            f"value {cell['reference']!r}")
    return failures


def _partial_table(index: int, k: int, cells: dict) -> tables.TableResult:
    """Row ``k`` of a reference table with only ``cells`` computed."""
    fixture = tables.PAPER[index]
    return tables.TableResult(
        index=index, title=fixture["title"], columns=fixture["columns"],
        row_labels=[f"k={k}"],
        computed=[[cells.get(col) for col in fixture["columns"]]],
        reference=[fixture["rows"][k]], tolerances=fixture["tolerances"])


def check_cells(result, golden_rows) -> list[str]:
    """A partial table against the golden cells it computed, and the paper."""
    row = golden_rows[int(result.row_labels[0][2:]) - 1]
    gold = [want if value is not None else None
            for value, want in zip(result.computed[0], row)]
    return check_table(result, [gold])


class LfaWorkload:
    """Table 2 and one cell group each of tables 4 and 7, from the LFA alone.

    A whole pass of tables 2, 4 and 7 takes about a minute, too long to
    repeat within one run, so each pass reproduces table 2 whole, the
    table-4 lambda0 search for k = 2, Chebyshev, and the table-7 row k = 2
    in both coarse modes.  Both go through the public ``lfa`` calls the
    table pipelines make, with the same arguments.  Deterministic: no seed.
    """

    T4_K = 2
    T7_K = 2
    T7_PRESET = "isosceles-80"

    def __init__(self, golden: dict):
        self.golden = golden["lfa"]
        self.golden_modes = golden["lfa_modes"]["7"]
        self.jobs: list[Job] = []

    def setup(self) -> None:
        """The inputs are fixed: the two stencils and the sampling."""
        self.sampling = FrequencySampling()
        self.fd = build_fd_laplace(rectangular(1.0, 2))
        self.tri = build_fem_tri_laplace(*tables.TRI_PRESETS[self.T7_PRESET],
                                         1.0)

    def table2(self, job: Job) -> None:
        result = tables.reproduce_table(2, experiments=False)
        job.failures += check_table(result, self.golden["2"])

    def table4_cell(self, job: Job) -> None:
        """As tables.optimal_table computes its Chebyshev cells."""
        k = self.T4_K
        seed = SmootherSpec(CHEBYSHEV, tables.SMOOTHING_DEGREES[2][k],
                            tables.LAMBDA1_2D / 4, tables.LAMBDA1_2D)
        cfg = lfa.TwoGridConfig(stencil=self.fd, smoother=seed, k=k, nu1=1,
                                nu2=0, coarse_mode=REDISCRETIZED,
                                sampling=self.sampling)
        lam0, rho, _ = lfa.optimal_lambda0_two_grid(cfg)
        result = _partial_table(4, k, {"cheb_lambda0": lam0,
                                       "cheb_rho_lfa": rho})
        job.failures += check_cells(result, self.golden["4"])

    def table7_row(self, job: Job) -> None:
        """As tables.triangular_table computes one row, in both modes."""
        k, lam1 = self.T7_K, tables.LAMBDA1_ISOSCELES
        deg = tables.TRI_DEGREES[self.T7_PRESET][k]
        lam0, _ = symbols.lambda_bounds(self.tri, JACOBI, k, self.sampling)
        lam_star = polynomials.optimal_lambda0_smoothing(deg, lam0, lam1)
        cells = {"lambda0": lam0, "lambda0_star": lam_star}
        for col, spec in (
                ("ba", SmootherSpec(BA1X, deg, lam0, lam1)),
                ("ba_opt", SmootherSpec(BA1X, deg, lam_star, lam1)),
                ("chebyshev", SmootherSpec(CHEBYSHEV, deg, lam0, lam1))):
            want = self.golden_modes[f"k={k}/{col}"]
            rhos = {}
            for mode in (GALERKIN, REDISCRETIZED):
                cfg = lfa.TwoGridConfig(stencil=self.tri, smoother=spec, k=k,
                                        nu1=1, nu2=0, coarse_mode=mode,
                                        sampling=self.sampling)
                rhos[mode] = lfa.rho_two_grid(cfg)
                if not abs(rhos[mode] - want[mode]) <= GOLDEN_TOL:
                    job.failures.append(f"{col}/{mode}: {rhos[mode]!r} "
                                        f"drifted from golden {want[mode]!r}")
            cells[col] = rhos[GALERKIN]  # the table shows the Galerkin mode
        job.failures += check_cells(_partial_table(7, k, cells),
                                    self.golden["7"])

    def run_pass(self, tracer=None) -> list[float]:
        parts = []
        for label, run in (("table2", self.table2),
                           (f"table4/k={self.T4_K}/chebyshev",
                            self.table4_cell),
                           (f"table7/k={self.T7_K}", self.table7_row)):
            job = Job(label)
            self.jobs.append(job)
            t0 = perf_counter()
            try:
                run(job)
            except Exception:
                job.failures.append(_error_line())
            parts.append(perf_counter() - t0)
        return parts

    def check_trace(self, tracer) -> None:
        """The LFA runs no smoother, so there is no cost model to check."""

    def finish(self) -> None:
        """Cells are checked as each pass computes them."""


@dataclass
class Hierarchy(Job):
    """One multigrid hierarchy and its A-norm ratio sequence."""

    part: int = 0
    spec: CycleSpec | None = None
    n: int = 0
    dimension: int = 2
    cycles_per_pass: int = 1
    #: table column tolerance for the seed-independence check
    tolerance: float = 0.0
    golden: list[float] = field(default_factory=list)
    seed: int = DEFAULT_SEED
    mg: Multigrid | None = None
    sweeps: list[list[float]] = field(default_factory=list)
    spans: list[tuple[int, int]] = field(default_factory=list)

    def build(self, seed: int) -> None:
        """Multigrid construction plus the first cycle (lazy coarsest LU)."""
        self.seed = seed
        self.mg = Multigrid(self.spec, self.n, self.dimension)
        self.restart()
        self.step()

    def restart(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.e = rng.standard_normal(self.mg.shape)
        self.e /= self.mg.a_norm(self.e)
        self.zero = np.zeros_like(self.e)
        self.sweeps.append([])

    def step(self) -> None:
        """One iteration of measure_asymptotic_rate's loop."""
        if len(self.sweeps[-1]) >= len(self.golden):
            self.restart()
        ratios = self.sweeps[-1]
        self.e = self.mg.cycle(self.zero, self.e)
        nrm = self.mg.a_norm(self.e)
        ratios.append(nrm)
        if len(ratios) > 6 and nrm > 1.0 + 1e-6:
            raise RuntimeError(f"divergence at iteration {len(ratios) - 1}: "
                               f"ratio {nrm:.6f} > 1")
        self.e /= nrm

    def check(self) -> None:
        if self.seed == DEFAULT_SEED:
            for sweep in self.sweeps:
                drift = max((abs(a - b) for a, b in zip(sweep, self.golden)),
                            default=0.0)
                if not drift <= GOLDEN_TOL:
                    self.failures.append(
                        f"A-norm ratios drifted from golden by {drift:.3e}")
            return
        # the asymptotic rate does not depend on the seed: compare the
        # geometric mean over the last (up to) 10 ratios with the golden
        # default-seed sequence over the same iterations
        ratios = self.sweeps[-1]
        n = len(ratios)
        w = min(10, n)
        rate = math.exp(np.mean(np.log(ratios[n - w:])))
        want = math.exp(np.mean(np.log(self.golden[n - w:n])))
        if not abs(rate - want) <= self.tolerance:
            self.failures.append(
                f"rate {rate:.6f} over iterations {n - w}..{n - 1} is off "
                f"the default-seed rate {want:.6f} by more than "
                f"{self.tolerance}")


@dataclass
class Group:
    """Hierarchies sharing one LFA interval computation."""

    label: str
    lambdas: list[float]
    members: list[Hierarchy]


def vcycle_plan() -> list[Group]:
    """Table 5: V(1,1), rediscretized, 255^2 and 63^3, k = 1..3.

    Parts: 2D, 3D with k = 1 and 2, 3D with k = 3.  2D hierarchies run five
    cycles per pass and 3D ones one, so the 2D and 3D parts take comparable
    shares of a pass.
    """
    tolerances = tables.PAPER[5]["tolerances"]
    groups = []
    for dimension, n, lam1 in ((2, 255, tables.LAMBDA1_2D),
                               (3, 63, tables.LAMBDA1_3D)):
        stencil = build_fd_laplace(rectangular(1.0, dimension))
        for k in (1, 2, 3):
            deg = tables.SMOOTHING_DEGREES[dimension][k]
            lam0, _ = symbols.lambda_bounds(stencil, JACOBI, k)
            lam_star = polynomials.optimal_lambda0_smoothing(deg, lam0, lam1)
            group = Group(f"{dimension}d/k={k}", [lam0, lam_star], [])
            for col, spec in (
                    ("ba", SmootherSpec(BA1X, deg, lam0, lam1)),
                    ("ba_opt", SmootherSpec(BA1X, deg, lam_star, lam1)),
                    ("chebyshev", SmootherSpec(CHEBYSHEV, deg, lam0, lam1))):
                group.members.append(Hierarchy(
                    label=f"{group.label}/{col}",
                    part=0 if dimension == 2 else (1 if k < 3 else 2),
                    spec=CycleSpec(kind=V_CYCLE, k=k, smoother=spec, pre=1,
                                   post=1, coarse_mode=REDISCRETIZED),
                    n=n, dimension=dimension,
                    cycles_per_pass=5 if dimension == 2 else 1,
                    tolerance=tolerances[col]))
            groups.append(group)
    return groups


def twogrid_plan() -> list[Group]:
    """Table 3's cycle shapes: two-grid (1,0) and W(1,0) on 255^2, k = 1..3,
    ba1x and Chebyshev at lambda0, both coarse modes; plus the 63^3, k = 2
    two-grid pair in both modes.

    Parts: 2D rediscretized, 2D Galerkin, the 3D pair.  63^3, k = 1 two-grid
    is left out: its coarse factorisation alone takes seconds.
    """
    tolerances = tables.PAPER[3]["tolerances"]
    cases = [(2, 255, k, (TWO_GRID, W_CYCLE)) for k in (1, 2, 3)]
    cases.append((3, 63, 2, (TWO_GRID,)))
    groups = []
    for dimension, n, k, kinds in cases:
        stencil = build_fd_laplace(rectangular(1.0, dimension))
        lam1 = tables.LAMBDA1_2D if dimension == 2 else tables.LAMBDA1_3D
        deg = tables.SMOOTHING_DEGREES[dimension][k]
        lam0, _ = symbols.lambda_bounds(stencil, JACOBI, k)
        group = Group(f"{dimension}d/k={k}", [lam0], [])
        for family, col in ((BA1X, "ba_rho_w"), (CHEBYSHEV, "cheb_rho_w")):
            spec = SmootherSpec(family, deg, lam0, lam1)
            for kind in kinds:
                for mode in (REDISCRETIZED, GALERKIN):
                    group.members.append(Hierarchy(
                        label=f"{group.label}/{kind}/{family}/{mode}",
                        part=2 if dimension == 3 else
                        (0 if mode == REDISCRETIZED else 1),
                        spec=CycleSpec(kind=kind, k=k, smoother=spec, pre=1,
                                       post=0, coarse_mode=mode),
                        n=n, dimension=dimension, tolerance=tolerances[col]))
        groups.append(group)
    return groups


class HierarchyWorkload:
    """Advances every hierarchy of a plan by its cycles in each pass."""

    def __init__(self, name: str, plan, golden: dict, seed: int):
        self.plan = plan
        self.golden = golden[name]
        self.seed = seed
        self.jobs: list[Hierarchy] = []

    def setup(self) -> None:
        """LFA intervals, Multigrid construction and each first cycle."""
        self.jobs = []
        for group in self.plan():
            want = self.golden["lambdas"][group.label]
            drift = max(abs(a - b) for a, b in zip(group.lambdas, want))
            for h in group.members:
                if not drift <= GOLDEN_TOL:
                    h.failures.append(f"lambda bounds {group.lambdas} drifted "
                                      f"from golden {want}")
                h.golden = self.golden["ratios"][h.label]
                try:
                    h.build(self.seed)
                except Exception:
                    h.mg = None
                    h.failures.append(_error_line())
                self.jobs.append(h)

    def run_pass(self, tracer=None) -> list[float]:
        parts = [0.0] * PARTS
        for h in self.jobs:
            if h.mg is None:
                continue
            lo = tracer.mark() if tracer else 0
            t0 = perf_counter()
            try:
                for _ in range(h.cycles_per_pass):
                    h.step()
            except Exception:
                h.mg = None
                h.failures.append(_error_line())
            parts[h.part] += perf_counter() - t0
            if tracer:
                h.spans.append((lo, tracer.mark()))
        return parts

    def check_trace(self, tracer) -> None:
        """A degree-m smooth costs m + 1 operator applications (one residual
        plus m in the recurrence) on every matrix-free level."""
        for h in self.jobs:
            if h.spec.coarse_mode != REDISCRETIZED:
                continue
            want = h.spec.smoother.degree + 1
            counts = {int(c) for lo, hi in h.spans
                      for c in tracer.children_per_parent(
                          "multigrid.Multigrid.smooth",
                          "multigrid.apply_operator", lo, hi)}
            if counts != {want}:
                h.failures.append(f"operator applications per smooth "
                                  f"{sorted(counts)} != degree + 1 = {want}")

    def finish(self) -> None:
        for h in self.jobs:
            if h.sweeps:
                h.check()


def make_workload(name: str, golden: dict, seed: int):
    if name == "lfa":
        return LfaWorkload(golden)
    plan = {"vcycle": vcycle_plan, "twogrid": twogrid_plan}[name]
    return HierarchyWorkload(name, plan, golden, seed)

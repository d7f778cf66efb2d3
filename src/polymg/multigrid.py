"""Matrix-free geometric multigrid on the unit square/cube.

Dirichlet boundary, 2^p - 1 interior points per axis (lattice coordinates
on triangular grids), 2^k coarsening with the nested hat of
``stencils.transfer_factors`` that the LFA analyses, one polyphase pass
per factor; restriction is the adjoint scaled by 2^{-kd}.  A Galerkin
coarse stencil is R A P of one coarse hat (``galerkin_stencil``).  Every
level, Galerkin coarse levels included, is a stencil applied matrix-free
with one multiply per distinct coefficient, which rounds differently from
the entry-by-entry sum in the last bits.  The coarsest level is solved
exactly (``factor_coarsest``): in the discrete sine basis, which
diagonalizes the Dirichlet operator of an axis-even stencil (every
finite-difference level, rediscretized or Galerkin), and otherwise by
SuperLU on its assembled matrix.  Smoothers run the recurrence of
``polynomials.apply_q`` with X = R0 A, the coefficients and update the
Fourier symbols use, so a degree-m polynomial costs m operator
applications (m + 1 per smoothing step with its residual).

Inside a cycle, level vectors are padded: C-ordered ``padded_shape``
arrays (n + 2 per axis) whose one-cell halo is the zero Dirichlet
boundary.  Flattened, each stencil entry is one fixed offset
(``GridLevel.plan``), so ``apply_operator`` sums each coefficient group
over contiguous 1-D slices of the flat range from the first to the last
interior point, then zeroes the halo points in that range; element-wise
arithmetic keeps the halo zero, so the smoother recurrence runs as is.
The range is walked in blocks of ``CHUNK`` = 2^15 points, and a smoothing
step is one pass over them: each block of A v gets the step's update
((r - A v) / r0 and ``polynomials.recurrence_step``) while it is in
cache, as do the first residual and the cycle's f - A u, so no step
writes a full-size A v.  2^15 keeps a block's five operands (v, v_prev,
r, A v, scratch) in a 2 MiB L2 cache; 2^16 overflows it.  The update
comes in a context variable (``_fused``), so each application stays the
call ``apply_operator(level, u)`` that tracers count.  The public
API (``Multigrid.cycle``, ``a_norm``, ``measure_asymptotic_rate``) keeps
interior-shaped arrays.
"""

from __future__ import annotations

import itertools
import math
import time
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable, NamedTuple

import numpy as np

from .lfa import GALERKIN, REDISCRETIZED
from .polynomials import (SmootherSpec, is_admissible, recurrence,
                          recurrence_step)
from .stencils import (GridGeometry, Stencil, build_fd_laplace, rectangular,
                       transfer_factors, transfer_table)
from .symbols import JACOBI, preconditioner_symbol

TWO_GRID = "two-grid"
V_CYCLE = "v"
W_CYCLE = "w"
CYCLE_KINDS = (TWO_GRID, V_CYCLE, W_CYCLE)
#: points per block of ``apply_operator``'s flat range (see the docstring)
CHUNK = 2**15
#: epilogue(start, stop, block) of the running ``apply_operator``, or None
_EPILOGUE: ContextVar = ContextVar("epilogue", default=None)


class FlatPlan(NamedTuple):
    """Flat range [lo, hi) of the interior, (coefficient, flat offsets) per
    coefficient group, the halo points in the range and, per block length,
    each block's (start, stop, halo points less start)."""

    lo: int
    hi: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]
    halo: np.ndarray
    blocks: dict[int, list[tuple[int, int, np.ndarray]]]

    def split(self, chunk: int) -> list[tuple[int, int, np.ndarray]]:
        if chunk not in self.blocks:
            starts = range(self.lo, self.hi, chunk)
            cuts = np.searchsorted(self.halo, [*starts, self.hi])
            self.blocks[chunk] = [
                (s, min(s + chunk, self.hi), self.halo[a:b] - s)
                for s, a, b in zip(starts, cuts, cuts[1:])]
        return self.blocks[chunk]


@dataclass(frozen=True)
class GridLevel:
    """A grid level: interior extent and its operator's stencil."""

    shape: tuple[int, ...]
    stencil: Stencil

    def __post_init__(self):
        if len(self.shape) != self.stencil.geometry.dimension:
            raise ValueError(f"{len(self.shape)}D level with a "
                             f"{self.stencil.geometry.dimension}D stencil")
        # the operator is applied with a one-cell Dirichlet halo
        if any(abs(x) > 1 for o in self.stencil.offsets for x in o):
            raise ValueError("stencil offsets must lie in {-1, 0, 1}^d")

    @property
    def padded_shape(self) -> tuple[int, ...]:
        return tuple(s + 2 for s in self.shape)

    def pad(self, u: np.ndarray) -> np.ndarray:
        """An interior-shaped vector in the padded layout (ints as floats)."""
        if u.shape != self.shape:
            raise ValueError(f"vector shape {u.shape} != level shape "
                             f"{self.shape}")
        p = np.zeros(self.padded_shape, dtype=np.result_type(u, 1.0))
        self.interior(p)[...] = u
        return p

    def interior(self, p: np.ndarray) -> np.ndarray:
        """The interior view of a padded vector."""
        return p[(slice(1, -1),) * p.ndim]

    @cached_property
    def plan(self) -> FlatPlan:
        strides = [int(np.prod(self.padded_shape[i + 1:]))
                   for i in range(len(self.shape))]
        lo = sum(strides)
        hi = sum(n * s for n, s in zip(self.shape, strides)) + 1
        groups: dict[float, list[int]] = {}
        for offset, c in zip(self.stencil.offsets, self.stencil.coefficients):
            groups.setdefault(c, []).append(
                sum(o * s for o, s in zip(offset, strides)))
        terms = tuple((c, tuple(o)) for c, o in groups.items())
        halo = np.ones(self.padded_shape, dtype=bool)
        self.interior(halo)[...] = False
        return FlatPlan(lo, hi, terms,
                        lo + np.flatnonzero(halo.ravel()[lo:hi]), {})


@dataclass(frozen=True)
class CycleSpec:
    """Cycle shape and smoother for a multigrid run."""

    kind: str
    k: int
    smoother: SmootherSpec
    preconditioner: str = JACOBI
    pre: int = 1
    post: int = 1
    levels: int | None = None
    coarse_mode: str = REDISCRETIZED

    def __post_init__(self):
        if self.kind not in CYCLE_KINDS:
            raise ValueError(f"unknown cycle kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("coarsening exponent k must be >= 1")
        if self.levels is not None and self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if self.pre < 0 or self.post < 0:
            raise ValueError("smoothing counts must be >= 0")
        # a pure coarse-solve pass is only meaningful with an exact solve
        if self.kind != TWO_GRID and self.pre + self.post < 1:
            raise ValueError("multilevel cycles need pre + post >= 1")
        if self.coarse_mode not in (GALERKIN, REDISCRETIZED):
            raise ValueError(f"unknown coarse mode {self.coarse_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def make_grid_level(n: int, dimension: int,
                    stencil: Stencil | None = None) -> GridLevel:
    """Unit-domain level with n interior points per axis (h = 1/(n+1)):
    the FD Laplacian, or ``stencil`` rescaled to width h on its first axis."""
    if n < 1:
        raise ValueError("need at least one interior point per axis")
    h = 1.0 / (n + 1)
    if stencil is None:
        stencil = build_fd_laplace(rectangular(h, dimension))
    else:
        stencil = stencil.with_mesh_width(h / stencil.geometry.h[0])
    return GridLevel(shape=(n,) * dimension, stencil=stencil)


def apply_operator(level: GridLevel, u: np.ndarray) -> np.ndarray | None:
    """A u for a padded vector u, padded with a zero halo: per block of the
    flat range, each coefficient group is summed in place, scaled once and
    added up; inside ``_fused`` the block goes to the epilogue instead."""
    if u.shape != level.padded_shape:
        raise ValueError(f"vector shape {u.shape} != padded level shape "
                         f"{level.padded_shape}")
    lo, hi, terms, _, _ = plan = level.plan
    src = u.astype(np.result_type(u, 1.0), copy=False).ravel()  # ints: floats
    epilogue = _EPILOGUE.get()
    if epilogue is None:
        out = np.empty_like(src)
        out[:lo] = out[hi:] = 0.0
    block, scratch = np.empty((2, min(CHUNK, hi - lo)), dtype=src.dtype)
    for start, stop, halo in plan.split(CHUNK):
        dst = out[start:stop] if epilogue is None else block[:stop - start]
        tmp = scratch[:stop - start]
        for i, (c, (first, *rest)) in enumerate(terms):
            acc = tmp if i else dst
            if rest:
                np.add(src[start + first:stop + first],
                       src[start + rest[0]:stop + rest[0]], out=acc)
                for o in rest[1:]:
                    acc += src[start + o:stop + o]
                acc *= c
            else:
                np.multiply(src[start + first:stop + first], c, out=acc)
            if i:
                dst += tmp
        dst[halo] = 0.0
        if epilogue is not None:
            epilogue(start, stop, dst)
    return None if epilogue else out.reshape(level.padded_shape)


def _fused(level: GridLevel, u: np.ndarray, epilogue) -> None:
    """apply_operator(level, u) with ``epilogue`` set, then reset."""
    token = _EPILOGUE.set(epilogue)
    try:
        apply_operator(level, u)
    finally:
        _EPILOGUE.reset(token)


def assemble_matrix(level: GridLevel) -> "sp.csr_matrix":
    """Sparse matrix of the level operator, for SuperLU's coarsest solve of
    a stencil that is not axis-even."""
    import scipy.sparse as sp
    shape = level.shape
    size = int(np.prod(shape))
    idx = np.arange(size).reshape(shape)
    rows, cols, vals = [], [], []
    for offset, c in zip(level.stencil.offsets, level.stencil.coefficients):
        src = tuple(slice(max(0, -o), min(s, s - o))
                    for o, s in zip(offset, shape))
        dst = tuple(slice(max(0, o), min(s, s + o))
                    for o, s in zip(offset, shape))
        rows.append(idx[src].ravel())
        cols.append(idx[dst].ravel())
        vals.append(np.full(idx[src].size, c))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))


def splu(a, **options):
    """SciPy's sparse LU, imported on first use."""
    from scipy.sparse.linalg import splu as scipy_splu
    return scipy_splu(a, **options)


class CoarseSolver(NamedTuple):
    """An exact coarsest solve: ``solve(f)`` is A^{-1} f in f's shape
    (interior-shaped or flat); ``name`` is "sine" or "superlu"."""

    name: str
    solve: Callable[[np.ndarray], np.ndarray]


def is_axis_even(stencil: Stencil) -> bool:
    """Every offset negated on any one axis carries the ``==`` coefficient."""
    table = dict(zip(stencil.offsets, stencil.coefficients))
    return all(table.get(o[:a] + (-o[a],) + o[a + 1:], 0.0) == c
               for o, c in table.items() for a in range(len(o)))


def sine_solve(level: GridLevel) -> Callable[[np.ndarray], np.ndarray]:
    """A^{-1} f = Q (Q f / lambda) for an axis-even stencil.

    The sine basis diagonalizes its Dirichlet operator: Q is the
    orthonormal DST-I, sqrt(2/(n+1)) sin(pi j l/(n+1)), on every axis (its
    own inverse), and lambda_j = sum_o c_o prod_a cos(o_a theta_{j_a}),
    theta_j = pi j/(n+1).  Summed as sum_S b_S prod_{a in S} s_a with
    s = 1 - cos, b_S the exactly rounded sum of the c_o that move along
    every axis of S times (-1)^|S|, the smallest lambda does not cancel
    against the centre.  s is 2 sin^2(theta/2) below pi/2 and exactly 1 at
    pi/2, so a 1^d level's lambda is its centre coefficient.  Each axis is
    one matrix product on a 2-D reshape whose transpose brings the next
    axis first; ``ndarray.dot`` is the cheapest such call on tiny levels.
    """
    shape, entries = level.shape, list(zip(level.stencil.offsets,
                                           level.stencil.coefficients))
    q, s = {}, {}
    for n in set(shape):
        j = np.arange(1, n + 1)
        q[n] = np.sqrt(2.0 / (n + 1)) * np.sin(
            np.pi * (np.outer(j, j) % (2 * n + 2)) / (n + 1))
        s[n] = np.where(2 * j < n + 1,
                        2.0 * np.sin(np.pi * j / (2 * n + 2)) ** 2,
                        1.0 + np.sin(np.pi * (2 * j - n - 1) / (2 * n + 2)))
    lam = 0.0
    for moves in itertools.product((False, True), repeat=len(shape)):
        b = math.fsum(c for o, c in entries
                      if all(x or not m for x, m in zip(o, moves)))
        lam = lam + reduce(np.multiply, np.ix_(*(
            s[n] if m else np.ones(n) for n, m in zip(shape, moves))),
            -b if sum(moves) % 2 else b)
    if zeros := np.argwhere(lam == 0.0).tolist():
        raise ValueError(f"coarsest {shape} operator is singular: eigenvalue "
                         f"0 at sine mode {tuple(j + 1 for j in zeros[0])}")
    lam = lam.reshape(-1, shape[-1])  # the layout after d transforms
    axes = [q[n] for n in shape]

    def solve(f: np.ndarray) -> np.ndarray:
        x = f
        for qa in axes:
            x = qa.dot(x.reshape(len(qa), -1)).T
        x = x / lam
        for qa in axes:
            x = qa.dot(x.reshape(len(qa), -1)).T
        return x.reshape(f.shape)

    return solve


def factor_coarsest(level: GridLevel) -> CoarseSolver:
    """The exact coarsest solve: in the sine basis if the stencil is axis-
    even, else a sparse LU of the level's matrix.

    A stencil with a symmetric offset set gives a structurally symmetric
    matrix, so SuperLU's symmetric mode with a minimum-degree ordering of
    A^T + A fills in less than its default column ordering; the default
    threshold pivoting still factors non-symmetric stencils.
    """
    if is_axis_even(level.stencil):
        return CoarseSolver("sine", sine_solve(level))
    lu = splu(assemble_matrix(level).tocsc(), permc_spec="MMD_AT_PLUS_A",
              options=dict(SymmetricMode=True))
    return CoarseSolver(
        "superlu", lambda f: lu.solve(f.ravel()).reshape(f.shape))


@lru_cache(maxsize=32)
def _polyphase(factor: tuple[tuple[int, ...], ...], k: int) -> tuple:
    """A transfer factor's axes, the leading axes they move to, and per
    table entry (fine slices, weight): the fine points at the entry's
    offset from every coarse point of any extent."""
    m = 2**k
    axes, offsets, weights = transfer_table(factor, k)
    return axes, tuple(range(len(axes))), tuple(
        (tuple(slice(m - 1 + r, r - m + 1 or None, m) for r in offset), w)
        for offset, w in zip(offsets.tolist(), weights))


def prolongate(coarse: np.ndarray, k: int,
               geometry: GridGeometry) -> np.ndarray:
    """Interpolation by a factor 2^k: one polyphase pass per transfer factor."""
    m = 2**k
    out = coarse
    for factor in transfer_factors(geometry):
        axes, lead, taps = _polyphase(factor, k)
        cur = np.moveaxis(out, axes, lead)
        fine = np.zeros(tuple(m * (n + 1) - 1 for n in cur.shape[:len(axes)])
                        + cur.shape[len(axes):], dtype=cur.dtype)
        for index, w in taps:
            fine[index] += w * cur
        out = np.moveaxis(fine, lead, axes)
    return out


def restrict(fine: np.ndarray, k: int, geometry: GridGeometry) -> np.ndarray:
    """Full weighting: adjoint of prolongate scaled by 2^{-kd}."""
    m = 2**k
    out = fine
    for factor in transfer_factors(geometry):
        axes, lead, taps = _polyphase(factor, k)
        cur = np.moveaxis(out, axes, lead)
        nf = cur.shape[:len(axes)]
        if any((n + 1) % m or n < 2 * m - 1 for n in nf):
            raise ValueError(f"extent {nf} cannot be coarsened by 2^{k}")
        nc = tuple((n + 1) // m - 1 for n in nf)
        coarse = np.zeros(nc + cur.shape[len(axes):], dtype=cur.dtype)
        for index, w in taps:
            coarse += w * cur[index]
        out = np.moveaxis(coarse / float(m) ** len(axes), lead, axes)
    return out


def prolongation_matrix(coarse_shape: tuple[int, ...], k: int,
                        geometry: GridGeometry) -> "sp.csr_matrix":
    """Sparse interpolation matrix, ``prolongate`` of every coarse unit
    vector: unused by the package, a transfer-test oracle that the
    benchmark's tracer still looks up by name."""
    import scipy.sparse as sp
    size = int(np.prod(coarse_shape))
    columns = np.eye(size).reshape(tuple(coarse_shape) + (size,))
    return sp.csr_matrix(prolongate(columns, k, geometry).reshape(-1, size))


def galerkin_stencil(stencil: Stencil, k: int) -> Stencil:
    """Stencil of R A P: ``restrict``, ``apply_operator`` and ``prolongate``
    of the centre hat of a 3^d coarse grid.  Every coarse hat lies inside
    the fine interior and A couples only neighbours, so this column is the
    full-grid Galerkin operator's; offset o's coefficient is its entry 1 - o.
    """
    d, m, geometry = stencil.geometry.dimension, 2**k, stencil.geometry
    fine = GridLevel((4 * m - 1,) * d, stencil)
    hat = prolongate(np.pad(np.ones((1,) * d), 1), k, geometry)
    column = restrict(fine.interior(apply_operator(fine, fine.pad(hat))), k,
                      geometry)
    offsets, coefficients = zip(*(
        (o, float(c)) for o in itertools.product((-1, 0, 1), repeat=d)
        if (c := column[tuple(1 - x for x in o)]) != 0.0))
    return Stencil(geometry=stencil.with_mesh_width(m).geometry,
                   offsets=offsets, coefficients=coefficients)


class Multigrid:
    """A hierarchy of 2^k-coarsened levels running the configured cycle;
    ``stencil`` is the fine operator (default: the FD Laplacian)."""

    def __init__(self, spec: CycleSpec, n: int, dimension: int = 2, *,
                 stencil: Stencil | None = None):
        if dimension not in (2, 3):
            raise ValueError("solver supports 2D and 3D grids")
        if not is_admissible(spec.smoother):
            raise ValueError(
                "smoother is not convergent on (0, lambda1]; "
                "raise the degree or adjust the interval")
        self.spec = spec
        m = 2**spec.k
        depth = n if spec.levels is None else spec.levels
        if spec.kind == TWO_GRID:
            depth = min(depth, 2)
        self.levels = [make_grid_level(n, dimension, stencil)]
        size = n
        while len(self.levels) < depth and (size + 1) % m == 0 and size >= m:
            size = (size + 1) // m - 1
            fine = self.levels[-1].stencil
            coarse = galerkin_stencil(fine, spec.k) \
                if spec.coarse_mode == GALERKIN else fine.with_mesh_width(m)
            self.levels.append(GridLevel((size,) * dimension, coarse))
        if len(self.levels) < 2:
            raise ValueError(
                f"cannot coarsen a {n}^{dimension} grid by 2^{spec.k}")
        self._coarse_solver = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.levels[0].shape

    @property
    def coarse_solver(self) -> CoarseSolver:
        """The coarsest level's exact solve, built on first use."""
        if self._coarse_solver is None:
            self._coarse_solver = factor_coarsest(self.levels[-1])
        return self._coarse_solver

    def smooth(self, idx: int, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        """u + R (f - A u) on padded vectors of level ``idx``: ``apply_q``
        with X = R0 A, each step fused into its ``apply_operator``."""
        level = self.levels[idx]
        lo, hi = level.plan[:2]
        r0 = preconditioner_symbol(level.stencil, self.spec.preconditioner)
        gamma, steps = recurrence(self.spec.smoother)
        f_, u_ = f.reshape(-1), u.reshape(-1)
        r, v, v_prev = (np.empty(f_.size) for _ in range(3))
        v[:lo] = v[hi:] = v_prev[:lo] = v_prev[hi:] = 0.0

        def residual(s, t, au):  # v_{-1} = 0 in v_prev
            np.divide(np.subtract(f_[s:t], au, out=r[s:t]), r0, out=v[s:t])
            v[s:t] *= gamma
            v_prev[s:t] = 0.0
            if not steps:
                v[s:t] += u_[s:t]

        def step(s, t, av, j, v, v_prev):
            rbar = np.divide(np.subtract(r[s:t], av, out=av), r0, out=av)
            out = recurrence_step(*steps[j], v[s:t], v_prev[s:t], rbar)
            if j == len(steps) - 1:
                out += u_[s:t]

        _fused(level, u, residual)
        for j in range(len(steps)):
            _fused(level, v.reshape(level.padded_shape),
                   partial(step, j=j, v=v, v_prev=v_prev))
            v, v_prev = v_prev, v
        return v.reshape(level.padded_shape)

    def _cycle(self, idx: int, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        level = self.levels[idx]
        if idx == len(self.levels) - 1:
            return level.pad(self.coarse_solver.solve(level.interior(f)))
        for _ in range(self.spec.pre):
            u = self.smooth(idx, f, u)
        r, f_ = np.empty(f.size), f.reshape(-1)  # f - A u on the flat range
        _fused(level, u, lambda s, t, au: np.subtract(f_[s:t], au, out=r[s:t]))
        geometry, coarse = level.stencil.geometry, self.levels[idx + 1]
        rc = coarse.pad(restrict(level.interior(r.reshape(f.shape)),
                                 self.spec.k, geometry))
        ec = np.zeros_like(rc)
        passes = 2 if self.spec.kind == W_CYCLE else 1
        for _ in range(passes):
            ec = self._cycle(idx + 1, rc, ec)
        u = u.copy()
        level.interior(u)[...] += prolongate(coarse.interior(ec),
                                             self.spec.k, geometry)
        for _ in range(self.spec.post):
            u = self.smooth(idx, f, u)
        return u

    def cycle(self, rhs: np.ndarray, u0: np.ndarray) -> np.ndarray:
        """One multigrid iteration for A u = rhs starting from u0."""
        if rhs.shape != self.shape or u0.shape != self.shape:
            raise ValueError("rhs/u0 shape does not match the fine grid")
        fine = self.levels[0]
        return np.ascontiguousarray(fine.interior(
            self._cycle(0, fine.pad(rhs), fine.pad(u0))))

    def a_norm(self, u: np.ndarray) -> float:
        fine = self.levels[0]
        au = fine.interior(apply_operator(fine, fine.pad(u)))
        # a pairwise sum: BLAS ddot would split it by the thread count
        return float(np.sqrt(np.sum(u * au)))


@dataclass
class RateReport:
    """Asymptotic-rate measurement with its full provenance."""

    rate: float
    iterations: int = 0
    seed: int = 0
    n: int = 0
    dimension: int = 2
    spec: dict | None = None
    seconds: float = 0.0  # wall time of the cycle loop
    tail_log_spread: float | None = None  # max - min of the logs rate averages
    coarsest_solver: str = ""  # CoarseSolver.name: "sine" or "superlu"
    coarsest_shape: str = ""  # the coarsest level's extents, as "15x15"
    ratios: list[float] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return asdict(self)


def measure_asymptotic_rate(spec: CycleSpec, n: int, dimension: int = 2,
                            iterations: int = 100, seed: int = 1234, *,
                            stencil: Stencil | None = None) -> RateReport:
    """Per-iteration A-norm ratios on the homogeneous problem.

    Starts from a fixed-seed random error, renormalizes every iteration to
    dodge underflow, and returns the geometric mean of the last 10 ratios.
    Any ratio above 1 + 1e-6 after the 5th iteration aborts with the
    offending index.  ``stencil`` is the fine operator.
    """
    if iterations < 30:
        raise ValueError("need at least 30 iterations for an asymptotic rate")
    mg = Multigrid(spec, n, dimension, stencil=stencil)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(mg.shape)
    e /= mg.a_norm(e)
    zero = np.zeros_like(e)
    ratios = []
    start = time.perf_counter()
    for it in range(iterations):
        e = mg.cycle(zero, e)
        nrm = mg.a_norm(e)
        ratios.append(nrm)
        if it > 5 and nrm > 1.0 + 1e-6:
            raise RuntimeError(
                f"divergence at iteration {it}: ratio {nrm:.6f} > 1")
        if nrm == 0.0:
            break
        e /= nrm
    seconds = time.perf_counter() - start
    logs = np.log(ratios[-10:])
    spread = float(np.ptp(logs)) if np.isfinite(logs).all() else None
    return RateReport(rate=float(np.exp(np.mean(logs))), ratios=ratios,
                      iterations=iterations, seed=seed, n=n,
                      dimension=dimension, spec=spec.to_dict(),
                      seconds=seconds, tail_log_spread=spread,
                      coarsest_solver=mg.coarse_solver.name,
                      coarsest_shape="x".join(map(str, mg.levels[-1].shape)))

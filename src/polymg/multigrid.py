"""Matrix-free geometric multigrid on the unit square/cube.

Dirichlet boundary, interior-only vectors with 2^p - 1 points per axis
(lattice coordinates on triangular grids), 2^k coarsening with the nested
hat of ``stencils.transfer_factors`` that the LFA analyses, one polyphase
pass per factor; restriction is the adjoint scaled by 2^{-kd}.
Every level, Galerkin coarse levels included, is a stencil applied
matrix-free with one multiply per distinct coefficient, which rounds
differently from the entry-by-entry sum in the last bits; only the
coarsest is assembled, for its LU.  Smoothers run
the recurrence of ``polynomials.apply_q`` with X = R0 A, the same code the
Fourier symbols use, so a degree-m polynomial costs m operator
applications (m + 1 per smoothing step with its residual).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .lfa import GALERKIN, REDISCRETIZED
from .polynomials import SmootherSpec, apply_q, is_admissible
from .stencils import (GridGeometry, Stencil, build_fd_laplace, rectangular,
                       transfer_factors, transfer_table)
from .symbols import JACOBI, preconditioner_symbol

TWO_GRID = "two-grid"
V_CYCLE = "v"
W_CYCLE = "w"
CYCLE_KINDS = (TWO_GRID, V_CYCLE, W_CYCLE)


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
    def h(self) -> tuple[float, ...]:
        return self.stencil.geometry.h

    @cached_property
    def terms(self) -> tuple[tuple[float, tuple[tuple[slice, ...], ...]], ...]:
        """(coefficient, haloed-vector slices) per distinct coefficient."""
        groups: dict[float, list[tuple[slice, ...]]] = {}
        for offset, c in zip(self.stencil.offsets, self.stencil.coefficients):
            groups.setdefault(c, []).append(tuple(
                slice(1 + o, 1 + o + s) for o, s in zip(offset, self.shape)))
        return tuple((c, tuple(slices)) for c, slices in groups.items())


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
        if self.pre < 0 or self.post < 0:
            raise ValueError("smoothing counts must be >= 0")
        # a pure coarse-solve pass is only meaningful with an exact solve
        if self.kind != TWO_GRID and self.pre + self.post < 1:
            raise ValueError("multilevel cycles need pre + post >= 1")
        if self.coarse_mode not in (GALERKIN, REDISCRETIZED):
            raise ValueError(f"unknown coarse mode {self.coarse_mode!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "k": self.k,
                "smoother": self.smoother.to_dict(),
                "preconditioner": self.preconditioner,
                "pre": self.pre, "post": self.post, "levels": self.levels,
                "coarse_mode": self.coarse_mode}


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


def apply_operator(level: GridLevel, u: np.ndarray) -> np.ndarray:
    """Matrix-free stencil application with a zero Dirichlet halo; each
    coefficient group is summed in place, scaled once and added up."""
    if u.shape != level.shape:
        raise ValueError(f"vector shape {u.shape} != level shape {level.shape}")
    padded = np.zeros(tuple(s + 2 for s in u.shape),
                      dtype=np.result_type(u, 1.0))  # ints give floats
    padded[(slice(1, -1),) * u.ndim] = u
    out = scratch = None
    for c, (first, *rest) in level.terms:
        if rest:
            scratch = np.add(padded[first], padded[rest[0]], out=scratch)
            for sl in rest[1:]:
                scratch += padded[sl]
            scratch *= c
        else:
            scratch = np.multiply(padded[first], c, out=scratch)
        if out is None:
            out, scratch = scratch, None
        else:
            out += scratch
    return out


def assemble_matrix(level: GridLevel) -> sp.csr_matrix:
    """Sparse matrix of the level operator (coarsest LU, Galerkin probe)."""
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
                        geometry: GridGeometry) -> sp.csr_matrix:
    """Sparse interpolation matrix of a small grid (the Galerkin probe):
    ``prolongate`` of every coarse unit vector, one column each."""
    size = int(np.prod(coarse_shape))
    columns = np.eye(size).reshape(tuple(coarse_shape) + (size,))
    return sp.csr_matrix(prolongate(columns, k, geometry).reshape(-1, size))


def galerkin_stencil(stencil: Stencil, k: int) -> Stencil:
    """Stencil of P^T A P / 2^{kd}: the centre row on a 3^d coarse probe grid.

    Every coarse hat lies inside the fine interior and A couples only
    neighbours, so the full-grid Galerkin matrix is this stencil truncated
    at the Dirichlet boundary.
    """
    d, m = stencil.geometry.dimension, 2**k
    p = prolongation_matrix((3,) * d, k, stencil.geometry)
    probe = assemble_matrix(GridLevel((4 * m - 1,) * d, stencil))
    row = ((p.T @ probe @ p)[3**d // 2] / float(m**d)).toarray().ravel()
    offsets, coefficients = zip(*(
        (o, float(c)) for o, c in
        zip(itertools.product((-1, 0, 1), repeat=d), row) if c != 0.0))
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
        self._lu = None  # of the coarsest level, factored on first use

    @property
    def shape(self) -> tuple[int, ...]:
        return self.levels[0].shape

    def smooth(self, idx: int, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        level = self.levels[idx]
        au = apply_operator(level, u)
        out = _apply_polynomial(level, self.spec.smoother,
                                self.spec.preconditioner,
                                np.subtract(f, au, out=au))
        out += u
        return out

    def _cycle(self, idx: int, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        if idx == len(self.levels) - 1:
            if self._lu is None:
                self._lu = splu(assemble_matrix(self.levels[-1]).tocsc())
            return self._lu.solve(f.ravel()).reshape(f.shape)
        for _ in range(self.spec.pre):
            u = self.smooth(idx, f, u)
        residual = apply_operator(self.levels[idx], u)
        np.subtract(f, residual, out=residual)
        geometry = self.levels[idx].stencil.geometry
        rc = restrict(residual, self.spec.k, geometry)
        ec = np.zeros_like(rc)
        passes = 2 if self.spec.kind == W_CYCLE else 1
        for _ in range(passes):
            ec = self._cycle(idx + 1, rc, ec)
        u = u + prolongate(ec, self.spec.k, geometry)
        for _ in range(self.spec.post):
            u = self.smooth(idx, f, u)
        return u

    def cycle(self, rhs: np.ndarray, u0: np.ndarray) -> np.ndarray:
        """One multigrid iteration for A u = rhs starting from u0."""
        if rhs.shape != self.shape or u0.shape != self.shape:
            raise ValueError("rhs/u0 shape does not match the fine grid")
        return self._cycle(0, rhs, u0)

    def a_norm(self, u: np.ndarray) -> float:
        au = apply_operator(self.levels[0], u)
        return float(np.sqrt(np.vdot(u, au).real))


def _apply_polynomial(level: GridLevel, spec: SmootherSpec,
                      preconditioner: str, r: np.ndarray) -> np.ndarray:
    """R r = q(R0 A) R0 r: ``degree`` operator applications."""
    r0 = preconditioner_symbol(level.stencil, preconditioner)
    def residual(v: np.ndarray) -> np.ndarray:  # (r - A v) / r0, in place
        av = apply_operator(level, v)
        return np.divide(np.subtract(r, av, out=av), r0, out=av)

    return apply_q(spec, r / r0, residual)


def apply_smoother(level: GridLevel, spec: SmootherSpec, preconditioner: str,
                   r: np.ndarray) -> np.ndarray:
    """Standalone smoother application R r on one level."""
    if not is_admissible(spec):
        raise ValueError("inadmissible smoother spec (max |e| >= 1)")
    return _apply_polynomial(level, spec, preconditioner, r)


@dataclass
class RateReport:
    """Asymptotic-rate measurement with its full provenance."""

    rate: float
    ratios: list[float] = field(repr=False)
    iterations: int = 0
    seed: int = 0
    n: int = 0
    dimension: int = 2
    spec: dict | None = None

    def to_dict(self) -> dict:
        return {"rate": self.rate, "iterations": self.iterations,
                "seed": self.seed, "n": self.n, "dimension": self.dimension,
                "spec": self.spec, "ratios": self.ratios}


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
    tail = ratios[-10:]
    rate = float(np.exp(np.mean(np.log(tail))))
    return RateReport(rate=rate, ratios=ratios, iterations=iterations,
                      seed=seed, n=n, dimension=dimension,
                      spec=spec.to_dict())

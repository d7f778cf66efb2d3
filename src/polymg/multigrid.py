"""Matrix-free geometric multigrid on the unit square/cube.

Dirichlet boundary, interior-only vectors with 2^p - 1 points per axis,
2^k coarsening with piecewise-multilinear transfers (hat weights
1 - |j|/2^k per axis; restriction is the adjoint scaled by 2^{-kd}).
Smoothers run the recurrence of ``polynomials.apply_q`` with X = R0 A, the
same code the Fourier symbols use, so a degree-m polynomial costs m
operator applications (m + 1 per smoothing step with its residual).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .lfa import GALERKIN, REDISCRETIZED
from .polynomials import SmootherSpec, apply_q, is_admissible
from .stencils import Stencil, build_fd_laplace, rectangular
from .symbols import JACOBI, preconditioner_symbol

TWO_GRID = "two-grid"
V_CYCLE = "v"
W_CYCLE = "w"
CYCLE_KINDS = (TWO_GRID, V_CYCLE, W_CYCLE)


@dataclass(frozen=True)
class GridLevel:
    """A rectangular level: interior extent, mesh width, and its stencil."""

    shape: tuple[int, ...]
    h: tuple[float, ...]
    stencil: Stencil

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


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


def make_grid_level(n: int, dimension: int) -> GridLevel:
    """Unit-domain level with n interior points per axis (h = 1/(n+1))."""
    if n < 1:
        raise ValueError("need at least one interior point per axis")
    h = 1.0 / (n + 1)
    geometry = rectangular(h, dimension)
    return GridLevel(shape=(n,) * dimension, h=(h,) * dimension,
                     stencil=build_fd_laplace(geometry))


def apply_operator(level: GridLevel, u: np.ndarray) -> np.ndarray:
    """Matrix-free stencil application with a zero Dirichlet halo."""
    if u.shape != level.shape:
        raise ValueError(f"vector shape {u.shape} != level shape {level.shape}")
    padded = np.pad(u, 1)
    out = np.zeros_like(u)
    d = u.ndim
    for offset, c in zip(level.stencil.offsets, level.stencil.coefficients):
        sl = tuple(slice(1 + o, 1 + o + level.shape[ax])
                   for ax, o in enumerate(offset[:d]))
        out += c * padded[sl]
    return out


def assemble_matrix(level: GridLevel) -> sp.csr_matrix:
    """Sparse matrix of the level operator (coarsest solves, Galerkin)."""
    shape = level.shape
    size = level.size
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


def hat_weights(k: int) -> np.ndarray:
    """1D transfer weights (1 - |j|/2^k) for j = -(2^k - 1) .. 2^k - 1."""
    m = 2**k
    j = np.arange(-m + 1, m)
    return 1.0 - np.abs(j) / m


def prolongate(coarse: np.ndarray, k: int) -> np.ndarray:
    """Multilinear interpolation by a factor 2^k (tensor hat weights)."""
    m = 2**k
    w = hat_weights(k)
    out = coarse
    for axis in range(coarse.ndim):
        cur = np.moveaxis(out, axis, 0)
        nc = cur.shape[0]
        nf = m * (nc + 1) - 1
        fine = np.zeros((nf,) + cur.shape[1:], dtype=cur.dtype)
        for r, wr in zip(range(-m + 1, m), w):
            fine[m - 1 + r::m][:nc] += wr * cur
        out = np.moveaxis(fine, 0, axis)
    return out


def restrict(fine: np.ndarray, k: int) -> np.ndarray:
    """Full weighting: adjoint of prolongate scaled by 2^{-k} per axis."""
    m = 2**k
    w = hat_weights(k)
    out = fine
    for axis in range(fine.ndim):
        cur = np.moveaxis(out, axis, 0)
        nf = cur.shape[0]
        if (nf + 1) % m:
            raise ValueError(f"axis extent {nf} incompatible with 2^{k} coarsening")
        nc = (nf + 1) // m - 1
        if nc < 1:
            raise ValueError("grid too small to restrict")
        coarse = np.zeros((nc,) + cur.shape[1:], dtype=cur.dtype)
        for r, wr in zip(range(-m + 1, m), w):
            coarse += wr * cur[m - 1 + r::m][:nc]
        out = np.moveaxis(coarse / m, 0, axis)
    return out


def prolongation_matrix(coarse_shape: tuple[int, ...], k: int) -> sp.csr_matrix:
    """Sparse multilinear interpolation matrix (Galerkin coarse assembly)."""
    m = 2**k
    w = hat_weights(k)
    mats = []
    for nc in coarse_shape:
        nf = m * (nc + 1) - 1
        p = sp.lil_matrix((nf, nc))
        for col in range(nc):
            center = m * (col + 1) - 1
            for r, wr in zip(range(-m + 1, m), w):
                p[center + r, col] = wr
        mats.append(p.tocsr())
    out = mats[0]
    for p in mats[1:]:
        out = sp.kron(out, p, format="csr")
    return out


class _Level:
    """Operator + smoother workspace for one level of the hierarchy."""

    def __init__(self, level: GridLevel, matrix: sp.csr_matrix | None = None):
        self.level = level
        self.matrix = matrix  # set for Galerkin coarse levels
        if matrix is None:
            self.diag = preconditioner_symbol(level.stencil, JACOBI)
        else:
            self.diag = None
        self.lu = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.level.shape

    def apply(self, u: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return (self.matrix @ u.ravel()).reshape(u.shape)
        return apply_operator(self.level, u)

    def r0(self, preconditioner: str, u: np.ndarray) -> np.ndarray:
        """Apply the diagonal preconditioner R0."""
        if self.matrix is not None:
            d = self.matrix.diagonal()
            if preconditioner == JACOBI:
                scale = d
            else:
                scale = np.asarray(np.abs(self.matrix).sum(axis=1)).ravel() \
                    + d - np.abs(d)
            return (u.ravel() / scale).reshape(u.shape)
        return u / preconditioner_symbol(self.level.stencil, preconditioner)

    def solve(self, f: np.ndarray) -> np.ndarray:
        if self.lu is None:
            a = self.matrix if self.matrix is not None \
                else assemble_matrix(self.level)
            self.lu = splu(a.tocsc())
        return self.lu.solve(f.ravel()).reshape(f.shape)


class Multigrid:
    """A hierarchy of 2^k-coarsened levels running the configured cycle."""

    def __init__(self, spec: CycleSpec, n: int, dimension: int = 2):
        if dimension not in (2, 3):
            raise ValueError("solver supports 2D and 3D grids")
        if not is_admissible(spec.smoother):
            raise ValueError(
                "smoother is not convergent on (0, lambda1]; "
                "raise the degree or adjust the interval")
        self.spec = spec
        m = 2**spec.k
        sizes = [n]
        while (sizes[-1] + 1) % m == 0 and (sizes[-1] + 1) // m - 1 >= 1:
            if spec.levels is not None and len(sizes) >= spec.levels:
                break
            if spec.kind == TWO_GRID and len(sizes) >= 2:
                break
            sizes.append((sizes[-1] + 1) // m - 1)
        if len(sizes) < 2:
            raise ValueError(
                f"cannot coarsen a {n}^{dimension} grid by 2^{spec.k}")
        self.levels: list[_Level] = [
            _Level(make_grid_level(s, dimension)) for s in sizes]
        if spec.coarse_mode == GALERKIN:
            fine = assemble_matrix(self.levels[0].level)
            mats = [fine]
            for lev in self.levels[1:]:
                p = prolongation_matrix(lev.shape, spec.k)
                mats.append((p.T @ mats[-1] @ p).tocsr() / float(m**dimension))
            self.levels = [self.levels[0]] + [
                _Level(lev.level, matrix=mat)
                for lev, mat in zip(self.levels[1:], mats[1:])]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.levels[0].shape

    def smooth(self, idx: int, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        lev = self.levels[idx]
        r = f - lev.apply(u)
        return u + _apply_polynomial(lev, self.spec.smoother,
                                     self.spec.preconditioner, r)

    def _cycle(self, idx: int, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        if idx == len(self.levels) - 1:
            return self.levels[idx].solve(f)
        for _ in range(self.spec.pre):
            u = self.smooth(idx, f, u)
        residual = f - self.levels[idx].apply(u)
        rc = restrict(residual, self.spec.k)
        ec = np.zeros_like(rc)
        passes = 2 if self.spec.kind == W_CYCLE else 1
        for _ in range(passes):
            ec = self._cycle(idx + 1, rc, ec)
        u = u + prolongate(ec, self.spec.k)
        for _ in range(self.spec.post):
            u = self.smooth(idx, f, u)
        return u

    def cycle(self, rhs: np.ndarray, u0: np.ndarray) -> np.ndarray:
        """One multigrid iteration for A u = rhs starting from u0."""
        if rhs.shape != self.shape or u0.shape != self.shape:
            raise ValueError("rhs/u0 shape does not match the fine grid")
        return self._cycle(0, rhs, u0)

    def a_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.vdot(u, self.levels[0].apply(u)).real))


def _apply_polynomial(lev: _Level, spec: SmootherSpec, preconditioner: str,
                      r: np.ndarray) -> np.ndarray:
    """R r = q(R0 A) R0 r: ``degree`` operator applications."""
    return apply_q(spec, lev.r0(preconditioner, r),
                   lambda v: lev.r0(preconditioner, r - lev.apply(v)))


def apply_smoother(level: GridLevel, spec: SmootherSpec, preconditioner: str,
                   r: np.ndarray) -> np.ndarray:
    """Standalone smoother application R r on one level."""
    if not is_admissible(spec):
        raise ValueError("inadmissible smoother spec (max |e| >= 1)")
    return _apply_polynomial(_Level(level), spec, preconditioner, r)


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
                            iterations: int = 100, seed: int = 1234,
                            ) -> RateReport:
    """Per-iteration A-norm ratios on the homogeneous problem.

    Starts from a fixed-seed random error, renormalizes every iteration to
    dodge underflow, and returns the geometric mean of the last 10 ratios.
    Any ratio above 1 + 1e-6 after the 5th iteration aborts with the
    offending index.
    """
    if iterations < 30:
        raise ValueError("need at least 30 iterations for an asymptotic rate")
    mg = Multigrid(spec, n, dimension)
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

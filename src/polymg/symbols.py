"""Fourier symbols, frequency sampling, and the LFA eigenvalue bounds.

Frequencies are phases theta = omega h in (-pi, pi]^d, so the mesh width
enters only through the stencil's coefficients; for triangular geometry
the components are reciprocal-basis phases, so every formula below treats
both geometries identically.  Coarsening by 2^k declares the centered box
of half-width pi/2^k "low"; everything else is "high".

Scale.  X~ depends only on ratios of coefficients, so ``lambda_bounds``
and the ``lfa`` analyses read ``Stencil.normalized()``, whose centre is in
[1/2, 2): bitwise the same numbers in the normal range.

Local searches.  Both LFA polishes, lambda1's here and the two-grid
factor's in ``lfa``, run one Nelder-Mead: SciPy's non-adaptive method step
for step, as a coroutine (``_nelder_mead``).  ``lockstep_minimize`` drives
any number of them together, one objective call per round for every
search's pending points, and returns SciPy's values exactly when the
objective is batch-invariant: a point's value does not depend on the batch
it is evaluated in.  The symbol is batch-invariant when each point is
its own matvec row, as in ``_polish_max`` and ``_face_minima``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .stencils import GridGeometry, Stencil

JACOBI = "jacobi"
L1_JACOBI = "l1_jacobi"
PRECONDITIONERS = (JACOBI, L1_JACOBI)

#: symmetric stencils must produce symbols with imaginary part below this
#: multiple of the coefficient magnitudes' sum, which bounds the symbol
REAL_SYMBOL_TOL = 1e-12
#: shift, in lattice steps, of the sampled lattice off theta = 0
OFFSET_FRACTION = 0.5
#: lattice points per symbol evaluation of ``_lattice_x``
LATTICE_SLAB = 2**15
#: points per free axis of the lambda0 face search's grid (odd: the
#: incumbent is one of them), and the window below which the search stops
FACE_GRID = 9
FACE_XTOL = 1e-12


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: how the LFA caches share their arrays."""
    array.flags.writeable = False
    return array


def symbol_terms(stencil: Stencil) -> tuple[np.ndarray, np.ndarray]:
    """The frequency-free part of the symbol: (offsets, complex coefficients).

    The offsets are the stencil's integer lattice offsets, paired with phases.
    """
    return (np.asarray(stencil.offsets, dtype=float),
            np.asarray(stencil.coefficients, dtype=complex))


def fourier_sum(theta: np.ndarray, offsets: np.ndarray,
                coefficients: np.ndarray) -> np.ndarray:
    """sum_j c_j exp(i theta . offset_j) over the last axis of theta (..., d)."""
    return np.exp(1j * (theta @ offsets.T)) @ coefficients


def evaluate_symbol(stencil: Stencil, theta: np.ndarray) -> np.ndarray:
    """Symbol sum_j c_j exp(i theta . offset_j) at phases theta.

    ``theta`` has shape (..., d); the result drops the last axis.
    """
    return fourier_sum(np.asarray(theta, dtype=float), *symbol_terms(stencil))


def preconditioner_symbol(stencil: Stencil, kind: str) -> float:
    """Constant-coefficient diagonal preconditioner: a scalar.

    Jacobi uses the center coefficient; l1-Jacobi adds the absolute
    off-center mass.
    """
    if kind not in PRECONDITIONERS:
        raise ValueError(f"unknown preconditioner {kind!r}")
    center = stencil.center
    if kind == JACOBI:
        return center
    off = [c for o, c in zip(stencil.offsets, stencil.coefficients)
           if any(o)]
    return center + float(np.sum(np.abs(off)))


def preconditioned_symbol(stencil: Stencil, kind: str,
                          theta: np.ndarray) -> np.ndarray:
    """Symbol of [A_h^+]^{-1} A_h; real for symmetric stencils."""
    s = evaluate_symbol(stencil, theta)
    worst = float(np.max(np.abs(s.imag))) if s.size else 0.0
    if worst > REAL_SYMBOL_TOL * float(np.sum(np.abs(stencil.coefficients))):
        raise ValueError(
            f"symbol has imaginary part {worst:.2e}; preconditioned analysis "
            "requires a symmetric stencil"
        )
    return s.real / preconditioner_symbol(stencil, kind)


@dataclass(frozen=True)
class FrequencySampling:
    """Uniform lattice resolution for LFA sweeps.

    ``samples_per_axis`` must be a multiple of 2^k for every coarsening
    ratio used so the low/high cutoff lands on sample boundaries.
    """

    samples_per_axis: int = 64

    def __post_init__(self):
        if self.samples_per_axis < 2:
            raise ValueError("need at least two samples per axis")

    def validate_ratio(self, k: int) -> None:
        if k < 1:
            raise ValueError("coarsening exponent k must be >= 1")
        if self.samples_per_axis % 2**k:
            raise ValueError(
                f"samples_per_axis={self.samples_per_axis} is not a multiple "
                f"of 2^{k}"
            )


def _ticks(n: int, shift: float) -> np.ndarray:
    """The axis -pi + (j + shift) 2 pi/n, j = 0..n-1."""
    return -np.pi + (2 * np.pi / n) * (np.arange(n) + shift)


def _lattice_points(ticks: np.ndarray, dimension: int,
                    flat: np.ndarray | int) -> np.ndarray:
    """The points at C-order indices ``flat`` of the d-fold tensor product
    of ``ticks``, shape flat.shape + (d,)."""
    index = np.unravel_index(flat, (len(ticks),) * dimension)
    return ticks[np.stack(index, axis=-1)]


@lru_cache(maxsize=4)
def _lattice_x(stencil: Stencil, kind: str,
               sampling: FrequencySampling) -> tuple[np.ndarray, float]:
    """X~ on the inclusive lattice over (-pi, pi]^d, which contains 0 and
    pi, in C order (read-only), and its minimum.

    The lattice is never built: each ``LATTICE_SLAB`` of its points is
    formed from the axis ticks and evaluated on its own, so the complex
    (points x offsets) temporaries stay a few MB at any sampling.  Each
    point is its own matvec row, so X~ is bitwise the one-shot sweep's,
    and the imaginary-part check fails whenever its maximum over all slabs
    does.
    """
    n, d = sampling.samples_per_axis, stencil.geometry.dimension
    ticks = _ticks(n, 1.0)
    x = np.concatenate([
        preconditioned_symbol(stencil, kind, _lattice_points(
            ticks, d, np.arange(start, min(start + LATTICE_SLAB, n**d))))
        for start in range(0, n**d, LATTICE_SLAB)])
    return read_only(x), float(np.min(x))


@lru_cache(maxsize=16)
def high_closure_values(stencil: Stencil, kind: str,
                        sampling: FrequencySampling, k: int) -> np.ndarray:
    """Sorted distinct X~ over the high closure of the lattice (read-only)."""
    x, _ = _lattice_x(stencil, kind, sampling)
    mask = lattice_high_closure(stencil.geometry.dimension,
                                sampling.samples_per_axis, k)
    return read_only(np.unique(x[mask]))


def lattice_high_closure(dimension: int, n: int, k: int) -> np.ndarray:
    """``high_closure_mask`` over the inclusive lattice, from its ticks.

    A point's largest |theta_i| reaches the threshold exactly when one of
    its coordinates does, so the mask is the union over the axes of each
    axis's ticks' test, broadcast without building the lattice.
    """
    high = high_closure_mask(k, _ticks(n, 1.0)[:, None])
    mask = np.zeros((n,) * dimension, dtype=bool)
    for axis in range(dimension):
        mask |= high.reshape((n,) + (1,) * (dimension - 1 - axis))
    return mask.ravel()


def high_closure_mask(k: int, theta: np.ndarray) -> np.ndarray:
    """Closure of the high-frequency region (keeps the low-box boundary)."""
    return np.max(np.abs(theta) / (np.pi / 2**k), axis=-1) >= 1.0 - 1e-12


def sample_frequencies(geometry: GridGeometry, k: int,
                       sampling: FrequencySampling) -> np.ndarray:
    """The low box of the offset uniform lattice over (-pi, pi]^d.

    The lattice is shifted by OFFSET_FRACTION of a step so theta = 0 is
    never sampled; exactly (N/2^k)^d samples land in the low box, the
    half-open (-b, b]^d with b = pi/2^k, and they are returned in the
    lattice's C order as the tensor product of the in-box ticks.
    """
    sampling.validate_ratio(k)
    ticks = _ticks(sampling.samples_per_axis, OFFSET_FRACTION)
    b = np.pi / 2**k
    eps = 1e-12 * b
    inside = ticks[(ticks > -b - eps) & (ticks <= b + eps)]
    return _lattice_points(inside, geometry.dimension,
                           np.arange(len(inside)**geometry.dimension))


def _polish_max(stencil: Stencil, kind: str, theta0: np.ndarray,
                k: int | None = None) -> float:
    """Local refinement of max |X~| from a lattice seed (torus); with ``k``,
    points strictly inside the low box of 2^k coarsening never count.
    One Nelder-Mead search, each point its own matvec row."""
    def negated(points):
        t = np.array(points)
        values = -np.abs(preconditioned_symbol(stencil, kind,
                                               t[:, None, :])[:, 0])
        if k:
            wrapped = np.pi - np.mod(np.pi - t, 2 * np.pi)
            values[~high_closure_mask(k, wrapped)] = np.inf
        return values

    return -float(lockstep_minimize(negated, theta0[None], 2000, 1e-12,
                                    1e-15, False)[0])


def lockstep_minimize(objective, starts: np.ndarray, maxiter: int,
                      xatol: float, fatol: float,
                      speculate: bool) -> np.ndarray:
    """Nelder-Mead minima of ``objective`` from each start (S, n).

    The searches advance together: every round passes each unfinished
    search's pending points, a list of points of n floats each, to one
    ``objective`` call, which returns their values.  With ``speculate``
    an iteration asks for all four trial points at once (``_nelder_mead``).
    """
    runs = [_nelder_mead(x0, maxiter, xatol, fatol, speculate)
            for x0 in np.asarray(starts, float).tolist()]
    pending = {i: next(run) for i, run in enumerate(runs)}
    best = np.empty(len(runs))
    while pending:
        values = np.asarray(objective([x for points in pending.values()
                                       for x in points])).tolist()
        for i, points in list(pending.items()):
            f, values = values[:len(points)], values[len(points):]
            try:
                pending[i] = runs[i].send(f)
            except StopIteration as done:
                best[i] = done.value[0]
                del pending[i]
    return best


def _nelder_mead(x0, maxiter: int, xatol: float, fatol: float,
                 speculate: bool):
    """SciPy's non-adaptive Nelder-Mead minimization as a coroutine.

    Step for step ``minimize(method="Nelder-Mead")`` with these ``xatol``,
    ``fatol`` and ``maxiter`` (and no limit on evaluations): the same
    initial simplex, coefficients, sorts and stopping tests.  It yields
    lists of points (p lists of n floats), is sent their objective values,
    and returns the minimum and the iteration count.  With ``speculate`` an
    iteration asks for all four trial points (reflection, expansion,
    outside and inside contraction) at once, else for the reflection and
    then the one SciPy's branch needs; a shrink asks for the n moved
    vertices.

    The simplex has n <= 3 coordinates, so it is kept in Python floats:
    each coordinate takes SciPy's operations in SciPy's order (its centroid
    ``np.add.reduce`` over axis 0 adds the rows one after another), which
    IEEE arithmetic rounds the same in either.  Sorts stay ``np.argsort``,
    so tied values keep SciPy's order.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5  # SciPy's names
    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0] + [x0[:j] + [(1 + 0.05) * x0[j] if x0[j] != 0 else 0.00025]
                  + x0[j + 1:] for j in range(n)]
    fsim = list((yield sim))
    for _ in range(2):  # SciPy sorts twice before its first iteration
        sim, fsim = _sorted_simplex(sim, fsim)
    iterations = 1
    while iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        if (max(abs(v - w) for x in sim[1:] for v, w in zip(x, best))
                <= xatol and max(abs(fbest - f) for f in fsim[1:]) <= fatol):
            break
        xbar = list(sim[0])
        for x in sim[1:-1]:
            xbar = [m + v for m, v in zip(xbar, x)]
        xbar = [m / n for m in xbar]
        worst = sim[-1]
        trials = [[(1 + rho) * m - rho * w for m, w in zip(xbar, worst)],
                  [(1 + rho * chi) * m - rho * chi * w
                   for m, w in zip(xbar, worst)],
                  [(1 + psi * rho) * m - psi * rho * w
                   for m, w in zip(xbar, worst)],
                  [(1 - psi) * m + psi * w for m, w in zip(xbar, worst)]]
        known = list((yield trials)) if speculate else [None] * 4
        xr, xe, xc, xcc = trials
        fxr = yield from _trial_value(known, trials, 0)
        shrink = False
        if fxr < fsim[0]:
            fxe = yield from _trial_value(known, trials, 1)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            fxc = yield from _trial_value(known, trials, 2)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            fxcc = yield from _trial_value(known, trials, 3)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            sim[1:] = [[b + sigma * (v - b) for v, b in zip(x, best)]
                       for x in sim[1:]]
            fsim[1:] = list((yield sim[1:]))
        iterations += 1
        sim, fsim = _sorted_simplex(sim, fsim)
    return min(fsim), iterations


def _sorted_simplex(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values in ``np.argsort`` order of the values."""
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def _trial_value(known: list, trials: list, i: int):
    """Trial point i's value: speculated already, or asked for now."""
    if known[i] is None:
        (known[i],) = yield trials[i:i + 1]
    return known[i]


@lru_cache(maxsize=4)
def _lambda1(stencil: Stencil, kind: str,
             sampling: FrequencySampling) -> tuple[float, np.ndarray]:
    """max |X~| over all frequencies, polished, and its seed (read-only)."""
    x, _ = _lattice_x(stencil, kind, sampling)
    top = int(np.argmax(np.abs(x)))
    seed = read_only(_lattice_points(_ticks(sampling.samples_per_axis, 1.0),
                                     stencil.geometry.dimension, top))
    return max(abs(float(x[top])), _polish_max(stencil, kind, seed)), seed


def _face_seeds(stencil: Stencil, kind: str, k: int,
                sampling: FrequencySampling) -> tuple[np.ndarray, np.ndarray]:
    """One seed per low-box face (axis, sign), all faces in one call: the
    point of least |X~| on the exact face theta_axis = sign b whose free
    coordinates are lattice values in [-b, b].  Returns (seeds (2d, d),
    axes (2d,)).
    """
    d = stencil.geometry.dimension
    b = np.pi / 2**k
    ticks = _ticks(sampling.samples_per_axis, 1.0)
    inside = np.flatnonzero(np.abs(ticks) <= b * (1 + 1e-12))
    free = _lattice_points(ticks[inside], d - 1,
                           np.arange(len(inside) ** (d - 1)))
    faces = [(axis, sign) for axis in range(d) for sign in (-1, 1)]
    points = np.stack([np.insert(free, axis, sign * b, axis=1)
                       for axis, sign in faces])
    values = preconditioned_symbol(stencil, kind, points)
    seeds = points[np.arange(len(faces)), np.argmin(np.abs(values), axis=1)]
    return np.clip(seeds, -b, b), np.array([axis for axis, _ in faces])


def _face_minima(stencil: Stencil, kind: str, k: int, seeds: np.ndarray,
                 axes: np.ndarray, step: float) -> np.ndarray:
    """Local minima of |X~| on low-box faces, every face searched in lockstep.

    Face f keeps coordinate ``axes[f]`` at its value in ``seeds[f]``.  Each
    round evaluates, in one symbol call for all faces, a grid of
    FACE_GRID points per free axis and half-width w around each face's
    incumbent, clipped to [-b, b]; a strictly smaller value moves the
    incumbent.  w starts at ``step`` and shrinks by (FACE_GRID - 1)/2 per
    round while it is at least FACE_XTOL.  Each point is its own matvec
    row, so its value is bitwise that of a single-point call, whatever
    the batch.
    """
    b = np.pi / 2**k
    faces, d = seeds.shape
    ticks = np.linspace(-1.0, 1.0, FACE_GRID)
    grid = np.stack(np.meshgrid(*[ticks] * (d - 1), indexing="ij"),
                    axis=-1).reshape(-1, d - 1)
    offsets = np.stack([np.insert(grid, axis, 0.0, axis=1) for axis in axes])
    x = np.array(seeds, dtype=float)
    best = np.full(faces, np.inf)
    rows = np.arange(faces)
    w = step
    while w >= FACE_XTOL:
        trial = np.clip(x[:, None, :] + w * offsets, -b, b)
        values = np.abs(preconditioned_symbol(
            stencil, kind, trial.reshape(-1, 1, d))[:, 0]).reshape(faces, -1)
        j = np.argmin(values, axis=1)
        low = values[rows, j]
        better = low < best
        x[better] = trial[better, j[better]]
        best[better] = low[better]
        w /= (FACE_GRID - 1) / 2
    return best


def lambda_bounds(stencil: Stencil, kind: str, k: int,
                  sampling: FrequencySampling | None = None
                  ) -> tuple[float, float]:
    """LFA eigenvalue bounds of [A_h^+]^{-1} A_h over the high frequencies.

    lambda0 is the minimum of |X~| over the closure of the high-frequency
    region: the lattice minimum there (``high_closure_values``), refined on
    the 2d faces of the low box, where interface infima such as the 5-point
    value 1/2 lie.  Each face is seeded on the exact face (``_face_seeds``),
    so every face is refined at any sampling, and all faces are refined
    together (``_face_minima``), one symbol evaluation per round.
    lambda1 is the maximum over all frequencies, which is asserted to
    agree with the maximum over the high range.  lambda1 and its polish
    are cached per (stencil, preconditioner, sampling), and the high-range
    maximum, polished inside the high closure, is only computed when
    lambda1's seed lies outside it.  Every lattice point any of them reads
    comes from its flat index, so no lattice of points is ever built.
    """
    if not stencil.is_symmetric():
        raise ValueError("lambda bounds require a symmetric stencil")
    stencil = stencil.normalized()
    sampling = sampling or FrequencySampling()
    sampling.validate_ratio(k)
    if _lattice_x(stencil, kind, sampling)[1] < -REAL_SYMBOL_TOL:
        raise ValueError("preconditioned symbol is not positive semi-definite")
    lam1, peak = _lambda1(stencil, kind, sampling)

    lattice_min = np.min(np.abs(high_closure_values(stencil, kind,
                                                    sampling, k)))
    seeds, axes = _face_seeds(stencil, kind, k, sampling)
    face_min = np.min(_face_minima(stencil, kind, k, seeds, axes,
                                   2 * np.pi / sampling.samples_per_axis))
    lam0 = min(float(lattice_min), float(face_min))

    if not high_closure_mask(k, peak):
        n, d = sampling.samples_per_axis, stencil.geometry.dimension
        hi = np.flatnonzero(lattice_high_closure(d, n, k))
        ax = np.abs(_lattice_x(stencil, kind, sampling)[0][hi])
        seed = int(np.argmax(ax))
        lam1_high = max(float(ax[seed]), _polish_max(
            stencil, kind, _lattice_points(_ticks(n, 1.0), d, hi[seed]), k))
        if abs(lam1_high - lam1) > 1e-9 * lam1:
            raise ValueError(
                f"symbol maximum {lam1:.6g} is not attained on the high range "
                f"(high max {lam1_high:.6g}); lambda1 would be ambiguous"
            )
    return float(lam0), float(lam1)

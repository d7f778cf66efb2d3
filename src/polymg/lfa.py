"""Two-grid local Fourier analysis under aggressive 2^k coarsening.

Each low frequency couples with its 2^{kd}-1 aliases; the two-grid error
propagator acts block-diagonally on these harmonic groups, so its
asymptotic convergence factor is the maximum block spectral radius over
the sampled low frequencies.

Transfer symbols: the prolongation is the inclusion of the 2^k-coarse
nested piecewise-(multi)linear space (tensor hat weights on rectangular
grids, the pyramid hat of the triangular P1 space in reciprocal
coordinates).  Inside block assembly the inclusion symbols are divided by
the aggregate size 2^{kd}; with that normalization the Galerkin coarse
symbol coincides with the rediscretized one whenever the coarse space is
nested (linear FEM), and the rediscretized mode reproduces smooth modes
exactly.  Restriction is the adjoint of prolongation, which makes the
Galerkin-mode correction invariant to any scalar rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .polynomials import SmootherSpec, error_poly
from .smallmat import spectral_radii, spectral_radius
from .stencils import GridGeometry, RECTANGULAR, Stencil
from .symbols import (FrequencySampling, JACOBI, evaluate_symbol,
                      frequency_lattice, high_closure_mask, lambda_bounds,
                      preconditioned_symbol, preconditioner_symbol,
                      sample_frequencies)

GALERKIN = "galerkin"
REDISCRETIZED = "rediscretized"
COARSE_MODES = (GALERKIN, REDISCRETIZED)

#: a coarse symbol below this magnitude marks a misconfigured block
SINGULAR_COARSE_TOL = 1e-14


@dataclass
class TwoGridConfig:
    """Everything the two-grid symbol needs."""

    stencil: Stencil
    smoother: SmootherSpec
    k: int = 1
    preconditioner: str = JACOBI
    nu1: int = 1
    nu2: int = 0
    coarse_mode: str = GALERKIN
    sampling: FrequencySampling = field(default_factory=FrequencySampling)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("coarsening exponent k must be >= 1")
        if self.nu1 < 0 or self.nu2 < 0 or self.nu1 + self.nu2 < 1:
            raise ValueError("need nu1, nu2 >= 0 with nu1 + nu2 >= 1")
        if self.coarse_mode not in COARSE_MODES:
            raise ValueError(f"unknown coarse mode {self.coarse_mode!r}")
        self.sampling.validate_ratio(self.k)


@dataclass
class HarmonicBlock:
    """One coupled group of 2^{kd} frequencies and its per-harmonic symbols."""

    base: np.ndarray                 # the low frequency theta^0
    harmonics: np.ndarray            # (2^{kd}, d), wrapped
    fine_symbols: np.ndarray         # A~(theta^alpha), complex
    smoother_symbols: np.ndarray     # e(X~(theta^alpha)), real
    prolongation: np.ndarray         # P~(theta^alpha) (value 2^{kd} at 0)
    coarse_symbol: complex           # A~_{2^k h}(theta^0)


def smoother_symbol(spec: SmootherSpec, xtilde) -> np.ndarray:
    """Fourier symbol of the smoother error operator = e(X~(theta))."""
    return error_poly(spec, xtilde)


def smoothing_factor(stencil: Stencil, spec: SmootherSpec, k: int,
                     preconditioner: str = JACOBI,
                     sampling: FrequencySampling | None = None,
                     iterations: int = 1) -> float:
    """Worst damping of high-frequency modes, max |e(X~)|^nu.

    Sampled over the closure of the high-frequency region (an inclusive
    lattice containing the low/high interface), so interval-endpoint
    maxima are met exactly.
    """
    sampling = sampling or FrequencySampling()
    sampling.validate_ratio(k)
    theta = frequency_lattice(stencil.geometry, sampling)
    theta = theta[high_closure_mask(stencil.geometry, k, theta)]
    x = preconditioned_symbol(stencil, preconditioner, theta)
    return float(np.max(np.abs(smoother_symbol(spec, x)) ** iterations))


def harmonic_frequencies(geometry: GridGeometry, k: int,
                         theta0: np.ndarray) -> np.ndarray:
    """The 2^{kd} aliases of a low frequency, wrapped into (-pi/h, pi/h]."""
    m = 2**k
    d = geometry.dimension
    h = np.asarray(geometry.h)
    shifts = np.stack(np.meshgrid(*([np.arange(m)] * d), indexing="ij"),
                      axis=-1).reshape(-1, d)
    theta = np.asarray(theta0, dtype=float) + 2 * np.pi * shifts / (m * h)
    span = 2 * np.pi / h
    top = np.pi / h
    return top - np.mod(top - theta, span)


def prolongation_symbol(theta: np.ndarray, k: int,
                        geometry: GridGeometry) -> np.ndarray:
    """Stencil symbol of the nested multilinear inclusion (value 2^{kd} at 0).

    Rectangular grids: per-axis Fejer kernel (1/m)(sin(m t h/2)/sin(t h/2))^2
    with m = 2^k.  Triangular grids: the P1 pyramid hat of the 2^k-coarse
    space, summed directly over its hexagonal support.
    """
    theta = np.asarray(theta, dtype=float)
    m = 2**k
    if geometry.kind == RECTANGULAR:
        half = theta * np.asarray(geometry.h) / 2.0
        num = np.sin(m * half)
        den = np.sin(half)
        ratio = np.where(np.abs(den) < 1e-15, float(m),
                         np.divide(num, den, out=np.full_like(num, float(m)),
                                   where=np.abs(den) >= 1e-15))
        return np.prod(ratio**2, axis=-1) / float(m) ** geometry.dimension
    offsets, weights = triangular_hat_weights(k)
    phase = (theta * geometry.h[0]) @ offsets.T
    return (np.exp(1j * phase) @ weights).real


def triangular_hat_weights(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodal weights of the coarse P1 hat on the fine triangular lattice.

    The hat is linear on the six coarse triangles around its vertex:
    value 1 - max(|r1|, |r2|, |r1 - r2|)/2^k at fine offset (r1, r2).
    """
    m = 2**k
    offsets, weights = [], []
    for r1 in range(-m + 1, m):
        for r2 in range(-m + 1, m):
            w = 1.0 - max(abs(r1), abs(r2), abs(r1 - r2)) / m
            if w > 0:
                offsets.append((r1, r2))
                weights.append(w)
    return np.asarray(offsets, dtype=float), np.asarray(weights)


def coarse_symbol(block: HarmonicBlock, mode: str, stencil: Stencil,
                  k: int) -> complex:
    """Coarse-grid operator symbol at the block's base frequency.

    Galerkin sums conj(p) A p over the harmonics with the normalized
    inclusion symbols p = P~/2^{kd}; rediscretized evaluates the stencil
    regenerated at mesh width 2^k h.  Both agree for nested FEM spaces.
    """
    if mode not in COARSE_MODES:
        raise ValueError(f"unknown coarse mode {mode!r}")
    m_d = float(2 ** (k * stencil.geometry.dimension))
    if mode == GALERKIN:
        p = block.prolongation / m_d
        value = complex(np.sum(np.conj(p) * block.fine_symbols * p))
    else:
        coarse = stencil.with_mesh_width(float(2**k))
        value = complex(evaluate_symbol(coarse, block.base))
    if abs(value) < SINGULAR_COARSE_TOL:
        raise ValueError(
            f"singular coarse symbol at base frequency {block.base}; "
            "the sampling offset should exclude the zero frequency"
        )
    return value


def harmonic_block(cfg: TwoGridConfig, theta0: np.ndarray) -> HarmonicBlock:
    """Assemble all per-harmonic symbols for one low frequency."""
    st = cfg.stencil
    theta = harmonic_frequencies(st.geometry, cfg.k, theta0)
    fine = evaluate_symbol(st, theta)
    xt = fine.real / preconditioner_symbol(st, cfg.preconditioner)
    prol = prolongation_symbol(theta, cfg.k, st.geometry).astype(complex)
    block = HarmonicBlock(
        base=np.asarray(theta0, dtype=float),
        harmonics=theta,
        fine_symbols=fine,
        smoother_symbols=np.asarray(smoother_symbol(cfg.smoother, xt)),
        prolongation=prol,
        coarse_symbol=0.0,
    )
    block.coarse_symbol = coarse_symbol(block, cfg.coarse_mode, st, cfg.k)
    return block


def coarse_correction_matrix(block: HarmonicBlock, k: int,
                             dimension: int) -> np.ndarray:
    """C~ = I - p (A~_H)^{-1} r A~ with normalized inclusion column p."""
    m_d = float(2 ** (k * dimension))
    p = block.prolongation / m_d
    r = np.conj(p)
    n = len(p)
    return np.eye(n, dtype=complex) - np.outer(p, r * block.fine_symbols) / block.coarse_symbol


def two_grid_block(cfg: TwoGridConfig, theta0: np.ndarray) -> np.ndarray:
    """Block symbol S^{nu2} (I - P A_H^{-1} R A) S^{nu1} at one base frequency."""
    block = harmonic_block(cfg, theta0)
    c = coarse_correction_matrix(block, cfg.k, cfg.stencil.geometry.dimension)
    s = block.smoother_symbols
    return (s**cfg.nu2)[:, None] * c * (s**cfg.nu1)[None, :]


def _block_stack(cfg: TwoGridConfig, lows: np.ndarray) -> np.ndarray:
    """All two-grid blocks at once (vectorized over base frequencies)."""
    st = cfg.stencil
    geometry = st.geometry
    m_d = float(2 ** (cfg.k * geometry.dimension))
    theta = np.stack([harmonic_frequencies(geometry, cfg.k, t0) for t0 in lows])
    fine = evaluate_symbol(st, theta)
    xt = fine.real / preconditioner_symbol(st, cfg.preconditioner)
    s = np.asarray(smoother_symbol(cfg.smoother, xt.ravel())).reshape(xt.shape)
    p = prolongation_symbol(theta, cfg.k, geometry).astype(complex) / m_d
    if cfg.coarse_mode == GALERKIN:
        ah = np.sum(np.conj(p) * fine * p, axis=1)
    else:
        coarse = st.with_mesh_width(float(2**cfg.k))
        ah = evaluate_symbol(coarse, lows)
    if np.min(np.abs(ah)) < SINGULAR_COARSE_TOL:
        raise ValueError("singular coarse symbol in the low-frequency sweep")
    n = theta.shape[1]
    eye = np.eye(n, dtype=complex)[None]
    c = eye - (p[:, :, None] * (np.conj(p) * fine)[:, None, :]) / ah[:, None, None]
    return (s**cfg.nu2)[:, :, None] * c * (s**cfg.nu1)[:, None, :]


def _polish_rho(cfg: TwoGridConfig, theta0: np.ndarray,
                maxiter: int = 200) -> float:
    """Local refinement of the block spectral radius over the low box."""
    from scipy.optimize import minimize

    h = np.asarray(cfg.stencil.geometry.h)
    b = np.pi / (2**cfg.k * h)

    def neg(t):
        t = np.clip(t, -b * (1 - 1e-9), b * (1 - 1e-9))
        if np.max(np.abs(t) / b) < 1e-5:  # singular coarse symbol at zero
            return 0.0
        return -spectral_radius(two_grid_block(cfg, t))

    res = minimize(neg, theta0, method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-11, "maxiter": maxiter})
    return -res.fun


def rho_two_grid(cfg: TwoGridConfig, polish: bool = True, candidates: int = 3,
                 polish_maxiter: int = 200) -> float:
    """LFA two-grid convergence factor: max block spectral radius.

    Sweeps the offset low-frequency lattice; with ``polish`` the sweep
    maximum is refined by a local search over the base frequency starting
    from the best ``candidates`` lattice points, which removes most of the
    lattice-resolution bias.
    """
    lows, _ = sample_frequencies(cfg.stencil.geometry, cfg.k, cfg.sampling)
    radii = spectral_radii(_block_stack(cfg, lows))
    rho = float(np.max(radii))
    if polish:
        order = np.argsort(radii)[::-1][:candidates]
        for i in order:
            rho = max(rho, _polish_rho(cfg, lows[i], maxiter=polish_maxiter))
    return rho


def optimal_lambda0_two_grid(cfg: TwoGridConfig,
                             tol: float = 1e-4,
                             scan_points: int = 200
                             ) -> tuple[float, float, bool]:
    """lambda0 minimizing the two-grid factor, by golden-section search.

    Seeded at the LFA eigenvalue bound; the bracket is grown geometrically
    around the seed first.  If no descent bracket emerges (non-unimodal
    scan), falls back to the best point of a uniform scan and flags it in
    the returned tuple (lambda0, rho, used_fallback).
    """
    lam1 = cfg.smoother.lambda1
    seed, _ = lambda_bounds(cfg.stencil, cfg.preconditioner, cfg.k,
                            cfg.sampling)
    seed = min(seed, lam1 * 0.5)

    def rho_at(lam0: float) -> float:
        # the objective is flat near its minimum, so the lattice max alone
        # (kinked as the argmax block jumps) can displace the minimizer; a
        # light polish keeps it smooth at tolerable cost
        spec = cfg.smoother.with_lambda0(lam0)
        return rho_two_grid(replace(cfg, smoother=spec), candidates=1,
                            polish_maxiter=60)

    lo, hi = seed / 8.0, min(lam1 * (1 - 1e-9), seed * 8.0)
    f_seed = rho_at(seed)
    grow = 0
    while rho_at(lo) <= f_seed and lo > 1e-6 * lam1 and grow < 8:
        lo /= 4.0
        grow += 1
    grow = 0
    while rho_at(hi) <= f_seed and hi < lam1 * (1 - 1e-9) and grow < 8:
        hi = min(lam1 * (1 - 1e-9), hi * 2.0)
        grow += 1
    if rho_at(lo) <= f_seed or rho_at(hi) <= f_seed:
        grid = np.linspace(max(lo, 1e-6 * lam1), hi, scan_points)
        values = [rho_at(g) for g in grid]
        i = int(np.argmin(values))
        best = float(grid[i])
        spec = cfg.smoother.with_lambda0(best)
        return best, rho_two_grid(replace(cfg, smoother=spec)), True

    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = rho_at(c), rho_at(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = rho_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = rho_at(d)
    best = float(0.5 * (a + b))
    spec = cfg.smoother.with_lambda0(best)
    return best, rho_two_grid(replace(cfg, smoother=spec)), False

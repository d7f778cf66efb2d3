"""Two-grid local Fourier analysis under aggressive 2^k coarsening.

Each low frequency couples with its 2^{kd}-1 aliases; the two-grid error
propagator acts block-diagonally on these harmonic groups, so its
asymptotic convergence factor is the maximum block spectral radius over
the sampled low frequencies.

Transfer symbols: the prolongation is the inclusion of the 2^k-coarse
nested piecewise-(multi)linear space, the box spline that
``stencils.transfer_factors`` defines for the LFA and the solver alike; its
symbol is a product of Dirichlet kernels.  Inside block assembly the
inclusion symbols are divided by
the aggregate size 2^{kd}; with that normalization the Galerkin coarse
symbol coincides with the rediscretized one whenever the coarse space is
nested (linear FEM), and the rediscretized mode reproduces smooth modes
exactly.  Restriction is the adjoint of prolongation, which makes the
Galerkin-mode correction invariant to any scalar rescaling.

Block spectral radius.  With fine symbols a_i, normalized prolongation
symbols p_i, coarse symbol a_H and D = diag(s_i^{nu1+nu2}) of the smoother
symbols s_i, a block S^{nu2} (I - p w^T) S^{nu1} with w_i = p_i a_i / a_H
has, by cyclic similarity, the spectrum of (I - p w^T) D: a diagonal matrix
modified by a rank-one term (Golub, SIAM Rev. 15, 1973).  For a symmetric
stencil a and p are real; where every a_i >= 0, conjugating by A^{1/2}
gives (I - gamma u u^T) D with u_i = p_i sqrt(a_i) / sqrt(sum_j p_j^2 a_j)
and gamma = sum_j p_j^2 a_j / a_H, which is 1 in the Galerkin mode.  For
gamma <= 1, E = I - (1 - sqrt(1 - gamma)) u u^T satisfies E^2 = I - gamma
u u^T, and eig(E.ED) = eig(ED.E), so the spectrum is that of the real
symmetric E D E, which ``eigvalsh`` computes.  The rediscretized gamma of
nested FEM is 1 up to rounding, so gamma <= 1 + GAMMA_ROUNDING is clipped
to 1.  Every other block (gamma above that, a negative a_i, a
non-symmetric stencil) is assembled densely and its radius taken by
``smallmat.spectral_radii``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .polynomials import SmootherSpec, error_poly
from .smallmat import spectral_radii
from .stencils import GridGeometry, Stencil, transfer_factors
from .symbols import (FrequencySampling, JACOBI, fourier_sum,
                      high_closure_values, lambda_bounds,
                      preconditioner_symbol, read_only, sample_frequencies,
                      symbol_terms)

GALERKIN = "galerkin"
REDISCRETIZED = "rediscretized"
COARSE_MODES = (GALERKIN, REDISCRETIZED)

#: a coarse symbol below this magnitude marks a misconfigured block
SINGULAR_COARSE_TOL = 1e-14
#: rediscretized nested-FEM blocks have gamma = 1 up to a few ulps
GAMMA_ROUNDING = 1e-12
#: block entries assembled at once: a 3D, k = 3 sweep (512 blocks of
#: 512 x 512) would otherwise hold gigabytes
BATCH_ENTRIES = 2**22
#: golden-section bracket width at which the two-grid lambda0 search stops
LAMBDA0_TOL = 1e-4
#: uniform-scan points of the two-grid lambda0 search's fallback
LAMBDA0_SCAN_POINTS = 200


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
        if self.nu1 < 0 or self.nu2 < 0 or self.nu1 + self.nu2 < 1:
            raise ValueError("need nu1, nu2 >= 0 with nu1 + nu2 >= 1")
        if self.coarse_mode not in COARSE_MODES:
            raise ValueError(f"unknown coarse mode {self.coarse_mode!r}")
        self.sampling.validate_ratio(self.k)


@dataclass
class HarmonicBlock:
    """Coupled groups of 2^{kd} frequencies and their per-harmonic symbols.

    Built for base frequencies of shape (..., d), every field carries the
    same leading axes; one low frequency gives one group.
    """

    fine_symbols: np.ndarray         # A~(theta^alpha), complex
    smoother_symbols: np.ndarray     # e(X~(theta^alpha)), real
    prolongation: np.ndarray         # P~(theta^alpha), real, 2^{kd} at 0
    coarse_symbol: complex           # A~_{2^k h}(theta^0)


def smoothing_factor(stencil: Stencil, spec: SmootherSpec, k: int,
                     preconditioner: str = JACOBI,
                     sampling: FrequencySampling | None = None,
                     iterations: int = 1) -> float:
    """Worst damping of high-frequency modes, max |e(X~)|^nu.

    Sampled over the closure of the high-frequency region (an inclusive
    lattice containing the low/high interface), so interval-endpoint
    maxima are met exactly.  e is elementwise, so it runs only on the
    sorted distinct X~ there (``high_closure_values``, cached per stencil,
    preconditioner, sampling and k), bit-identical to every lattice point.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    sampling = sampling or FrequencySampling()
    sampling.validate_ratio(k)
    x = high_closure_values(stencil, preconditioner, sampling, k)
    return float(np.max(np.abs(error_poly(spec, x)) ** iterations))


@lru_cache(maxsize=16)
def _alias_shifts(geometry: GridGeometry, k: int) -> np.ndarray:
    """The 2^{kd} offsets 2 pi j / (2^k h), j in {0..2^k-1}^d (read-only)."""
    m = 2**k
    d = geometry.dimension
    shifts = np.stack(np.meshgrid(*([np.arange(m)] * d), indexing="ij"),
                      axis=-1).reshape(-1, d)
    return read_only(2 * np.pi * shifts / (m * np.asarray(geometry.h)))


def harmonic_frequencies(geometry: GridGeometry, k: int,
                         theta0: np.ndarray) -> np.ndarray:
    """The 2^{kd} aliases of low frequencies, wrapped into (-pi/h, pi/h].

    ``theta0`` has shape (..., d); the result has shape (..., 2^{kd}, d).
    """
    h = np.asarray(geometry.h)
    theta = (np.asarray(theta0, dtype=float)[..., None, :]
             + _alias_shifts(geometry, k))
    span = 2 * np.pi / h
    top = np.pi / h
    return top - np.mod(top - theta, span)


def prolongation_symbol(theta: np.ndarray, k: int,
                        geometry: GridGeometry) -> np.ndarray:
    """Stencil symbol of the nested inclusion (value 2^{kd} at 0).

    prod D_m(theta . xi h)^p / m^(sum p - d) over the distinct box
    directions xi of ``stencils.transfer_factors``, of multiplicity p, with
    m = 2^k and the Dirichlet kernel D_m(t) = sin(m t/2)/sin(t/2).
    """
    m = 2**k
    half = np.asarray(theta, dtype=float) * np.asarray(geometry.h) / 2.0
    symbol, power = 1.0, -geometry.dimension
    for p, directions in _box_directions(geometry):
        t = half @ directions
        den = np.sin(t)
        ratio = np.divide(np.sin(m * t), den, out=np.full_like(den, float(m)),
                          where=np.abs(den) >= 1e-15)
        symbol = symbol * np.prod(ratio ** p, axis=-1)
        power += p * directions.shape[1]
    return symbol / float(m) ** power


@lru_cache(maxsize=16)
def _box_directions(geometry: GridGeometry
                    ) -> tuple[tuple[int, np.ndarray], ...]:
    """Distinct transfer directions by multiplicity p: (p, columns (d, n))."""
    listed = [xi for factor in transfer_factors(geometry) for xi in factor]
    count = {xi: listed.count(xi) for xi in listed}
    return tuple((p, read_only(np.array([xi for xi in count if count[xi] == p],
                                        dtype=float).T))
                 for p in sorted(set(count.values())))


class BlockEvaluator:
    """The two-grid blocks of one configuration, for batches of base frequencies.

    Holds what does not depend on the base frequency (the stencil terms at
    both mesh widths and the preconditioner scalar; the alias shifts and the
    transfer directions are cached per geometry), so one evaluator serves a
    lattice sweep and every polish step after it.
    """

    def __init__(self, cfg: TwoGridConfig):
        st = cfg.stencil
        self.cfg = cfg
        self.m_d = float(2 ** (cfg.k * st.geometry.dimension))
        self.fine = symbol_terms(st)
        self.coarse = (None if cfg.coarse_mode == GALERKIN else
                       symbol_terms(st.with_mesh_width(float(2**cfg.k))))
        self.diagonal = preconditioner_symbol(st, cfg.preconditioner)
        self.symmetric = st.is_symmetric()

    def block(self, theta0: np.ndarray) -> HarmonicBlock:
        """Per-harmonic symbols at base frequencies of shape (..., d)."""
        cfg = self.cfg
        geometry = cfg.stencil.geometry
        theta0 = np.asarray(theta0, dtype=float)
        theta = harmonic_frequencies(geometry, cfg.k, theta0)
        fine = fourier_sum(theta, *self.fine)
        prol = prolongation_symbol(theta, cfg.k, geometry)
        # Galerkin: conj(p) A p over the harmonics; else the coarse stencil
        if self.coarse is None:
            p = prol / self.m_d
            coarse = np.sum(np.conj(p) * fine * p, axis=-1)
        else:
            coarse = fourier_sum(theta0, *self.coarse)
        if np.min(np.abs(coarse)) < SINGULAR_COARSE_TOL:
            raise ValueError(
                "singular coarse symbol at a base frequency; the sampling "
                "offset should exclude the zero frequency")
        return HarmonicBlock(
            fine_symbols=fine,
            smoother_symbols=error_poly(cfg.smoother,
                                        fine.real / self.diagonal),
            prolongation=prol,
            coarse_symbol=coarse,
        )

    def dense(self, block: HarmonicBlock) -> np.ndarray:
        """S^{nu2} (I - P A_H^{-1} R A) S^{nu1} as dense complex blocks."""
        cfg = self.cfg
        c = coarse_correction_matrix(block, cfg.k,
                                     cfg.stencil.geometry.dimension)
        s = block.smoother_symbols
        return (s**cfg.nu2)[..., :, None] * c * (s**cfg.nu1)[..., None, :]

    def radii(self, lows: np.ndarray) -> np.ndarray:
        """Block spectral radii at base frequencies of shape (B, d)."""
        step = max(1, BATCH_ENTRIES // int(self.m_d) ** 2)
        return np.concatenate([self.block_radii(self.block(lows[i:i + step]))
                               for i in range(0, len(lows), step)])

    def block_radii(self, block: HarmonicBlock) -> np.ndarray:
        """Spectral radii of a batch of blocks (leading axis B).

        Symmetric form E D E where it is valid (see the module docstring),
        ``smallmat.spectral_radii`` of the assembled block everywhere else.
        """
        cfg = self.cfg
        out = np.empty(np.shape(block.coarse_symbol))
        fast = np.zeros(out.shape, dtype=bool)
        if self.symmetric:
            a = block.fine_symbols.real
            p = block.prolongation / self.m_d
            norm2 = np.sum(p * p * a, axis=-1)
            gamma = (np.ones_like(norm2) if cfg.coarse_mode == GALERKIN
                     else norm2 / block.coarse_symbol.real)
            # non-finite smoother symbols go to the dense path, which
            # rejects them
            fast = ((norm2 > 0) & np.all(a >= 0, axis=-1)
                    & (gamma <= 1.0 + GAMMA_ROUNDING)
                    & np.all(np.isfinite(block.smoother_symbols), axis=-1))
            u = p[fast] * np.sqrt(a[fast]) / np.sqrt(norm2[fast])[:, None]
            c = 1.0 - np.sqrt(1.0 - np.minimum(gamma[fast], 1.0))
            d = block.smoother_symbols[fast] ** (cfg.nu1 + cfg.nu2)
            out[fast] = _symmetric_radii(d, u, c)
        if not np.all(fast):
            slow = ~fast
            rest = HarmonicBlock(**{name: value[slow]
                                    for name, value in vars(block).items()})
            out[slow] = spectral_radii(self.dense(rest))
        return out


def _symmetric_radii(d: np.ndarray, u: np.ndarray,
                     c: np.ndarray) -> np.ndarray:
    """max |eig(E D E)| with E = I - c u u^T, D = diag(d), |u| = 1.

    E D E = D - (v z^T + z v^T) with v = c u and z = D u - (u^T D u) v / 2.
    """
    v = c[:, None] * u
    du = d * u
    z = du - 0.5 * np.sum(u * du, axis=-1)[:, None] * v
    m = v[:, :, None] * z[:, None, :]
    m = -(m + m.swapaxes(1, 2))
    diag = np.arange(d.shape[-1])
    m[:, diag, diag] += d
    ev = np.linalg.eigvalsh(m)
    return np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))


def coarse_correction_matrix(block: HarmonicBlock, k: int,
                             dimension: int) -> np.ndarray:
    """C~ = I - p (A~_H)^{-1} r A~ with normalized inclusion column p."""
    m_d = float(2 ** (k * dimension))
    p = block.prolongation / m_d
    ah = np.asarray(block.coarse_symbol)[..., None, None]
    n = p.shape[-1]
    return (np.eye(n, dtype=complex)
            - p[..., :, None] * (np.conj(p) * block.fine_symbols)[..., None, :]
            / ah)


def two_grid_block(cfg: TwoGridConfig, theta0: np.ndarray) -> np.ndarray:
    """Block symbol S^{nu2} (I - P A_H^{-1} R A) S^{nu1} at one base frequency."""
    blocks = BlockEvaluator(cfg)
    return blocks.dense(blocks.block(theta0))


def _polish_rho(blocks: BlockEvaluator, theta0: np.ndarray,
                maxiter: int = 200) -> float:
    """Local refinement of the block spectral radius over the low box."""
    from scipy.optimize import minimize

    h = np.asarray(blocks.cfg.stencil.geometry.h)
    b = np.pi / (2**blocks.cfg.k * h)

    def neg(t):
        t = np.clip(t, -b * (1 - 1e-9), b * (1 - 1e-9))
        if np.max(np.abs(t) / b) < 1e-5:  # singular coarse symbol at zero
            return 0.0
        return -float(blocks.radii(t[None])[0])

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
    blocks = BlockEvaluator(cfg)
    lows, _ = sample_frequencies(cfg.stencil.geometry, cfg.k, cfg.sampling)
    radii = blocks.radii(lows)
    rho = float(np.max(radii))
    if polish:
        order = np.argsort(radii)[::-1][:candidates]
        for i in order:
            rho = max(rho, _polish_rho(blocks, lows[i],
                                       maxiter=polish_maxiter))
    return rho


def optimal_lambda0_two_grid(cfg: TwoGridConfig
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

    @lru_cache(maxsize=None)
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
        grid = np.linspace(max(lo, 1e-6 * lam1), hi, LAMBDA0_SCAN_POINTS)
        values = [rho_at(g) for g in grid]
        i = int(np.argmin(values))
        best = float(grid[i])
        spec = cfg.smoother.with_lambda0(best)
        return best, rho_two_grid(replace(cfg, smoother=spec)), True

    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = rho_at(c), rho_at(d)
    while b - a > LAMBDA0_TOL:
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

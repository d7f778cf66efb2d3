"""Two-grid local Fourier analysis under aggressive 2^k coarsening.

Frequencies are phases in (-pi, pi]^d (see ``symbols``), so nothing here
reads the mesh width.  Each low phase in (-pi/2^k, pi/2^k]^d couples with
its 2^{kd}-1 aliases; the two-grid error propagator acts block-diagonally
on these harmonic groups, so its asymptotic convergence factor is the
maximum block spectral radius over the sampled low phases.  The coarse
grid sees the phase 2^k theta.  The analyses read ``Stencil.normalized()``
(see ``symbols``).  The rediscretized coarse symbol, of the stencil at mesh
width 2^k h, is the fine Fourier sum at 2^k theta over 4^k.

Transfer symbols: the prolongation is the inclusion of the 2^k-coarse
nested piecewise-(multi)linear space, the box spline that
``stencils.transfer_factors`` defines for the LFA and the solver alike; its
symbol is a product of Dirichlet kernels.  A ``HarmonicBlock`` stores it
divided by the aggregate size 2^{kd}, so that it is 1 at theta = 0; with
that normalization the Galerkin coarse symbol coincides with the
rediscretized one whenever the coarse space is nested (linear FEM), and
the rediscretized mode reproduces smooth modes exactly.  Restriction is
the adjoint of prolongation, which makes the Galerkin-mode correction
invariant to any scalar rescaling.

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
to 1.  Every other block (gamma above that, a negative a_i) is assembled
densely and its radius taken by ``smallmat.spectral_radii``.

Polish.  ``rho_two_grid`` refines its best lattice points by the Nelder-
Mead searches of ``symbols.lockstep_minimize``, SciPy's non-adaptive
method step for step, run in lockstep: each round evaluates every
unfinished search's pending points in one ``BlockEvaluator.radii`` batch.
Where blocks are small, an iteration asks for all four trial points at
once, since a batch then costs little more than one point; larger blocks
ask for just the points SciPy evaluates.  This returns SciPy's values
exactly because ``radii`` is batch-invariant: a point's radius does not
depend on the batch it is evaluated in.  Every row is computed by its own
products and reductions; the coarse symbol, for one, is a one-row matvec
per point rather than one matrix-vector product over the batch.

Cost of a round.  A round costs its arithmetic: the symbols of each
point's 2^{kd} harmonics, the symmetric form and one ``eigvalsh`` per
point (about 18 us for a 16 x 16 block on one core).  On small blocks
the NumPy call count dominates, about a hundred per round whatever the
number of points (the smoother recurrence alone makes seven per degree).
Every batch gathers its symmetric-form rows, and only a batch with
another row assembles dense blocks; the simplex steps run on Python
floats.  A ``HarmonicBlock`` carries no smoother: its symbols and the u
and c of its symmetric form are the same for every smoother, which
``block_radii`` takes.  So a two-grid lambda0 search
(``optimal_lambda0_two_grid``) builds its lattice's blocks once, and each
lambda0 then costs its smoother symbols and eigen-solves.  Nothing is
kept beyond the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .polynomials import SA, SmootherSpec, error_poly
from .smallmat import spectral_radii
from .stencils import GridGeometry, Stencil, transfer_factors
from .symbols import (FrequencySampling, JACOBI, fourier_sum,
                      high_closure_values, lambda_bounds,
                      lockstep_minimize, preconditioner_symbol, read_only,
                      sample_frequencies, symbol_terms)

GALERKIN = "galerkin"
REDISCRETIZED = "rediscretized"
COARSE_MODES = (GALERKIN, REDISCRETIZED)

#: a coarse symbol below this multiple of the preconditioner scalar marks a
#: misconfigured block (relative: the symbols scale with the coefficients)
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
#: smallest lambda0 of the two-grid search, as a fraction of lambda1
LAMBDA0_FLOOR = 1e-6
#: Nelder-Mead stopping tolerances of the rho polish (phase, radius)
POLISH_XATOL = 1e-8
POLISH_FATOL = 1e-11
#: largest block (2^{kd} harmonics) at which the polish evaluates all four
#: Nelder-Mead trial points at once; above it a point's eigen-solve costs
#: more than the per-batch overhead, so only the needed points are evaluated
SPECULATE_MAX_BLOCK = 16


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
        if not self.stencil.is_symmetric():
            raise ValueError("the two-grid analysis requires a symmetric "
                             "stencil")
        self.sampling.validate_ratio(self.k)


@dataclass
class HarmonicBlock:
    """Coupled groups of 2^{kd} frequencies: their smoother-free symbols
    and the smoother-free part of the symmetric form E D E.

    Built for base frequencies of shape (..., d), the symbols and ``rows``
    carry the same leading axes; one low frequency gives one group.
    ``rows`` marks the blocks whose coarse-grid correction has the
    symmetric form (a_i >= 0, a positive norm, gamma within rounding of 1
    or below); u and c are given for those rows only.
    """

    fine_symbols: np.ndarray         # A~(theta^alpha), complex
    prolongation: np.ndarray         # P~(theta^alpha) / 2^{kd}, real, 1 at 0
    coarse_symbol: np.ndarray        # A~_{2^k h}(theta^0), complex
    rows: np.ndarray
    u: np.ndarray
    c: np.ndarray


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
    x = high_closure_values(stencil.normalized(), preconditioner, sampling, k)
    return float(np.max(np.abs(error_poly(spec, x)) ** iterations))


@lru_cache(maxsize=16)
def _alias_shifts(d: int, k: int) -> np.ndarray:
    """The 2^{kd} phase shifts 2 pi j / 2^k, j in {0..2^k-1}^d (read-only)."""
    m = 2**k
    shifts = np.stack(np.meshgrid(*([np.arange(m)] * d), indexing="ij"),
                      axis=-1).reshape(-1, d)
    return read_only(2 * np.pi * shifts / m)


def harmonic_frequencies(k: int, theta0: np.ndarray) -> np.ndarray:
    """The 2^{kd} aliases of low phases, wrapped into (-pi, pi].

    ``theta0`` has shape (..., d); the result has shape (..., 2^{kd}, d).
    """
    theta0 = np.asarray(theta0, dtype=float)
    theta = theta0[..., None, :] + _alias_shifts(theta0.shape[-1], k)
    return np.pi - np.mod(np.pi - theta, 2 * np.pi)


def prolongation_symbol(theta: np.ndarray, k: int,
                        geometry: GridGeometry) -> np.ndarray:
    """Stencil symbol of the nested inclusion at phases theta (2^{kd} at 0).

    prod D_m(theta . xi)^p / m^(sum p - d) over the distinct box directions
    xi of ``stencils.transfer_factors``, of multiplicity p, with m = 2^k and
    the Dirichlet kernel D_m(t) = sin(m t/2)/sin(t/2).  ``geometry`` only
    selects the directions.
    """
    m = 2**k
    half = np.asarray(theta, dtype=float) / 2.0
    # one 2-D product: a stacked matmul would run one small product per row
    flat = half.reshape(-1, half.shape[-1])
    symbol, power = 1.0, -geometry.dimension
    for p, directions in _box_directions(geometry):
        t = (flat @ directions).reshape(half.shape[:-1] + (-1,))
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

    Holds what does not depend on the base phase (the normalized stencil's
    terms and preconditioner scalar; the alias shifts are cached per
    dimension and the transfer directions per geometry), so one
    evaluator serves a lattice sweep and every polish step after it.  Its
    blocks carry no smoother: ``block_radii``, ``radii`` and ``dense`` take
    one, so the blocks of a lattice serve every smoother of a lambda0
    search.  The configuration's own smoother is not read.
    """

    def __init__(self, cfg: TwoGridConfig):
        st = cfg.stencil.normalized()
        self.cfg = cfg
        self.m_d = float(2 ** (cfg.k * st.geometry.dimension))
        self.fine = symbol_terms(st)
        self.diagonal = preconditioner_symbol(st, cfg.preconditioner)

    def block(self, theta0: np.ndarray) -> HarmonicBlock:
        """The blocks at base phases of shape (..., d)."""
        cfg = self.cfg
        theta0 = np.asarray(theta0, dtype=float)
        theta = harmonic_frequencies(cfg.k, theta0)
        fine = fourier_sum(theta, *self.fine)
        p = prolongation_symbol(theta, cfg.k, cfg.stencil.geometry) / self.m_d
        # Galerkin: conj(p) A p over the harmonics; else see the module doc
        if cfg.coarse_mode == GALERKIN:
            coarse = np.sum(np.conj(p) * fine * p, axis=-1)
        else:
            # one row per matvec, so a point's value is the same in any batch
            coarse = fourier_sum(2**cfg.k * theta0[..., None, :],
                                 *self.fine)[..., 0] / 4.0**cfg.k
        if np.abs(coarse).min() < SINGULAR_COARSE_TOL * self.diagonal:
            at = theta0.reshape(-1, theta0.shape[-1])[np.abs(coarse).argmin()]
            raise ValueError(
                f"singular coarse symbol at base phase {at.tolist()}: the "
                "two-grid factor is unbounded near it (a sampling offset "
                "should exclude the zero frequency)")
        return self.harmonic_block(fine, p, coarse)

    def harmonic_block(self, fine: np.ndarray, p: np.ndarray,
                       coarse: np.ndarray) -> HarmonicBlock:
        """The blocks of these symbols (p the normalized prolongation), with
        their symmetric form (see the module docstring)."""
        a = fine.real
        norm2 = (p * p * a).sum(axis=-1)
        gamma = (np.ones_like(norm2) if self.cfg.coarse_mode == GALERKIN
                 else norm2 / coarse.real)
        rows = ((norm2 > 0) & (a >= 0).all(axis=-1)
                & (gamma <= 1.0 + GAMMA_ROUNDING))
        u = p[rows] * np.sqrt(a[rows]) / np.sqrt(norm2[rows])[..., None]
        c = 1.0 - np.sqrt(1.0 - np.minimum(gamma[rows], 1.0))
        return HarmonicBlock(fine, p, coarse, rows, u, c)

    def batches(self, lows: np.ndarray) -> list[HarmonicBlock]:
        """The blocks at base frequencies (B, d), BATCH_ENTRIES dense block
        entries at a time."""
        step = max(1, BATCH_ENTRIES // int(self.m_d) ** 2)
        return [self.block(lows[i:i + step])
                for i in range(0, len(lows), step)]

    def smoother_symbols(self, smoother: SmootherSpec,
                         fine: np.ndarray) -> np.ndarray:
        """e(X~) of ``smoother`` at fine symbols A~."""
        return error_poly(smoother, fine.real / self.diagonal)

    def dense(self, smoother: SmootherSpec,
              block: HarmonicBlock) -> np.ndarray:
        """S^{nu2} (I - P A_H^{-1} R A) S^{nu1} as dense complex blocks."""
        cfg = self.cfg
        c = coarse_correction_matrix(block)
        s = self.smoother_symbols(smoother, block.fine_symbols)
        return (s**cfg.nu2)[..., :, None] * c * (s**cfg.nu1)[..., None, :]

    def radii(self, smoother: SmootherSpec, lows: np.ndarray) -> np.ndarray:
        """Block spectral radii at base frequencies of shape (B, d)."""
        return np.concatenate([self.block_radii(smoother, block)
                               for block in self.batches(lows)])

    def block_radii(self, smoother: SmootherSpec,
                    block: HarmonicBlock) -> np.ndarray:
        """Spectral radii of a batch of blocks (leading axis B).

        Symmetric form E D E where it is valid (see the module docstring),
        ``smallmat.spectral_radii`` of the assembled block everywhere else.
        """
        s = self.smoother_symbols(smoother, block.fine_symbols)
        # non-finite smoother symbols go to the dense path, which rejects them
        fast = block.rows & np.isfinite(s).all(axis=-1)
        keep = fast[block.rows]
        radii = _symmetric_radii(s[fast] ** (self.cfg.nu1 + self.cfg.nu2),
                                 block.u[keep], block.c[keep])
        if fast.all():
            return radii
        out = np.empty(len(fast))
        out[fast] = radii
        slow = ~fast
        rest = self.harmonic_block(block.fine_symbols[slow],
                                   block.prolongation[slow],
                                   block.coarse_symbol[slow])
        out[slow] = spectral_radii(self.dense(smoother, rest))
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


def coarse_correction_matrix(block: HarmonicBlock) -> np.ndarray:
    """C~ = I - p (A~_H)^{-1} r A~ with normalized inclusion column p."""
    p = block.prolongation
    ah = np.asarray(block.coarse_symbol)[..., None, None]
    n = p.shape[-1]
    return (np.eye(n, dtype=complex)
            - p[..., :, None] * (np.conj(p) * block.fine_symbols)[..., None, :]
            / ah)


def two_grid_block(cfg: TwoGridConfig, theta0: np.ndarray) -> np.ndarray:
    """Block symbol S^{nu2} (I - P A_H^{-1} R A) S^{nu1} at one base frequency."""
    blocks = BlockEvaluator(cfg)
    return blocks.dense(cfg.smoother, blocks.block(theta0))


def _negated_radii(blocks: BlockEvaluator, smoother: SmootherSpec,
                   points) -> np.ndarray:
    """The polish objective: minus the block radius at points (P, d).

    Points are clipped just inside the low box; one within 1e-5
    half-widths of zero scores 0 (the coarse symbol is singular there).
    """
    b = np.pi / 2**blocks.cfg.k
    t = np.array(points, dtype=float).clip(-b * (1 - 1e-9), b * (1 - 1e-9))
    live = (np.abs(t) / b).max(axis=-1) >= 1e-5
    out = np.zeros(len(t))
    if live.any():
        out[live] = -blocks.radii(smoother, t[live])
    return out


def _lockstep_polish(blocks: BlockEvaluator, smoother: SmootherSpec,
                     starts: np.ndarray, maxiter: int) -> np.ndarray:
    """Nelder-Mead maxima of the block radius from each start (S, d), all
    searches in lockstep (``symbols.lockstep_minimize``); ``radii`` is
    batch-invariant, so each matches a lone SciPy run exactly.  Trial
    points are speculated where blocks are small enough that a batch
    costs little more than one point."""
    return -lockstep_minimize(partial(_negated_radii, blocks, smoother),
                              starts, maxiter, POLISH_XATOL, POLISH_FATOL,
                              blocks.m_d <= SPECULATE_MAX_BLOCK)


def _swept_rho(blocks: BlockEvaluator, smoother: SmootherSpec,
               lows: np.ndarray, batches: list[HarmonicBlock],
               candidates: int, maxiter: int) -> float:
    """The largest block radius of ``smoother`` on the lattice ``lows``
    (whose blocks are ``batches``), polished from its best ``candidates``
    points by searches of at most ``maxiter`` iterations."""
    radii = np.concatenate([blocks.block_radii(smoother, block)
                            for block in batches])
    order = np.argsort(radii)[::-1][:candidates]
    return max(float(np.max(radii)),
               *_lockstep_polish(blocks, smoother, lows[order], maxiter))


def rho_two_grid(cfg: TwoGridConfig) -> float:
    """LFA two-grid convergence factor: max block spectral radius.

    Sweeps the offset low-frequency lattice; the sweep maximum is refined
    by a local search over the base frequency from the best three lattice
    points, which removes most of the lattice-resolution bias.
    """
    blocks = BlockEvaluator(cfg)
    lows = sample_frequencies(cfg.stencil.geometry, cfg.k, cfg.sampling)
    return _swept_rho(blocks, cfg.smoother, lows, blocks.batches(lows), 3,
                      200)


def optimal_lambda0_two_grid(cfg: TwoGridConfig
                             ) -> tuple[float, float, bool]:
    """lambda0 minimizing the two-grid factor, by golden-section search.

    Seeded at the LFA eigenvalue bound (at least 1e-6 lambda1); the bracket
    is grown geometrically around the seed first.  If no descent bracket
    emerges (non-unimodal scan), falls back to the best point of a uniform
    scan of [1e-6 lambda1, lambda1) and flags it in the returned tuple
    (lambda0, rho, used_fallback).  The lattice's smoother-free block
    symbols are computed once per call and shared by every evaluation.
    """
    if cfg.smoother.family == SA:
        raise ValueError("the sa smoother has no lambda0 to optimize")
    lam1 = cfg.smoother.lambda1
    floor, cap = LAMBDA0_FLOOR * lam1, lam1 * (1 - 1e-9)
    seed, _ = lambda_bounds(cfg.stencil, cfg.preconditioner, cfg.k,
                            cfg.sampling)
    seed = max(min(seed, lam1 * 0.5), floor)
    blocks = BlockEvaluator(cfg)
    lows = sample_frequencies(cfg.stencil.geometry, cfg.k, cfg.sampling)
    batches = blocks.batches(lows)

    @lru_cache(maxsize=None)
    def rho_at(lam0: float) -> float:
        # the objective is flat near its minimum, so the lattice max alone
        # (kinked as the argmax block jumps) can displace the minimizer; a
        # light polish keeps it smooth at tolerable cost
        return _swept_rho(blocks, cfg.smoother.with_lambda0(lam0), lows,
                          batches, 1, 60)

    lo, hi = seed / 8.0, min(cap, seed * 8.0)
    f_seed = rho_at(seed)
    grow = 0
    while rho_at(lo) <= f_seed and lo > floor and grow < 8:
        lo /= 4.0
        grow += 1
    grow = 0
    while rho_at(hi) <= f_seed and hi < cap and grow < 8:
        hi = min(cap, hi * 2.0)
        grow += 1
    if rho_at(lo) <= f_seed or rho_at(hi) <= f_seed:
        grid = np.linspace(floor, cap, LAMBDA0_SCAN_POINTS)
        values = [rho_at(g) for g in grid]
        i = int(np.argmin(values))
        best = float(grid[i])
        return best, _swept_rho(blocks, cfg.smoother.with_lambda0(best),
                                lows, batches, 3, 200), True

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
    return best, _swept_rho(blocks, cfg.smoother.with_lambda0(best), lows,
                            batches, 3, 200), False

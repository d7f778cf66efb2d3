import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from polymg import (BA1X, CHEBYSHEV, GALERKIN, JACOBI, L1_JACOBI,
                    REDISCRETIZED, SA,
                    FrequencySampling, SmootherSpec, TwoGridConfig,
                    build_fd_laplace, build_fem_tri_laplace, error_poly,
                    evaluate_symbol, harmonic_frequencies, lambda_bounds,
                    optimal_lambda0_smoothing, optimal_lambda0_two_grid,
                    prolongation_symbol, rectangular, rho_two_grid,
                    sample_frequencies, smoothing_factor)
from polymg import Stencil, lfa, symbols
from polymg.lfa import (BlockEvaluator, coarse_correction_matrix,
                        two_grid_block)
from polymg.smallmat import spectral_radii
from polymg.symbols import fourier_sum
from polymg.tables import (LAMBDA1_2D, LAMBDA1_ISOSCELES, SMOOTHING_DEGREES,
                           TRI_DEGREES, TRI_PRESETS)

from oracles import (Q1_STENCIL, bilinear_weight_stencil,
                     full_sweep_smoothing_factor, per_call_lambda0_two_grid,
                     scipy_polish_rho, transfer_nodal_table,
                     two_polish_lambda_bounds)

FD2 = build_fd_laplace(rectangular(1.0, 2))
FD3 = build_fd_laplace(rectangular(1.0, 3))
EQUI = build_fem_tri_laplace(math.pi / 3, math.pi / 3)
SAMPLING = FrequencySampling(samples_per_axis=64)


@pytest.mark.parametrize("stencil,k,spec,expected,tol", [
    (FD2, 1, SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0), 0.074, 1e-3),
    (FD3, 1, SmootherSpec(SA, 3, 0.0, 2.0), 0.227, 1e-3),
])
def test_smoothing_factor_reference_values(stencil, k, spec, expected, tol):
    mu = smoothing_factor(stencil, spec, k, sampling=SAMPLING)
    assert mu == pytest.approx(expected, abs=tol)


def test_smoothing_factor_optimal_ba():
    lam0, _ = lambda_bounds(FD2, JACOBI, 3, SAMPLING)
    lam_star = optimal_lambda0_smoothing(17, lam0, 2.0)
    spec = SmootherSpec(BA1X, 17, lam_star, 2.0)
    mu = smoothing_factor(FD2, spec, 3, sampling=SAMPLING)
    assert mu == pytest.approx(0.053, abs=1e-3)


EXACT_STENCILS = {
    "fd2d": FD2, "fd3d": FD3,
    **{name: build_fem_tri_laplace(*angles)
       for name, angles in TRI_PRESETS.items()},
    "anisotropic": build_fd_laplace(rectangular((1.0, 0.5))),
    "q1": Stencil.from_dict(Q1_STENCIL)}


@pytest.mark.parametrize("kind", [JACOBI, L1_JACOBI])
@pytest.mark.parametrize("name", list(EXACT_STENCILS))
def test_cached_smoothing_analysis_is_bit_identical(name, kind):
    # the cached high-closure values and the reused lambda1 polish give
    # exactly the numbers of sweeping and polishing afresh
    stencil = EXACT_STENCILS[name]
    for k in (1, 2, 3):
        lam0, lam1 = lambda_bounds(stencil, kind, k, SAMPLING)
        assert (lam0, lam1) == two_polish_lambda_bounds(stencil, kind, k,
                                                        SAMPLING)
        degree = (TRI_DEGREES[name][k] if name in TRI_DEGREES else
                  SMOOTHING_DEGREES[stencil.geometry.dimension][k])
        for spec in (SmootherSpec(CHEBYSHEV, degree, lam0, lam1),
                     SmootherSpec(SA, degree, 0.0, lam1),
                     SmootherSpec(BA1X, degree, lam0, lam1)):
            for nu in (1, 2):
                assert smoothing_factor(stencil, spec, k, kind, SAMPLING,
                                        nu) == \
                    full_sweep_smoothing_factor(stencil, spec, k, kind,
                                                SAMPLING, nu)


def _at_mesh_width(stencil, w):
    """``stencil`` on a grid of mesh width w, its coefficients unchanged."""
    h = (w,) * stencil.geometry.dimension
    return replace(stencil, geometry=replace(stencil.geometry, h=h))


def _analysis(stencil, k):
    """lambda0, lambda1, mu and both two-grid factors, on 16 samples."""
    sampling = FrequencySampling(16)
    lam0, lam1 = lambda_bounds(stencil, JACOBI, k, sampling)
    spec = SmootherSpec(CHEBYSHEV, 2, lam0, lam1)
    return (lam0, lam1, smoothing_factor(stencil, spec, k, sampling=sampling),
            *(rho_two_grid(TwoGridConfig(stencil=stencil, smoother=spec, k=k,
                                         coarse_mode=mode, sampling=sampling))
              for mode in (GALERKIN, REDISCRETIZED)))


def _scaled(stencil, factor):
    """``stencil`` with every coefficient times ``factor``."""
    return replace(stencil, coefficients=tuple(
        c * factor for c in stencil.coefficients))


@pytest.mark.parametrize("name", ["fd2d", "fd3d", "q1", "equilateral",
                                  "isosceles-80"])
def test_lfa_does_not_depend_on_mesh_width(name):
    # phases carry no h: with the coefficients fixed every number is exact,
    # and so with them scaled by h^-2 = 2^-60, a power of two, or by 2^+-1000;
    # the finite-difference coefficients stay exact at 2^-1070, subnormal
    stencil = EXACT_STENCILS[name]
    others = [_at_mesh_width(stencil, w) for w in (1e-200, 1e-3, 1e3)]
    others.append(stencil.with_mesh_width(2.0**30))
    scales = [2.0**1000, 2.0**-1000]
    if name in ("fd2d", "fd3d"):
        scales.append(2.0**-1070)
    others += [_scaled(stencil, s) for s in scales]
    for k in (1, 2):
        want = _analysis(stencil, k)
        for other in others:
            assert _analysis(other, k) == want


def test_smoothing_factor_validation():
    spec = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            smoothing_factor(FD2, spec, k)
    for nu in (0, -1):
        with pytest.raises(ValueError, match="iterations"):
            smoothing_factor(FD2, spec, 1, iterations=nu)


def test_prolongation_symbol_limits():
    for k in (1, 2):
        m = 2**k
        assert prolongation_symbol(np.zeros(2), k, FD2.geometry) \
            == pytest.approx(m**2)
        theta = np.array([np.pi, 0.3])
        assert prolongation_symbol(theta, k, FD2.geometry) \
            == pytest.approx(0.0, abs=1e-12)
        assert prolongation_symbol(np.zeros(2), k, EQUI.geometry) \
            == pytest.approx(m**2)


def test_prolongation_symbol_matches_bilinear_stencil():
    rng = np.random.default_rng(8)
    weights = bilinear_weight_stencil()
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, size=2)
        direct = sum(w * np.exp(1j * (theta[0] * i + theta[1] * j))
                     for (i, j), w in weights.items())
        assert prolongation_symbol(theta, 1, FD2.geometry) \
            == pytest.approx(direct.real, abs=1e-12)
        assert abs(direct.imag) < 1e-12


@pytest.mark.parametrize("name", ["fd2d", "fd3d", "equilateral",
                                  "isosceles-80"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_prolongation_symbol_is_the_solver_tables_fourier_sum(name, k):
    # the closed-form symbol against the nodal tables the solver applies
    geometry = EXACT_STENCILS[name].geometry
    d = geometry.dimension
    rng = np.random.default_rng(k)
    theta = np.vstack([np.zeros(d), np.full(d, np.pi),
                       rng.uniform(-np.pi, np.pi, size=(40, d))])
    offsets, weights = transfer_nodal_table(geometry, k)
    want = fourier_sum(theta, offsets, weights.astype(complex))
    assert np.max(np.abs(want.imag)) <= 1e-12
    got = prolongation_symbol(theta, k, geometry)
    assert np.max(np.abs(got - want.real)) <= 1e-12


def test_triangular_prolongation_nested_composition():
    # direct factor-4 inclusion equals two composed factor-2 inclusions
    rng = np.random.default_rng(12)
    geo = EQUI.geometry
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, size=2)
        direct = prolongation_symbol(theta, 2, geo) / 16.0
        composed = (prolongation_symbol(theta, 1, geo) / 4.0) \
            * (prolongation_symbol(2 * theta, 1, geo) / 4.0)
        assert direct == pytest.approx(composed, abs=1e-12)


@pytest.mark.parametrize("dimension,k,n", [(2, 2, 16), (3, 1, 8)])
def test_harmonic_partition(dimension, k, n):
    geo = rectangular(1.0, dimension)
    sampling = FrequencySampling(samples_per_axis=n)
    low, high = sample_frequencies(geo, k, sampling)
    full = {tuple(np.round(t, 9)) for t in np.vstack([low, high])}
    union = []
    for theta0 in low:
        for t in harmonic_frequencies(k, theta0):
            union.append(tuple(np.round(t, 9)))
    assert len(union) == len(full)
    assert set(union) == full


def test_harmonics_count_and_distinct():
    theta0 = np.array([0.21, -0.37])
    for k in (1, 2, 3):
        h = harmonic_frequencies(k, theta0)
        assert h.shape == (4**k, 2)
        assert len({tuple(np.round(t, 12)) for t in h}) == 4**k
    h3 = harmonic_frequencies(1, np.array([0.2, 0.3, -0.4]))
    assert h3.shape == (8, 3)


def test_harmonic_frequencies_vectorized():
    for geo, k in ((FD2.geometry, 2), (FD3.geometry, 1), (EQUI.geometry, 3)):
        lows, _ = sample_frequencies(geo, k, FrequencySampling(16))
        rows = np.stack([harmonic_frequencies(k, t) for t in lows])
        assert np.array_equal(harmonic_frequencies(k, lows), rows)
        batch = lows[:4].reshape(2, 2, -1)
        assert np.array_equal(harmonic_frequencies(k, batch),
                              rows[:4].reshape(2, 2, *rows.shape[1:]))


def _config(stencil, spec, k, mode, nu1=1, nu2=0):
    return TwoGridConfig(stencil=stencil, smoother=spec, k=k, nu1=nu1,
                         nu2=nu2, coarse_mode=mode, sampling=SAMPLING)


def _coarse_symbol(stencil, spec, k, mode, theta0):
    """The block's coarse-grid symbol at one base frequency, in ``mode``."""
    return BlockEvaluator(_config(stencil, spec, k, mode)).block(
        theta0).coarse_symbol


def test_coarse_symbol_nested_fem_identity():
    rng = np.random.default_rng(4)
    spec = SmootherSpec(CHEBYSHEV, 1, 0.5, 1.5)
    for k in (1, 2):
        for _ in range(5):
            b = np.pi / 2**k
            theta0 = rng.uniform(-b, b, size=2)
            gal, red = (_coarse_symbol(EQUI, spec, k, mode, theta0)
                        for mode in (GALERKIN, REDISCRETIZED))
            assert abs(gal - red) < 1e-10 * abs(red)


def test_coarse_symbol_fd_modes_differ():
    spec = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    theta0 = np.array([np.pi / 4, np.pi / 8])
    gal, red = (_coarse_symbol(FD2, spec, 1, mode, theta0)
                for mode in (GALERKIN, REDISCRETIZED))
    assert abs(gal - red) > 1e-3 * abs(red)


def test_coarse_symbol_vanishes_at_zero():
    spec = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    values = []
    for eps in (1e-2, 1e-3):
        theta0 = np.array([eps, eps / 2])
        values.append(tuple(abs(_coarse_symbol(FD2, spec, 1, mode, theta0))
                            for mode in (GALERKIN, REDISCRETIZED)))
    assert values[1][0] < 0.02 * values[0][0] + 1e-12
    assert values[1][1] < 0.02 * values[0][1] + 1e-12


def test_galerkin_correction_is_projection():
    rng = np.random.default_rng(17)
    spec = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    for k in (1, 2):
        b = np.pi / 2**k
        theta0 = rng.uniform(-b, b, size=2)
        blk = BlockEvaluator(_config(FD2, spec, k, GALERKIN)).block(theta0)
        c = coarse_correction_matrix(blk)
        assert np.max(np.abs(c @ c - c)) < 1e-10
        # the correction annihilates the prolongated coarse mode
        p = blk.prolongation
        assert np.max(np.abs(c @ p)) < 1e-10


def test_two_grid_block_smoke_value():
    spec = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    cfg = _config(FD2, spec, 1, REDISCRETIZED)
    rho = rho_two_grid(cfg)
    assert rho == pytest.approx(0.125, abs=5e-3)


@pytest.mark.parametrize("k,family,lam_policy,expected", [
    (2, BA1X, "auto", 0.221),
    (3, BA1X, "star", 0.148),
])
def test_rho_two_grid_reference(k, family, lam_policy, expected):
    deg = {2: 6, 3: 17}[k]
    lam0, _ = lambda_bounds(FD2, JACOBI, k, SAMPLING)
    if lam_policy == "star":
        lam0 = optimal_lambda0_smoothing(deg, lam0, 2.0)
    spec = SmootherSpec(family, deg, lam0, 2.0)
    rho = rho_two_grid(_config(FD2, spec, k, REDISCRETIZED))
    assert rho == pytest.approx(expected, abs=1e-2)


def test_rho_triangular_reference():
    lam0, _ = lambda_bounds(EQUI, JACOBI, 2, SAMPLING)
    spec = SmootherSpec(CHEBYSHEV, 5, lam0, 1.5)
    rho = rho_two_grid(_config(EQUI, spec, 2, GALERKIN))
    assert rho == pytest.approx(0.102, abs=1e-2)


@pytest.mark.parametrize("k,spec", [
    (1, SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)),
    (2, SmootherSpec(CHEBYSHEV, 6, 0.14644660940672627, 2.0)),
    (2, SmootherSpec(BA1X, 6, 0.14644660940672627, 2.0)),
    (3, SmootherSpec(BA1X, 17, 0.0568, 2.0)),
])
def test_rho_sampling_convergence(k, spec):
    rhos = []
    for n in (64, 128):
        cfg = TwoGridConfig(stencil=FD2, smoother=spec, k=k, nu1=1, nu2=0,
                            coarse_mode=REDISCRETIZED,
                            sampling=FrequencySampling(samples_per_axis=n))
        rhos.append(rho_two_grid(cfg))
    assert abs(rhos[0] - rhos[1]) < 2e-3


def test_rho_smoothing_monotonicity_bound():
    # two smoothing steps contract at least as well as one step times the
    # global symbol bound
    lam0, _ = lambda_bounds(FD2, JACOBI, 1, SAMPLING)
    spec = SmootherSpec(CHEBYSHEV, 2, lam0, 2.0)
    rho1 = rho_two_grid(_config(FD2, spec, 1, REDISCRETIZED))
    rho2 = rho_two_grid(_config(FD2, spec, 1, REDISCRETIZED, nu1=1, nu2=1))
    theta = np.linspace(-np.pi, np.pi, 257)
    grid = np.stack(np.meshgrid(theta, theta, indexing="ij"), axis=-1)
    from polymg import preconditioned_symbol
    sup_s = np.max(np.abs(error_poly(spec,
                                     preconditioned_symbol(FD2, JACOBI,
                                                           grid).ravel())))
    assert rho2 <= rho1 * sup_s + 1e-9


def test_optimal_lambda0_two_grid_improves_on_seed():
    spec = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    cfg = _config(FD2, spec, 1, REDISCRETIZED)
    seed_rho = rho_two_grid(cfg)
    lam0, rho, fallback = optimal_lambda0_two_grid(cfg)
    assert rho <= seed_rho + 1e-9
    assert lam0 == pytest.approx(0.405, abs=1e-2)
    assert rho == pytest.approx(0.111, abs=1e-2)
    assert not fallback


def test_optimal_lambda0_two_grid_refuses_sa():
    # SA ignores lambda0, so any lambda0 the search returned would be noise
    cfg = _config(FD2, SmootherSpec(SA, 2, 0.0, 2.0), 1, REDISCRETIZED)
    with pytest.raises(ValueError, match="lambda0"):
        optimal_lambda0_two_grid(cfg)


def test_lambda0_sweep_script_runs():
    # the sweep reads BlockEvaluator; it offers only families with a lambda0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, os.path.join(root, "scripts", "lambda0_sweep.py"),
            "--k", "1", "--degree", "2", "--samples", "16", "--points", "3"]
    for family, code in (("cheb", 0), ("sa", 2)):
        done = subprocess.run(argv + ["--family", family], env=env,
                              capture_output=True, text=True)
        assert done.returncode == code, done.stderr


def test_two_grid_config_validation():
    spec = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    with pytest.raises(ValueError):
        TwoGridConfig(stencil=FD2, smoother=spec, k=0)
    with pytest.raises(ValueError):
        TwoGridConfig(stencil=FD2, smoother=spec, k=1, nu1=0, nu2=0)
    with pytest.raises(ValueError):
        TwoGridConfig(stencil=FD2, smoother=spec, k=1, coarse_mode="exact")


RANK_ONE_CASES = (
    [(f"fd2d-k{k}", FD2, k, 32) for k in (1, 2, 3)]
    + [(f"fd3d-k{k}", FD3, k, 16) for k in (1, 2)]
    + [(f"{name}-k{k}", build_fem_tri_laplace(*angles), k, 32)
       for name, angles in TRI_PRESETS.items() for k in (1, 2, 3)])


def _sweep(stencil, k, samples, mode, nu1=1, nu2=0):
    sampling = FrequencySampling(samples_per_axis=samples)
    cfg = TwoGridConfig(stencil=stencil,
                        smoother=SmootherSpec(CHEBYSHEV, 3, 0.3, 2.0), k=k,
                        nu1=nu1, nu2=nu2, coarse_mode=mode,
                        sampling=sampling)
    lows, _ = sample_frequencies(stencil.geometry, k, sampling)
    return BlockEvaluator(cfg), lows


def _count_dense(monkeypatch):
    """Count the blocks sent to the dense eigenvalue fallback."""
    seen = []

    def counted(stack):
        seen.append(len(stack))
        return spectral_radii(stack)

    monkeypatch.setattr(lfa, "spectral_radii", counted)
    return seen


@pytest.mark.parametrize("mode", [GALERKIN, REDISCRETIZED])
@pytest.mark.parametrize("name,stencil,k,samples", RANK_ONE_CASES,
                         ids=[case[0] for case in RANK_ONE_CASES])
def test_symmetric_radii_match_dense(name, stencil, k, samples, mode,
                                     monkeypatch):
    dense = _count_dense(monkeypatch)
    for nu1, nu2 in ((1, 0), (1, 1), (0, 2)):
        blocks, lows = _sweep(stencil, k, samples, mode, nu1, nu2)
        radii = blocks.radii(blocks.cfg.smoother, lows)
        want = spectral_radii(np.stack([two_grid_block(blocks.cfg, t)
                                        for t in lows]))
        assert np.max(np.abs(radii - want)) < 1e-12
    assert dense == []


def test_radii_in_batches_match_one_batch(monkeypatch):
    blocks, lows = _sweep(FD2, 2, 32, REDISCRETIZED)
    spec = blocks.cfg.smoother
    whole = blocks.radii(spec, lows)
    monkeypatch.setattr(lfa, "BATCH_ENTRIES", 5 * 16**2)
    assert np.array_equal(blocks.radii(spec, lows), whole)


#: a reaction term lifts the fine symbol: rediscretized gamma exceeds 1
REACTION = Stencil(geometry=FD2.geometry, offsets=FD2.offsets,
                   coefficients=(4.5,) + FD2.coefficients[1:])
BATCH_CASES = (
    [(f"fd2d-k{k}", FD2, k, 32) for k in (1, 2, 3)]
    + [(f"equilateral-k{k}", EQUI, k, 32) for k in (1, 2, 3)]
    + [(f"fd3d-k{k}", FD3, k, 16) for k in (1, 2)]
    + [("reaction-k1", REACTION, 1, 16)])


@pytest.mark.parametrize("mode", [GALERKIN, REDISCRETIZED])
@pytest.mark.parametrize("name,stencil,k,samples", BATCH_CASES,
                         ids=[case[0] for case in BATCH_CASES])
def test_radii_are_batch_invariant(name, stencil, k, samples, mode,
                                   monkeypatch):
    # the polish evaluates each point in whichever batch its round builds
    dense = _count_dense(monkeypatch)
    blocks, lows = _sweep(stencil, k, samples, mode)
    spec = blocks.cfg.smoother
    single = np.array([blocks.radii(spec, lows[i:i + 1])[0]
                       for i in range(len(lows))])
    for size in (3, 4, 12, len(lows)):
        batched = np.concatenate([blocks.radii(spec, lows[i:i + size])
                                  for i in range(0, len(lows), size)])
        assert np.array_equal(batched, single), size
    if stencil is REACTION and mode == REDISCRETIZED:
        assert sum(dense) > 0


def _search_alone(blocks, x0, maxiter, speculate):
    """One polish search run by itself: (value, iterations, shrinks).

    A shrink asks for its n = 2 or 3 moved vertices at once; every other
    request holds one trial point or all four.
    """
    run = symbols._nelder_mead(x0, maxiter, lfa.POLISH_XATOL,
                               lfa.POLISH_FATOL, speculate)
    points, shrinks = next(run), 0
    try:
        while True:
            points = run.send(lfa._negated_radii(blocks, blocks.cfg.smoother,
                                                 points))
            shrinks += len(points) == len(x0)
    except StopIteration as done:
        value, iterations = done.value
        return -value, iterations, shrinks


POLISH_CASES = ((FD2, 2, REDISCRETIZED, CHEBYSHEV, 32),
                (FD2, 3, GALERKIN, CHEBYSHEV, 32),
                (EQUI, 1, GALERKIN, CHEBYSHEV, 32),
                (EQUI, 2, GALERKIN, BA1X, 32),
                (FD3, 1, REDISCRETIZED, BA1X, 16))


@pytest.mark.parametrize("maxiter", [60, 200])
def test_lockstep_polish_matches_scipy(maxiter):
    stopped = shrunk = 0
    speculated = set()
    for stencil, k, mode, family, samples in POLISH_CASES:
        sampling = FrequencySampling(samples_per_axis=samples)
        blocks = BlockEvaluator(TwoGridConfig(
            stencil=stencil, smoother=SmootherSpec(family, 3, 0.3, 2.0),
            k=k, coarse_mode=mode, sampling=sampling))
        speculated.add(bool(blocks.m_d <= lfa.SPECULATE_MAX_BLOCK))
        lows, _ = sample_frequencies(stencil.geometry, k, sampling)
        # a start next to zero: its first vertices score 0 alike, so the
        # initial sorts meet tied values
        tied = np.array([1e-6] + [0.0] * (lows.shape[1] - 1))
        spec = blocks.cfg.smoother
        first = lfa._negated_radii(blocks, spec, next(symbols._nelder_mead(
            tied, maxiter, lfa.POLISH_XATOL, lfa.POLISH_FATOL, False)))
        assert len(set(first.tolist())) < len(first)
        starts = np.vstack([
            lows[np.argsort(blocks.radii(spec, lows))[::-1][:3]], tied])
        together = lfa._lockstep_polish(blocks, spec, starts, maxiter)
        for x0, value in zip(starts, together):
            want, nit = scipy_polish_rho(blocks, spec, x0, maxiter)
            for speculate in (False, True):
                alone, iterations, shrinks = _search_alone(
                    blocks, x0, maxiter, speculate)
                assert (alone, iterations) == (want, nit)
            assert value == want
            stopped += iterations == maxiter
            shrunk += shrinks > 0
    # both trial modes ran, and the shrink branch and iteration cap were hit
    assert speculated == {False, True}
    assert stopped > 0 and shrunk > 0


def test_all_fast_batch_matches_rows_beside_dense_fallback(monkeypatch):
    # a batch with no dense row returns its symmetric-form radii as they
    # are; they equal those of the same rows beside a dense row
    dense = _count_dense(monkeypatch)
    blocks, lows = _sweep(FD2, 2, 32, REDISCRETIZED)
    spec = blocks.cfg.smoother
    alone = blocks.block_radii(spec, blocks.block(lows[1:]))
    mixed = blocks.block(lows)
    p = mixed.prolongation[0]
    mixed.coarse_symbol[0] = np.sum(p * p * mixed.fine_symbols[0].real) / 1.5
    mixed = blocks.harmonic_block(mixed.fine_symbols, mixed.prolongation,
                                  mixed.coarse_symbol)
    together = blocks.block_radii(spec, mixed)
    assert dense == [1]
    assert np.array_equal(together[1:], alone)
    # a polish batch with a point at zero scores the live points alike
    live = lows[:3]
    points = np.vstack([np.zeros((1, 2)), live])
    assert np.array_equal(lfa._negated_radii(blocks, spec, points)[1:],
                          lfa._negated_radii(blocks, spec, live))


LAMBDA0_SEARCH_CASES = (
    [(f"fd2d-k{k}-{family}", FD2, k, family, SMOOTHING_DEGREES[2][k],
      LAMBDA1_2D, REDISCRETIZED)
     for k in (1, 2, 3) for family in (CHEBYSHEV, BA1X)]
    + [(f"isosceles-80-k2-{mode}",
        build_fem_tri_laplace(*TRI_PRESETS["isosceles-80"]), 2, CHEBYSHEV,
        TRI_DEGREES["isosceles-80"][2], LAMBDA1_ISOSCELES, mode)
       for mode in (GALERKIN, REDISCRETIZED)])


@pytest.mark.parametrize("name,stencil,k,family,degree,lam1,mode",
                         LAMBDA0_SEARCH_CASES,
                         ids=[case[0] for case in LAMBDA0_SEARCH_CASES])
def test_lambda0_search_matches_per_call_search(name, stencil, k, family,
                                                degree, lam1, mode):
    # the search shares the lattice's smoother-free blocks between its
    # evaluations; each value is still that of a lone rho_two_grid call
    cfg = TwoGridConfig(stencil=stencil,
                        smoother=SmootherSpec(family, degree, lam1 / 4, lam1),
                        k=k, coarse_mode=mode,
                        sampling=FrequencySampling(samples_per_axis=32))
    assert optimal_lambda0_two_grid(cfg) == per_call_lambda0_two_grid(cfg)


def test_gamma_above_one_takes_dense_fallback(monkeypatch):
    dense = _count_dense(monkeypatch)
    blocks, lows = _sweep(FD2, 2, 32, REDISCRETIZED)
    spec = blocks.cfg.smoother
    blk = blocks.block(lows)
    p = blk.prolongation
    norm2 = np.sum(p * p * blk.fine_symbols.real, axis=-1)
    raised = np.arange(len(lows)) % 3 == 0
    # gamma = norm2 / a_H = 1.5 on every third block
    blk = blocks.harmonic_block(blk.fine_symbols, blk.prolongation, np.where(
        raised, norm2 / 1.5, blk.coarse_symbol))
    radii = blocks.block_radii(spec, blk)
    assert dense == [np.count_nonzero(raised)]
    want = spectral_radii(blocks.dense(spec, blk))
    assert np.max(np.abs(radii - want)) < 1e-12
    assert not np.allclose(radii[raised], spectral_radii(
        blocks.dense(spec, blocks.block(lows[raised]))))


@pytest.mark.parametrize("mode", [GALERKIN, REDISCRETIZED])
def test_two_grid_refuses_nonsymmetric_stencil(mode):
    # the smoother symbol is built from Re A~, which is wrong for upwinding;
    # the symmetry test is relative, so scaling does not hide the skew
    for scale in (1.0, 1e-15):
        upwind = Stencil(geometry=FD2.geometry,
                         offsets=((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)),
                         coefficients=tuple(scale * c for c in
                                            (5.0, -1.0, -2.0, -1.0, -1.0)))
        with pytest.raises(ValueError, match="requires a symmetric stencil"):
            _config(upwind, SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0), 1, mode)
        with pytest.raises(ValueError, match="symmetric"):
            lambda_bounds(upwind, JACOBI, 1)


def test_zero_order_term_takes_dense_fallback(monkeypatch):
    dense = _count_dense(monkeypatch)
    blocks, lows = _sweep(REACTION, 1, 16, REDISCRETIZED)
    radii = blocks.radii(blocks.cfg.smoother, lows)
    assert sum(dense) > 0
    want = spectral_radii(np.stack([two_grid_block(blocks.cfg, t)
                                    for t in lows]))
    assert np.max(np.abs(radii - want)) < 1e-12

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import splu as sla_splu

from polymg import (BA1X, CHEBYSHEV, GALERKIN, JACOBI, L1_JACOBI,
                    REDISCRETIZED, SA, CycleSpec, Multigrid, SmootherSpec,
                    Stencil, TwoGridConfig, apply_operator, build_fd_laplace,
                    build_fem_tri_laplace, lambda_bounds,
                    make_grid_level, measure_asymptotic_rate, prolongate,
                    rectangular, restrict, rho_two_grid, triangular)
from polymg.multigrid import (GridLevel, assemble_matrix,
                              factor_coarsest, galerkin_stencil,
                              is_axis_even, prolongation_matrix)
from polymg.stencils import transfer_table
from polymg.tables import (DOCUMENTED_DISCREPANCIES, LAMBDA1_EQUILATERAL,
                           LAMBDA1_ISOSCELES, TRI_DEGREES, TRI_PRESETS)

from oracles import (Q1_STENCIL, TABLE_DEGREES, apply_interior,
                     apply_smoother, assemble_fd_matrix,
                     bilinear_weight_stencil, closed_form_error,
                     galerkin_matrices, separable_prolongate,
                     separable_prolongation_matrix, separable_restrict,
                     strided_apply_operator, unfused_smooth)

CHEB = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
FD2_GEOMETRY = rectangular(1.0, 2)
EQUILATERAL = triangular(math.pi / 3, math.pi / 3)

#: a non-symmetric (upwinded) 5-point stencil
UPWIND = Stencil(geometry=FD2_GEOMETRY,
                 offsets=((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)),
                 coefficients=(5.0, -1.0, -2.0, -1.0, -1.0))


def test_apply_operator_zero():
    level = make_grid_level(9, 2)
    assert np.all(apply_operator(level, np.zeros(level.padded_shape)) == 0.0)


def test_apply_operator_eigenmodes():
    n = 15
    level = make_grid_level(n, 2)
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    for (i, j) in [(1, 1), (3, 5), (7, 2)]:
        u = np.outer(np.sin(i * np.pi * x), np.sin(j * np.pi * x))
        lam = (4 - 2 * np.cos(i * np.pi * h) - 2 * np.cos(j * np.pi * h)) / h**2
        assert np.max(np.abs(apply_interior(level, u) - lam * u)) < 1e-10 * lam


def _q1_level(n):
    return GridLevel((n, n), Stencil.from_dict(Q1_STENCIL))


def _galerkin_level(n):
    """The 27-point Galerkin stencil of the 7-point Laplacian, k = 1."""
    fine = build_fd_laplace(rectangular(1.0, 3))
    return GridLevel((n,) * 3, galerkin_stencil(fine, 1))


def _anisotropic_level(n):
    """hx = 1, hy = 1/2: two off-centre coefficient groups."""
    return GridLevel((n, n), build_fd_laplace(rectangular((1.0, 0.5))))


@pytest.mark.parametrize("dimension,n,make,groups", [
    pytest.param(2, 7, None, 2, id="2-7"),
    pytest.param(3, 5, None, 2, id="3-5"),
    pytest.param(2, 7, _q1_level, 2, id="q1"),
    pytest.param(3, 5, _galerkin_level, 4, id="galerkin-27"),
    pytest.param(2, 7, _anisotropic_level, 3, id="anisotropic"),
])
def test_apply_operator_matches_dense_assembly(dimension, n, make, groups,
                                               monkeypatch):
    # groups = multiplies per application: one per distinct coefficient
    level = make_grid_level(n, dimension) if make is None else make(n)
    assert len(level.plan.terms) == groups
    rng = np.random.default_rng(1)
    u = rng.standard_normal(level.shape)
    got = apply_interior(level, u).ravel()
    want = assemble_matrix(level) @ u.ravel()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if make is None:
        a = assemble_fd_matrix(n, dimension)
        assert np.max(np.abs(got - a @ u.ravel())) < 1e-9 * np.max(np.abs(got))
    # blocks of any length, their edges on halo points too, give the
    # strided kernel's values bit for bit and a zero halo
    import polymg.multigrid as mg_module

    want = strided_apply_operator(level, u)
    halo = np.ones(level.padded_shape, dtype=bool)
    level.interior(halo)[...] = False
    for chunk in (1, 7, 64, mg_module.CHUNK):
        monkeypatch.setattr(mg_module, "CHUNK", chunk)
        out = apply_operator(level, level.pad(u))
        assert np.array_equal(level.interior(out), want), chunk
        assert np.all(out[halo] == 0.0), chunk
    for dtype, want_dtype in ((np.float32, np.float32), (int, np.float64)):
        padded = level.pad(u).astype(dtype)
        assert apply_operator(level, padded).dtype == want_dtype


def test_apply_operator_rejects_interior_shaped_vectors():
    level = make_grid_level(7, 2)
    with pytest.raises(ValueError, match="padded"):
        apply_operator(level, np.zeros(level.shape))
    with pytest.raises(ValueError, match="level shape"):
        level.pad(np.zeros(level.padded_shape))


def test_assemble_matrix_consistent_with_apply():
    level = make_grid_level(7, 2)
    a = assemble_matrix(level)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(level.shape)
    assert np.allclose(a @ u.ravel(), apply_interior(level, u).ravel())


def test_prolongate_reproduces_multilinear():
    # interior away from the boundary layer: exact reproduction of a
    # globally (multi)linear function
    nc, k = 7, 2
    m = 2**k
    nf = m * (nc + 1) - 1
    hc, hf = 1.0 / (nc + 1), 1.0 / (nf + 1)
    xc = np.arange(1, nc + 1) * hc
    xf = np.arange(1, nf + 1) * hf
    f = lambda x, y: 0.3 * x - 0.7 * y + 0.1
    coarse = f(xc[:, None], xc[None, :])
    want = f(xf[:, None], xf[None, :])
    inner = slice(m, nf - m)
    for geometry in (FD2_GEOMETRY, EQUILATERAL):
        # the P1 pyramid reproduces linear functions of lattice coordinates
        fine = prolongate(coarse, k, geometry)
        assert np.max(np.abs(fine[inner, inner] - want[inner, inner])) < 1e-13


def test_transfer_adjointness():
    rng = np.random.default_rng(3)
    for geometry, nc, k in [(FD2_GEOMETRY, 7, 1), (FD2_GEOMETRY, 3, 2),
                            (rectangular(1.0, 3), 3, 1), (EQUILATERAL, 7, 1),
                            (EQUILATERAL, 3, 2), (EQUILATERAL, 3, 3)]:
        dimension = geometry.dimension
        m = 2**k
        nf = m * (nc + 1) - 1
        c = rng.standard_normal((nc,) * dimension)
        f = rng.standard_normal((nf,) * dimension)
        lhs = np.vdot(prolongate(c, k, geometry), f)
        rhs = 2.0 ** (k * dimension) * np.vdot(c, restrict(f, k, geometry))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        p = prolongation_matrix(c.shape, k, geometry)
        assert np.allclose(p @ c.ravel(), prolongate(c, k, geometry).ravel(),
                           rtol=0, atol=1e-13)


@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 4)], ids=["2d", "3d"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_rectangular_transfers_equal_separable_reference(shape, k):
    geometry = rectangular(1.0, len(shape))
    m = 2**k
    rng = np.random.default_rng(k)
    c = rng.standard_normal(shape)
    f = rng.standard_normal(tuple(m * (n + 1) - 1 for n in shape))
    assert np.array_equal(prolongate(c, k, geometry),
                          separable_prolongate(c, k))
    assert np.array_equal(restrict(f, k, geometry), separable_restrict(f, k))
    got = prolongation_matrix(shape, k, geometry)
    want = separable_prolongation_matrix(shape, k)
    assert np.array_equal(got.toarray(), want.toarray())
    assert np.array_equal(got.indices, want.indices)


def test_k1_weights_are_classical_bilinear():
    axes, offsets, w = transfer_table(((0, 1), (0, 1)), 1)
    assert axes == (1,)
    assert np.array_equal(offsets.ravel(), [-1, 0, 1])
    assert np.allclose(w, [0.5, 1.0, 0.5])
    weights = bilinear_weight_stencil()
    coarse = np.zeros((3, 3))
    coarse[1, 1] = 1.0
    fine = prolongate(coarse, 1, FD2_GEOMETRY)
    center = (3 + 1) * 2 // 2 - 1
    for (i, j), val in weights.items():
        assert fine[center + i, center + j] == pytest.approx(val)


def test_restrict_incompatible_size():
    with pytest.raises(ValueError):
        restrict(np.zeros((6, 6)), 1, FD2_GEOMETRY)


def _dense_smoother_oracle(n, spec, r):
    """q(D^{-1}A) D^{-1} r via a dense generalized eigendecomposition.

    q comes from the family's closed form, which shares no code with the
    recurrence the solver runs.
    """
    a = assemble_fd_matrix(n, 2)
    d = np.diag(a).copy()
    w, v = sla.eigh(a, np.diag(d))
    coeffs = (1.0 - closed_form_error(spec, w)) / w
    return (v @ (coeffs * (v.T @ r.ravel()))).reshape(r.shape)


@pytest.mark.parametrize("spec", [
    SmootherSpec(CHEBYSHEV, 3, 0.5, 2.0),
    SmootherSpec(BA1X, 4, 0.4, 2.0),  # 0.3 is inadmissible at degree 1
    SmootherSpec(SA, 3, 0.0, 2.0),
])
def test_apply_smoother_matches_eigenbasis_oracle(spec):
    n = 7
    level = make_grid_level(n, 2)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(level.shape)
    r_in = r.copy()
    for degree in TABLE_DEGREES:
        at_degree = replace(spec, degree=degree)
        got = apply_smoother(level, at_degree, JACOBI, r)
        assert np.array_equal(r, r_in), degree
        want = _dense_smoother_oracle(n, at_degree, r)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want)), \
            degree


def test_smoother_eigenmode_damping():
    # error propagation e <- e - R A e damps FD eigenmodes by e(X~)
    from polymg import error_poly

    n, spec = 7, SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    level = make_grid_level(n, 2)
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    for (i, j) in [(1, 2), (4, 4), (7, 3)]:
        e = np.outer(np.sin(i * np.pi * x), np.sin(j * np.pi * x))
        lam = (4 - 2 * np.cos(i * np.pi * h) - 2 * np.cos(j * np.pi * h)) / h**2
        xtilde = lam * h**2 / 4.0
        new = e - apply_smoother(level, spec, JACOBI, apply_interior(level, e))
        damping = float(error_poly(spec, xtilde))
        assert np.max(np.abs(new - damping * e)) < 1e-8


def test_degree_zero_chebyshev():
    level = make_grid_level(7, 2)
    rng = np.random.default_rng(6)
    r = rng.standard_normal(level.shape)
    spec = SmootherSpec(CHEBYSHEV, 0, 0.5, 2.0)
    zeta = 2.0 / 2.5
    diag = level.stencil.center
    assert np.allclose(apply_smoother(level, spec, JACOBI, r),
                       zeta * r / diag)


#: every degree the fused-smoother tests run: 0, 1 and the table degrees
SMOOTH_DEGREES = (0, 1) + TABLE_DEGREES


def _spec(family, degree):
    """``family`` at ``degree`` on (lambda0, 2]; ba1x of degree 0 needs
    lambda0 > 2/3 to be admissible."""
    lam0 = {CHEBYSHEV: 0.5, BA1X: 0.4 if degree else 1.0, SA: 0.0}[family]
    return SmootherSpec(family, degree, lam0, 2.0)


def _counting_apply_operator(monkeypatch):
    """Counts ``apply_operator`` calls through a wrapper that, like the
    benchmark tracer's counter, takes exactly (level, u)."""
    import polymg.multigrid as mg_module

    counts = {"n": 0}
    original = mg_module.apply_operator

    def counting(level, u):
        counts["n"] += 1
        return original(level, u)

    monkeypatch.setattr(mg_module, "apply_operator", counting)
    return counts


def test_smoother_operator_application_count(monkeypatch):
    # the unfused oracle costs degree applications, and a fine-level
    # Multigrid.smooth degree + 1 in both coarse modes, 2D and 3D: its
    # residual, then one per step
    level = make_grid_level(7, 2)
    r = np.random.default_rng(7).standard_normal(level.shape)
    counts = _counting_apply_operator(monkeypatch)
    for family, lam0 in ((CHEBYSHEV, 0.5), (BA1X, 0.4), (SA, 0.0)):
        for degree in TABLE_DEGREES:
            spec = SmootherSpec(family, degree, lam0, 2.0)
            counts["n"] = 0
            apply_smoother(level, spec, JACOBI, r)
            assert counts["n"] == degree, (family, degree)
    rng = np.random.default_rng(7)
    for coarse_mode, (dimension, n), family, degree in itertools.product(
            (REDISCRETIZED, GALERKIN), ((2, 15), (3, 7)),
            (CHEBYSHEV, BA1X, SA), SMOOTH_DEGREES):
        mg = Multigrid(CycleSpec(kind="v", k=1, smoother=_spec(
            family, degree), coarse_mode=coarse_mode), n, dimension)
        fine = mg.levels[0]
        f, u = (fine.pad(v) for v in rng.standard_normal((2,) + mg.shape))
        counts["n"] = 0
        mg.smooth(0, f, u)
        assert counts["n"] == degree + 1, (coarse_mode, dimension, family,
                                           degree)


def test_inadmissible_spec_rejected():
    level = make_grid_level(7, 2)
    bad = SmootherSpec(BA1X, 1, 0.001, 2.0)
    with pytest.raises(ValueError, match="inadmissible"):
        apply_smoother(level, bad, JACOBI, np.zeros(level.shape))


def test_two_grid_galerkin_projection_smoke():
    # exact coarse solve + Galerkin coarse operator + no smoothing:
    # the restricted residual vanishes after one correction
    spec = CycleSpec(kind="two-grid", k=1, smoother=CHEB, pre=0, post=0,
                     coarse_mode=GALERKIN)
    mg = Multigrid(spec, 15, 2)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(mg.shape)
    u = mg.cycle(rhs, np.zeros_like(rhs))
    residual = rhs - apply_interior(mg.levels[0], u)
    coarse_part = restrict(residual, 1, FD2_GEOMETRY)
    assert np.max(np.abs(coarse_part)) < 1e-10 * np.max(np.abs(rhs))


def test_v_cycle_symmetry_in_a_inner_product():
    spec = CycleSpec(kind="v", k=1, smoother=CHEB, pre=1, post=1)
    mg = Multigrid(spec, 15, 2)
    rng = np.random.default_rng(9)
    zero = np.zeros(mg.shape)

    def error_op(e):
        return mg.cycle(zero, e)

    a_apply = lambda u: apply_interior(mg.levels[0], u)
    for _ in range(3):
        e1 = rng.standard_normal(mg.shape)
        e2 = rng.standard_normal(mg.shape)
        lhs = np.vdot(a_apply(error_op(e1)), e2)
        rhs = np.vdot(a_apply(e1), error_op(e2))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-8


def test_measured_rate_matches_lfa_prediction():
    spec = CycleSpec(kind="two-grid", k=1, smoother=CHEB, pre=1, post=0)
    report = measure_asymptotic_rate(spec, 127, 2, iterations=60)
    assert report.rate == pytest.approx(0.126, abs=1.5e-2)
    assert all(r <= 1.0 + 1e-9 for r in report.ratios)


def test_v_cycle_rate_and_grid_robustness():
    spec = CycleSpec(kind="v", k=1, smoother=CHEB, pre=1, post=1)
    rates = [measure_asymptotic_rate(spec, n, 2, iterations=40).rate
             for n in (127, 255)]
    assert abs(rates[0] - rates[1]) < 0.01
    assert rates[1] == pytest.approx(0.111, abs=1.5e-2)


def test_w_cycle_converges_at_least_as_fast_as_v():
    spec_v = CycleSpec(kind="v", k=2, smoother=SmootherSpec(BA1X, 6, 0.146, 2.0),
                       pre=1, post=1)
    spec_w = CycleSpec(kind="w", k=2, smoother=SmootherSpec(BA1X, 6, 0.146, 2.0),
                       pre=1, post=1)
    rv = measure_asymptotic_rate(spec_v, 63, 2, iterations=40).rate
    rw = measure_asymptotic_rate(spec_w, 63, 2, iterations=40).rate
    assert rw <= rv + 5e-3


def test_galerkin_coarse_mode_runs():
    spec = CycleSpec(kind="v", k=1, smoother=CHEB, pre=1, post=1,
                     coarse_mode=GALERKIN)
    report = measure_asymptotic_rate(spec, 31, 2, iterations=40)
    assert report.rate < 0.2


def test_rate_measurement_guards():
    spec = CycleSpec(kind="v", k=1, smoother=CHEB, pre=1, post=1)
    with pytest.raises(ValueError, match="30"):
        measure_asymptotic_rate(spec, 31, 2, iterations=10)
    with pytest.raises(ValueError):
        Multigrid(spec, 4, 2)  # 4+1 not divisible by 2
    with pytest.raises(ValueError):
        Multigrid(CycleSpec(kind="v", k=1, smoother=CHEB, pre=0, post=0),
                  31, 2)


def test_hierarchy_depth_and_levels_cap():
    spec = CycleSpec(kind="v", k=1, smoother=CHEB)
    assert len(Multigrid(spec, 255, 2).levels) == 8
    spec3 = CycleSpec(kind="v", k=3, smoother=CHEB)
    assert len(Multigrid(spec3, 63, 2).levels) == 2
    capped = CycleSpec(kind="v", k=1, smoother=CHEB, levels=3)
    assert len(Multigrid(capped, 255, 2).levels) == 3
    two = CycleSpec(kind="two-grid", k=1, smoother=CHEB)
    assert len(Multigrid(two, 255, 2).levels) == 2


@pytest.mark.parametrize("levels", [1, 0, -1])
def test_cycle_spec_needs_two_levels(levels):
    # a one-level hierarchy has no coarse grid to correct from
    with pytest.raises(ValueError, match="levels"):
        CycleSpec(kind="v", k=1, smoother=CHEB, levels=levels)


@pytest.mark.parametrize("stencil,dimension,n,k", [
    (None, 2, 255, 1), (None, 2, 255, 2), (None, 2, 255, 3),
    (None, 3, 63, 1), (None, 3, 63, 2), (UPWIND, 2, 255, 1),
    (UPWIND, 2, 255, 2)], ids=["2-255-1", "2-255-2", "2-255-3", "3-63-1",
                               "3-63-2", "upwind-2-255-1", "upwind-2-255-2"])
def test_galerkin_levels_match_full_grid_products(stencil, dimension, n, k):
    # UPWIND is not symmetric: a coarse stencil read with its rows and
    # columns swapped fails on it
    spec = CycleSpec(kind="v", k=k, smoother=CHEB, coarse_mode=GALERKIN)
    mg = Multigrid(spec, n, dimension, stencil=stencil)
    want = galerkin_matrices(assemble_matrix(mg.levels[0]), k,
                             [level.shape for level in mg.levels[1:]])
    for level, a in zip(mg.levels[1:], want[1:]):
        diff = abs(assemble_matrix(level) - a)
        assert diff.nnz == 0 or diff.max() <= 1e-14 * abs(a).max()


def test_rediscretized_levels_are_the_built_in_laplacians():
    for dimension, n, k in [(2, 255, 1), (2, 255, 3), (3, 63, 2)]:
        mg = Multigrid(CycleSpec(kind="v", k=k, smoother=CHEB), n, dimension)
        for level in mg.levels:
            assert level == make_grid_level(level.shape[0], dimension)
        # a unit-width stencil is rescaled to the grid, bit for bit
        user = Multigrid(CycleSpec(kind="v", k=k, smoother=CHEB), n, dimension,
                         stencil=build_fd_laplace(rectangular(1.0, dimension)))
        assert user.levels == mg.levels


def test_stencil_offsets_beyond_one_cell_rejected():
    wide = build_fd_laplace(rectangular(1.0, 2))
    wide = Stencil(geometry=wide.geometry, offsets=wide.offsets + ((2, 0),),
                   coefficients=wide.coefficients + (-0.1,))
    with pytest.raises(ValueError, match="offsets"):
        GridLevel((7, 7), wide)
    with pytest.raises(ValueError, match="offsets"):
        Multigrid(CycleSpec(kind="v", k=1, smoother=CHEB), 31, 2, stencil=wide)
    with pytest.raises(ValueError, match="3D"):
        Multigrid(CycleSpec(kind="v", k=1, smoother=CHEB), 7, 3,
                  stencil=build_fd_laplace(rectangular(1.0, 2)))


def test_galerkin_smooth_operator_application_count(monkeypatch):
    # degree + 1 on every smoothed level, Galerkin ones (27-point in 3D)
    # and rediscretized ones, 2D and 3D
    counts = _counting_apply_operator(monkeypatch)
    rng = np.random.default_rng(10)
    for coarse_mode, (dimension, n), degree in itertools.product(
            (GALERKIN, REDISCRETIZED), ((2, 31), (3, 15)), (0, 3)):
        spec = SmootherSpec(CHEBYSHEV, degree, 0.5, 2.0)
        mg = Multigrid(CycleSpec(kind="v", k=1, smoother=spec,
                                 coarse_mode=coarse_mode), n, dimension)
        for idx, level in enumerate(mg.levels[:-1]):
            counts["n"] = 0
            mg.smooth(idx, level.pad(rng.standard_normal(level.shape)),
                      np.zeros(level.padded_shape))
            assert counts["n"] == spec.degree + 1, (coarse_mode, dimension,
                                                    degree, idx)


@pytest.mark.parametrize("coarse_mode", [REDISCRETIZED, GALERKIN])
def test_smooth_and_cycle_leave_inputs_unmodified(coarse_mode):
    # the in-place smoother equals u + R (f - A u) written out, and writes
    # into neither f nor u
    mg = Multigrid(CycleSpec(kind="v", k=1, smoother=CHEB,
                             coarse_mode=coarse_mode), 15, 2)
    rng = np.random.default_rng(11)
    for idx, level in enumerate(mg.levels[:-1]):
        f, u = (level.pad(v) for v in rng.standard_normal((2,) + level.shape))
        f_in, u_in = f.copy(), u.copy()
        got = mg.smooth(idx, f, u)
        assert np.array_equal(f, f_in) and np.array_equal(u, u_in)
        want = unfused_smooth(level, CHEB, JACOBI, f, u)
        assert np.array_equal(got, want), idx
    f, u = rng.standard_normal((2,) + mg.shape)
    f_in, u_in = f.copy(), u.copy()
    mg.cycle(f, u)
    assert np.array_equal(f, f_in) and np.array_equal(u, u_in)


@pytest.mark.parametrize("degree", [2, 3])
def test_steady_state_smooth_allocates_only_its_result(degree):
    # the residual, the ping-pong vector not returned and the operator's
    # blocks are shared work vectors; the returned vector is a fresh array
    spec = SmootherSpec(CHEBYSHEV, degree, 0.25, 2.0)
    mg = Multigrid(CycleSpec(kind="v", k=1, smoother=spec), 31, 3)
    fine = mg.levels[0]
    f, u = (fine.pad(v) for v in np.random.default_rng(14).standard_normal(
        (2,) + mg.shape))
    first = mg.smooth(0, f, u)
    want = first.copy()
    tracemalloc.start()
    try:
        second = mg.smooth(0, f, u)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second.nbytes <= current and peak < 2 * second.nbytes
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, want) and np.array_equal(second, want)


def test_shared_work_vectors_live_while_a_hierarchy_does():
    import gc

    import polymg.multigrid as mg_module

    def held():  # 25^2: the padded fine level, a size no other test uses
        return [key for key in mg_module._WORK.keys() if key[0] == 25**2]

    spec = CycleSpec(kind="v", k=1, smoother=CHEB)
    mg, twin = Multigrid(spec, 23, 2), Multigrid(spec, 23, 2)
    assert len(held()) == 2  # slot 0: smooth and residual; slot 1: cycle
    assert all(any(a is b for b in twin._work) for a in mg._work)
    rng = np.random.default_rng(15)
    first = mg.cycle(np.zeros(mg.shape), rng.standard_normal(mg.shape))
    want = first.copy()
    second = twin.cycle(np.zeros(mg.shape), rng.standard_normal(mg.shape))
    assert np.array_equal(first, want) and not np.shares_memory(first,
                                                                 second)
    del mg, twin
    gc.collect()
    assert held() == []


def _full_range_fused(level, u, epilogue):
    """``multigrid._fused`` unblocked: the whole range of a plain
    ``apply_operator`` handed to the epilogue at once."""
    lo, hi = level.plan.lo, level.plan.hi
    epilogue(lo, hi, apply_operator(level, u).ravel()[lo:hi])


@pytest.mark.parametrize("preconditioner", [JACOBI, L1_JACOBI])
@pytest.mark.parametrize("coarse_mode", [REDISCRETIZED, GALERKIN])
@pytest.mark.parametrize("dimension,n", [(2, 15), (3, 7)], ids=["2d", "3d"])
def test_fused_smooth_and_cycle_equal_the_unfused_smoother(
        dimension, n, coarse_mode, preconditioner, monkeypatch):
    # blocks of any length give the unfused smoother's values bit for bit,
    # on 15^2, 7^2 and 3^2 (2D) and 7^3 and 3^3 (3D) levels; every 7^2 range
    # is shorter than a default block.  The cycle is compared against one
    # whose smooths are the unfused oracle and whose f - A u is unblocked.
    import polymg.multigrid as mg_module

    rng = np.random.default_rng(12)
    for family in (CHEBYSHEV, BA1X, SA):
        for degree in SMOOTH_DEGREES:
            spec = _spec(family, degree)
            mg = Multigrid(CycleSpec(kind="v", k=1, smoother=spec,
                                     preconditioner=preconditioner,
                                     coarse_mode=coarse_mode), n, dimension)
            rhs, u0 = rng.standard_normal((2,) + mg.shape)
            vectors = [[level.pad(v) for v in
                        rng.standard_normal((2,) + level.shape)]
                       for level in mg.levels[:-1]]
            want = [unfused_smooth(level, spec, preconditioner, f, u)
                    for level, (f, u) in zip(mg.levels, vectors)]
            with monkeypatch.context() as m:
                m.setattr(mg_module, "_fused", _full_range_fused)
                m.setattr(mg, "smooth", lambda idx, f, u: unfused_smooth(
                    mg.levels[idx], spec, preconditioner, f, u))
                want_cycle = mg.cycle(rhs, u0)
            chunks = (1, 7, 61, mg_module.CHUNK) if degree < 4 else \
                (61, mg_module.CHUNK)  # CHUNK = 1 takes a second at 43
            for chunk in chunks:
                monkeypatch.setattr(mg_module, "CHUNK", chunk)
                case = (family, degree, chunk)
                for idx, (f, u) in enumerate(vectors):
                    assert np.array_equal(mg.smooth(idx, f, u), want[idx]), \
                        case + (idx,)
                assert np.array_equal(mg.cycle(rhs, u0), want_cycle), case
            monkeypatch.undo()


def test_a_raising_epilogue_leaves_apply_operator_plain():
    import polymg.multigrid as mg_module

    level = make_grid_level(7, 2)
    u = level.pad(np.random.default_rng(13).standard_normal(level.shape))
    want = apply_operator(level, u)

    def epilogue(start, stop, block):
        raise RuntimeError("epilogue failed")

    with pytest.raises(RuntimeError, match="epilogue failed"):
        mg_module._fused(level, u, epilogue)
    assert mg_module._EPILOGUE.get() is None
    assert np.array_equal(apply_operator(level, u), want)


def test_l1_jacobi_galerkin_v_cycle_converges():
    stencil = build_fd_laplace(rectangular(1.0, 2))
    lam0, lam1 = lambda_bounds(stencil, L1_JACOBI, 1)
    spec = CycleSpec(kind="v", k=1,
                     smoother=SmootherSpec(CHEBYSHEV, 3, lam0, lam1),
                     preconditioner=L1_JACOBI, coarse_mode=GALERKIN)
    report = measure_asymptotic_rate(spec, 127, 2, iterations=40)
    assert all(r <= 1.0 + 1e-9 for r in report.ratios)
    # the LFA two-grid factor of this V(1,1) smoother is 0.043
    assert report.rate < 0.06


@pytest.mark.parametrize("preset", sorted(TRI_PRESETS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_triangular_galerkin_stencil_is_rediscretized(preset, k):
    # nested P1 spaces: P^T A P / 2^{kd} is the coarse FEM stencil
    fine = build_fem_tri_laplace(*TRI_PRESETS[preset])
    got = galerkin_stencil(fine, k)
    want = fine.with_mesh_width(2**k)
    assert got.geometry == want.geometry
    got_c = dict(zip(got.offsets, got.coefficients))
    want_c = dict(zip(want.offsets, want.coefficients))
    for offset in set(got_c) | set(want_c):
        assert got_c.get(offset, 0.0) == pytest.approx(
            want_c.get(offset, 0.0), abs=1e-12), offset


#: (table, preset, k, family) of the triangular two-grid measurements
TRIANGULAR_RATES = {
    "6-k3-ba": (6, "equilateral", 3, BA1X),
    "7-k2-ba": (7, "isosceles-80", 2, BA1X),
    "7-k3-ba": (7, "isosceles-80", 3, BA1X),
    "equilateral-k1-chebyshev": (6, "equilateral", 1, CHEBYSHEV),
}


@pytest.mark.parametrize("case", sorted(TRIANGULAR_RATES))
def test_triangular_two_grid_rate_matches_lfa(case):
    # two-grid (1, 0) on a 127^2 triangular grid, 60 iterations, with the
    # table smoothers at lambda0; the measured rate meets the LFA factor
    # (the pinned value for the documented cells)
    table, preset, k, family = TRIANGULAR_RATES[case]
    stencil = build_fem_tri_laplace(*TRI_PRESETS[preset])
    lam1 = LAMBDA1_EQUILATERAL if table == 6 else LAMBDA1_ISOSCELES
    lam0, _ = lambda_bounds(stencil, JACOBI, k)
    spec = SmootherSpec(family, TRI_DEGREES[preset][k], lam0, lam1)
    if (table, k, "ba") in DOCUMENTED_DISCREPANCIES:
        lfa, _ = DOCUMENTED_DISCREPANCIES[(table, k, "ba")]
    else:
        lfa = rho_two_grid(TwoGridConfig(stencil=stencil, smoother=spec,
                                         k=k, coarse_mode=GALERKIN))
    cyc = CycleSpec(kind="two-grid", k=k, smoother=spec, pre=1, post=0,
                    coarse_mode=GALERKIN)
    report = measure_asymptotic_rate(cyc, 127, 2, iterations=60,
                                     stencil=stencil)
    assert all(r <= 1.0 + 1e-9 for r in report.ratios)
    assert report.rate == pytest.approx(lfa, abs=5e-3)


@pytest.mark.parametrize("mode", [REDISCRETIZED, GALERKIN])
@pytest.mark.parametrize("stencil,dimension,n", [
    (None, 2, 63), (UPWIND, 2, 63), (None, 3, 15)],
    ids=["laplace-2d", "upwind-2d", "laplace-3d"])
def test_coarsest_solve_on_every_coarse_level(stencil, dimension, n, mode):
    # each level, made the coarsest in turn, is solved to rounding: the
    # Laplacians in the sine basis, the upwind one by SuperLU, whose
    # symmetric-mode ordering keeps pivoting
    spec = CycleSpec(kind="v", k=1, smoother=CHEB, coarse_mode=mode)
    depth = len(Multigrid(spec, n, dimension, stencil=stencil).levels)
    rng = np.random.default_rng(3)
    for levels in range(2, depth + 1):
        mg = Multigrid(replace(spec, levels=levels), n, dimension,
                       stencil=stencil)
        coarsest = mg.levels[-1]
        f = rng.standard_normal(coarsest.shape)
        padded = coarsest.pad(f)
        u = coarsest.interior(mg._cycle(levels - 1, padded,
                                        np.zeros_like(padded)))
        residual = apply_interior(coarsest, u) - f
        scale = np.max(np.abs(coarsest.stencil.coefficients))
        assert (np.max(np.abs(residual))
                <= 1e-12 * scale * np.max(np.abs(u)) * len(f.ravel())**0.5)
        x = factor_coarsest(coarsest).solve(f.ravel())
        assert np.array_equal(x, u.ravel())


def _coarsest_candidates() -> list[GridLevel]:
    """Every distinct level below the finest of the FD hierarchies, both
    coarse modes, k = 1..3; ``levels`` makes each one the coarsest."""
    found = {}
    for (dimension, n), k, mode in itertools.product(
            ((2, 255), (3, 31)), (1, 2, 3), (REDISCRETIZED, GALERKIN)):
        spec = CycleSpec(kind="v", k=k, smoother=CHEB, coarse_mode=mode)
        for level in Multigrid(spec, n, dimension).levels[1:]:
            found.setdefault((level.shape, level.stencil), level)
    return list(found.values())


def test_sine_solve_matches_sparse_lu_on_every_fd_coarsest_level():
    rng = np.random.default_rng(5)
    shapes = set()
    for level in _coarsest_candidates():
        solver = factor_coarsest(level)
        assert solver.name == "sine"
        f = rng.standard_normal(level.shape)
        want = sla_splu(assemble_matrix(level).tocsc()).solve(f.ravel())
        got = solver.solve(f)
        assert got.shape == level.shape
        assert (np.max(np.abs(got.ravel() - want))
                <= 1e-13 * np.max(np.abs(want)))
        assert np.array_equal(solver.solve(f.ravel()), got.ravel())
        shapes.add(level.shape)
    assert shapes == ({(n, n) for n in (1, 3, 7, 15, 31, 63, 127)}
                      | {(n, n, n) for n in (1, 3, 7, 15)})


#: a 5-point Laplacian whose (1, 0) coefficient is one ulp off (-1, 0)'s
LAST_BIT = Stencil(geometry=FD2_GEOMETRY,
                   offsets=((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)),
                   coefficients=(4.0, np.nextafter(-1.0, 0.0), -1.0, -1.0,
                                 -1.0))


@pytest.mark.parametrize("stencil", [
    build_fem_tri_laplace(*TRI_PRESETS["isosceles-80"]),
    build_fem_tri_laplace(*TRI_PRESETS["equilateral"]), UPWIND, LAST_BIT],
    ids=["isosceles-80", "equilateral", "upwind", "last-bit"])
def test_stencils_that_are_not_axis_even_go_to_superlu(stencil):
    level = GridLevel((7, 7), stencil)
    assert not is_axis_even(stencil)
    solver = factor_coarsest(level)
    assert solver.name == "superlu"
    f = np.random.default_rng(6).standard_normal(level.shape)
    u = solver.solve(f)
    assert u.shape == level.shape
    assert np.allclose(apply_interior(level, u), f, rtol=0, atol=1e-12)


def test_zero_sine_eigenvalue_names_its_mode():
    # lambda = b s_0 - s_1 on 5^2: the mode (2, 3) has s_1 = 1 exactly and
    # b s_0 rounds to 1, so its eigenvalue is exactly 0
    n = 5
    s0 = 2.0 * np.sin(np.pi * 2 / (2 * n + 2)) ** 2
    b = 1.0 / s0
    assert b * s0 == 1.0
    stencil = Stencil(geometry=FD2_GEOMETRY,
                      offsets=((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)),
                      coefficients=(b - 1.0, -b / 2, -b / 2, 0.5, 0.5))
    with pytest.raises(ValueError, match=r"sine mode \(2, 3\)"):
        factor_coarsest(GridLevel((n, n), stencil))


def _python(code: str, **env: str) -> str:
    """Stdout of ``python -c code`` with this checkout's src on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))).stdout


def test_fd_cycles_leave_scipy_unimported():
    # the sine-basis coarsest solve and the matrix-free Galerkin stencils
    # need NumPy only
    code = ("import sys; from polymg import *; cheb = SmootherSpec("
            "CHEBYSHEV, 2, 0.5, 2.0); [measure_asymptotic_rate(CycleSpec("
            "kind=kind, k=1, smoother=cheb, coarse_mode=mode), n, d, "
            "iterations=30) for kind, mode in (('v', REDISCRETIZED), "
            "('v', GALERKIN), ('two-grid', GALERKIN)) "
            "for n, d in ((63, 2), (15, 3))]; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _python(code).split() == ["[]"]


#: A-norm ratios 0, 1, 9 and 29 of measure_asymptotic_rate(iterations=30),
#: as float.hex; the cycles are bit-identical to the interior-shaped solver
#: before vectors were padded, the A-norm is NumPy's pairwise sum.  The
#: coarsest levels are solved in the sine basis: the two-grid (15^2) and
#: W (3^2) entries were frozen from that solve, which moved them by at most
#: 1.3e-15 relative from the sparse LU's; on the 1^3 level of the V entry
#: Q = 1 and lambda is the centre coefficient, as in the LU
FROZEN_RATIOS = {
    "v-k3-15^3": (
        CycleSpec(kind="v", k=3,
                  smoother=SmootherSpec(CHEBYSHEV, 4, 0.1, 2.0)),
        15, 3, ("0x1.b1b0db2a5bac6p-6", "0x1.9ebc8d420ef1ep-5",
                "0x1.96a2ff24205f0p-2", "0x1.a04d907610c44p-2")),
    "w-k2-63^2-galerkin": (
        CycleSpec(kind="w", k=2, smoother=SmootherSpec(BA1X, 6, 0.146, 2.0),
                  coarse_mode=GALERKIN),
        63, 2, ("0x1.029c466ed4e16p-6", "0x1.001d7ffb01fb8p-5",
                "0x1.74d6063e95566p-5", "0x1.c3e1b202dbc75p-5")),
    "two-grid-k1-31^2": (
        CycleSpec(kind="two-grid", k=1, smoother=CHEB, pre=1, post=0),
        31, 2, ("0x1.e839648b6cda7p-5", "0x1.f1e57fb7a0fbcp-5",
                "0x1.dc9f906929466p-4", "0x1.f925d2aaf7b8ap-4")),
}


def test_a_norm_ratios_do_not_depend_on_blas_threads():
    # a BLAS dot product splits its sum by the thread count, which moved
    # most of these ratios in the last bits; the A-norm's sum does not
    code = ("from polymg import *; print(*(r.hex() for r in "
            "measure_asymptotic_rate(CycleSpec(kind='v', k=1, smoother="
            "SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)), 127, 2, iterations=30"
            ").ratios))")
    runs = [_python(code, OPENBLAS_NUM_THREADS=threads).split()
            for threads in ("1", "2")]
    assert len(runs[0]) == 30 and runs[0] == runs[1]


@pytest.mark.parametrize("chunk", [None, 61],
                         ids=["chunk-default", "chunk-61"])
@pytest.mark.parametrize("case", sorted(FROZEN_RATIOS))
def test_cycle_ratios_are_bit_identical_to_frozen(case, chunk, monkeypatch):
    import polymg.multigrid as mg_module

    if chunk is not None:
        monkeypatch.setattr(mg_module, "CHUNK", chunk)
    spec, n, dimension, want = FROZEN_RATIOS[case]
    ratios = measure_asymptotic_rate(spec, n, dimension, iterations=30).ratios
    assert tuple(ratios[i].hex() for i in (0, 1, 9, 29)) == want

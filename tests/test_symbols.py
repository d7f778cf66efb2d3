import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymg import (FrequencySampling, JACOBI, L1_JACOBI, Stencil,
                    build_fd_laplace, build_fem_tri_laplace, evaluate_symbol,
                    lambda_bounds, preconditioned_symbol,
                    preconditioner_symbol, rectangular, sample_frequencies)
from polymg import symbols
from polymg.symbols import (frequency_lattice, high_closure_values,
                            lattice_high_closure, lattice_symbol)
from polymg.tables import TRI_PRESETS

from oracles import (LOW_PEAK_STENCIL, naive_symbol, powell_lambda0,
                     scipy_polish_max, two_polish_lambda_bounds)

FD2 = build_fd_laplace(rectangular(1.0, 2))
FD3 = build_fd_laplace(rectangular(1.0, 3))
EQUI = build_fem_tri_laplace(math.pi / 3, math.pi / 3)
ISO = build_fem_tri_laplace(4 * math.pi / 9, 4 * math.pi / 9)


def test_symbol_values_5_point():
    assert evaluate_symbol(FD2, np.array([np.pi, np.pi])) == pytest.approx(8.0)
    assert evaluate_symbol(FD2, np.array([0.0, 0.0])) == pytest.approx(0.0)


def test_symbol_matches_naive_loop():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = rng.uniform(-np.pi, np.pi, size=2)
        got = complex(evaluate_symbol(EQUI, theta))
        want = naive_symbol(EQUI.offsets, EQUI.coefficients, theta)
        assert got == pytest.approx(want, abs=1e-11)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=2))
def test_conjugate_symmetry(theta):
    theta = np.asarray(theta)
    for stencil in (FD2, ISO):
        a = complex(evaluate_symbol(stencil, theta))
        b = complex(evaluate_symbol(stencil, -theta))
        assert abs(np.conj(a) - b) < 1e-12 * max(1.0, abs(a))


def test_symmetric_stencils_have_real_symbols():
    rng = np.random.default_rng(5)
    theta = rng.uniform(-np.pi, np.pi, size=(500, 3))
    assert np.max(np.abs(evaluate_symbol(FD3, theta).imag)) < 1e-12
    theta2 = rng.uniform(-np.pi, np.pi, size=(500, 2))
    assert np.max(np.abs(evaluate_symbol(EQUI, theta2).imag)) < 1e-12


@pytest.mark.parametrize("stencil,kind,value", [
    (FD2, JACOBI, 4.0),
    (FD2, L1_JACOBI, 8.0),
    (FD3, JACOBI, 6.0),
])
def test_preconditioner_symbol(stencil, kind, value):
    assert preconditioner_symbol(stencil, kind) == pytest.approx(value)


def test_preconditioned_symbol_values():
    assert preconditioned_symbol(FD2, JACOBI, np.array([np.pi, np.pi])) \
        == pytest.approx(2.0)
    assert preconditioned_symbol(FD2, JACOBI, np.array([np.pi / 2, 0.0])) \
        == pytest.approx(0.5)
    assert preconditioned_symbol(
        FD3, JACOBI, np.array([np.pi / 2, 0.0, 0.0])) == pytest.approx(1 / 3)


def test_preconditioned_symbol_rejects_asymmetric():
    geo = rectangular(1.0, 2)
    for scale in (1.0, 1e-15):  # the test is relative to the coefficients
        skew = Stencil(geo, ((0, 0), (1, 0)), (4.0 * scale, -1.0 * scale))
        with pytest.raises(ValueError, match="symmetric"):
            preconditioned_symbol(skew, JACOBI, np.array([0.3, 0.4]))


@pytest.mark.parametrize("dimension,k,n,low,high", [
    (2, 1, 4, 4, 12),
    (2, 2, 8, 4, 60),
    (3, 1, 4, 8, 56),
])
def test_sample_frequency_counts(dimension, k, n, low, high):
    geo = rectangular(1.0, dimension)
    lo, hi = sample_frequencies(geo, k, FrequencySampling(samples_per_axis=n))
    assert (len(lo), len(hi)) == (low, high)
    assert not np.any(np.all(lo == 0.0, axis=1))  # zero frequency excluded


def test_sample_frequencies_rejects_bad_ratio():
    with pytest.raises(ValueError, match="multiple"):
        sample_frequencies(rectangular(1.0, 2), 3,
                           FrequencySampling(samples_per_axis=4))
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            sample_frequencies(rectangular(1.0, 2), k, FrequencySampling())
        with pytest.raises(ValueError, match="k must be >= 1"):
            lambda_bounds(FD2, JACOBI, k)


@pytest.mark.parametrize("stencil,k,lam0", [
    (FD2, 1, 0.5),
    (FD2, 2, (2 - math.sqrt(2)) / 4),
    (FD2, 3, (2 - 2 * math.cos(math.pi / 8)) / 4),
    (FD3, 1, 1 / 3),
    (FD3, 2, (2 - math.sqrt(2)) / 6),
    (FD3, 3, (2 - 2 * math.cos(math.pi / 8)) / 6),
])
def test_lambda_bounds_fd(stencil, k, lam0):
    l0, l1 = lambda_bounds(stencil, JACOBI, k)
    assert l0 == pytest.approx(lam0, abs=1e-9)
    assert l1 == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("kind", [JACOBI, L1_JACOBI])
@pytest.mark.parametrize("name", ["fd2d", "fd3d", "equilateral",
                                  "isosceles-80"])
def test_face_search_matches_powell(name, kind):
    # the batched grid search meets the old per-face Powell refinement:
    # exactly on FD faces, to a few ulps on the triangular ones
    stencil = {"fd2d": FD2, "fd3d": FD3, "equilateral": EQUI,
               "isosceles-80": ISO}[name]
    sampling = FrequencySampling()
    for k in (1, 2, 3):
        lam0, _ = lambda_bounds(stencil, kind, k, sampling)
        want = powell_lambda0(stencil, kind, k, sampling)
        if stencil.geometry.kind == "rectangular":
            assert lam0 == want
        else:
            assert lam0 == pytest.approx(want, rel=4e-15, abs=0)


@pytest.mark.parametrize("stencil", [FD2, FD3])
@pytest.mark.parametrize("n,k", [(6, 1), (10, 1), (12, 2)])
def test_lambda0_when_faces_are_not_lattice_planes(stencil, n, k):
    # n / 2^(k+1) is not an integer: no lattice point lies on a face, and
    # the refinement from seeds on the exact face still meets the infimum
    lam0, _ = lambda_bounds(stencil, JACOBI, k, FrequencySampling(n))
    want, _ = lambda_bounds(stencil, JACOBI, k, FrequencySampling(64))
    assert lam0 == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("stencil", [FD2, FD3, EQUI, ISO])
def test_face_search_is_batch_invariant(stencil):
    sampling = FrequencySampling()
    step = 2 * np.pi / sampling.samples_per_axis
    for k in (1, 2, 3):
        seeds, axes = symbols._face_seeds(stencil, JACOBI, k, sampling)
        together = symbols._face_minima(stencil, JACOBI, k, seeds, axes, step)
        alone = [symbols._face_minima(stencil, JACOBI, k, seeds[i:i + 1],
                                      axes[i:i + 1], step)[0]
                 for i in range(len(seeds))]
        assert together.tolist() == alone


def test_face_search_evaluates_every_face_per_round(monkeypatch):
    sampling = FrequencySampling()
    lambda_bounds(FD3, JACOBI, 1, sampling)  # warm the lattice caches
    rows = []
    evaluate = symbols.preconditioned_symbol

    def counted(stencil, kind, theta):
        rows.append(np.shape(theta))
        return evaluate(stencil, kind, theta)

    monkeypatch.setattr(symbols, "preconditioned_symbol", counted)
    lambda_bounds(FD3, JACOBI, 1, sampling)
    step = 2 * np.pi / sampling.samples_per_axis
    rounds = len([r for r in range(64) if step / 4**r >= symbols.FACE_XTOL])
    grid = symbols.FACE_GRID**2  # per face: two free axes
    # one seed call over the 33^2 free lattice points of each of 6 faces
    assert rows == [(6, 33**2, 3)] + [(6 * grid, 1, 3)] * rounds


def test_lambda_bounds_triangular():
    l0, l1 = lambda_bounds(EQUI, JACOBI, 1)
    assert l1 == pytest.approx(1.5, abs=1e-9)
    assert l0 == pytest.approx(0.5286, abs=2e-4)
    l0, l1 = lambda_bounds(ISO, JACOBI, 1)
    assert l1 == pytest.approx(1.8880706, abs=1e-6)
    assert l0 == pytest.approx(0.11193, abs=2e-4)


def test_lambda_bounds_rejects_indefinite_operator():
    geo = rectangular(1.0, 2)
    # symmetric but indefinite: the symbol 1 - 2cos(t1) - 2cos(t2) changes sign
    indefinite = Stencil(geo, ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)),
                         (1.0, -1.0, -1.0, -1.0, -1.0))
    with pytest.raises(ValueError, match="positive"):
        lambda_bounds(indefinite, JACOBI, 1)


def test_lattice_symbol_is_cached_and_exact():
    sampling = FrequencySampling(16)
    for stencil in (FD2, FD3, ISO):
        theta, x = lattice_symbol(stencil, JACOBI, sampling)
        want = frequency_lattice(stencil.geometry, sampling)
        assert np.array_equal(theta, want)
        assert np.array_equal(x, preconditioned_symbol(stencil, JACOBI, want))
        assert lattice_symbol(stencil, JACOBI, sampling)[1] is x
        assert not x.flags.writeable


#: X~ = 1 + (cos 2t1 + cos 2t2)/2 peaks at t = 0 and on the high range
TWIN_PEAKS = Stencil(rectangular(1.0, 2),
                     ((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2)),
                     (1.0, 0.25, 0.25, 0.25, 0.25))


def _count_polishes(monkeypatch):
    """Record the k of every maximum polish (None: over all frequencies)."""
    seen = []
    polish = symbols._polish_max

    def counted(stencil, kind, theta0, k=None):
        seen.append(k)
        return polish(stencil, kind, theta0, k)

    symbols._lambda1.cache_clear()
    monkeypatch.setattr(symbols, "_polish_max", counted)
    return seen


def test_lambda_bounds_rejects_maximum_off_the_high_range():
    # an unconstrained polish from the high-range seed climbs to t = 0
    with pytest.raises(ValueError, match="not attained on the high range"):
        lambda_bounds(Stencil.from_dict(LOW_PEAK_STENCIL), JACOBI, 1)


@pytest.mark.parametrize("kind", [JACOBI, L1_JACOBI])
def test_high_range_polish_when_lambda1_seed_is_low(kind, monkeypatch):
    sampling = FrequencySampling()
    want = [two_polish_lambda_bounds(TWIN_PEAKS, kind, k, sampling)
            for k in (1, 2, 3)]
    seen = _count_polishes(monkeypatch)
    assert [lambda_bounds(TWIN_PEAKS, kind, k, sampling)
            for k in (1, 2, 3)] == want
    # lambda1 once for all k, then the high-range maximum for each k
    assert seen == [None, 1, 2, 3]


BUILT_IN = {"fd2d": FD2, "fd3d": FD3,
            **{name: build_fem_tri_laplace(*angles)
               for name, angles in TRI_PRESETS.items()}}


@pytest.mark.parametrize("kind", [JACOBI, L1_JACOBI])
@pytest.mark.parametrize("name", list(BUILT_IN))
def test_built_in_stencils_reuse_lambda1(name, kind, monkeypatch):
    # lambda1's lattice seed lies in every high closure, so lambda1 is
    # polished once for all k and the high-range maximum never again
    seen = _count_polishes(monkeypatch)
    for k in (1, 2, 3):
        lambda_bounds(BUILT_IN[name], kind, k)
    assert seen == [None]


#: the built-in stencils climb away from the low box; the low-peak
#: stencil's searches with k step into it, where points score +inf
POLISH_STENCILS = {"fd2d": FD2, "fd3d": FD3,
                   "anisotropic": build_fd_laplace(rectangular((1.0, 0.5))),
                   **{name: build_fem_tri_laplace(*angles)
                      for name, angles in TRI_PRESETS.items()},
                   "low-peak": Stencil.from_dict(LOW_PEAK_STENCIL)}


@pytest.mark.parametrize("kind", [JACOBI, L1_JACOBI])
@pytest.mark.parametrize("name", list(POLISH_STENCILS))
def test_polish_max_matches_scipy(name, kind):
    # one lockstep Nelder-Mead search is SciPy's step for step; seeds are
    # the two largest and two smallest lattice points over all phases or,
    # with k, over the high closure
    stencil = POLISH_STENCILS[name]
    for n in (8, 16, 32, 64):
        theta, x = lattice_symbol(stencil, kind, FrequencySampling(n))
        for k in (None, 1, 2):
            region = (symbols.high_closure_mask(k, theta) if k
                      else np.ones(len(theta), dtype=bool))
            order = np.argsort(np.abs(x[region]))
            for seed in theta[region][np.r_[order[:2], order[-2:]]]:
                assert symbols._polish_max(stencil, kind, seed, k) == \
                    scipy_polish_max(stencil, kind, seed, k)


def test_import_leaves_scipy_optimize_out():
    # only SuperLU loads scipy.sparse; the optimizers are test oracles
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, polymg; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_high_closure_values_are_cached_read_only():
    sampling = FrequencySampling(16)
    for stencil in (FD2, FD3, ISO):
        for k in (1, 2, 3):
            theta = frequency_lattice(stencil.geometry, sampling)
            mask = symbols.high_closure_mask(k, theta)
            values = high_closure_values(stencil, JACOBI, sampling, k)
            assert np.array_equal(values, np.unique(
                preconditioned_symbol(stencil, JACOBI, theta)[mask]))
            assert not values.flags.writeable
            assert high_closure_values(stencil, JACOBI, sampling, k) is values


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("n", [16, 64])
def test_high_closure_from_ticks_is_the_lattice_mask(dimension, n):
    theta = frequency_lattice(rectangular(1.0, dimension),
                              FrequencySampling(n))
    for k in (1, 2, 3):
        assert np.array_equal(lattice_high_closure(dimension, n, k),
                              symbols.high_closure_mask(k, theta))


def test_lambda_bounds_sampling_convergence():
    for stencil in (FD2, ISO):
        a = lambda_bounds(stencil, JACOBI, 2, FrequencySampling(64))
        b = lambda_bounds(stencil, JACOBI, 2, FrequencySampling(128))
        assert abs(a[0] - b[0]) < 1e-3
        assert abs(a[1] - b[1]) < 1e-3


def test_second_order_symbol_near_zero():
    # row-sum-zero stencils vanish at zero frequency like |theta|^2
    rng = np.random.default_rng(2)
    for stencil in (FD2, EQUI):
        direction = rng.uniform(-1, 1, size=2)
        direction /= np.linalg.norm(direction)
        for scale in (1e-2, 1e-3, 1e-4):
            val = abs(complex(evaluate_symbol(stencil, scale * direction)))
            assert val < 20.0 * scale**2
            assert val > 1e-3 * scale**2

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymg import (BA1X, CHEBYSHEV, SA, SmootherSpec, error_poly,
                    min_degree, optimal_lambda0_smoothing, q_value)
from polymg.polynomials import apply_q, is_admissible

from oracles import (TABLE_DEGREES, ba1x_endpoint_errors, cheb_T, cheb_U,
                     closed_form_error, closed_form_optimal_lambda0,
                     expression_apply_q, remez_reciprocal)


def test_cheb_values():
    assert cheb_T(3, 5 / 3) == pytest.approx(365 / 27)
    for k in range(8):
        assert cheb_T(k, 1.0) == pytest.approx(1.0)
    assert cheb_U(2, 0.3) == pytest.approx(4 * 0.09 - 1)
    assert cheb_U(-1, 0.7) == 0.0
    assert cheb_U(0, 2.5) == pytest.approx(1.0)


def test_cheb_continuity_at_crossover():
    # recurrence inside [-1,1] must meet the hyperbolic form outside
    for k in (3, 9, 20):
        inside = cheb_T(k, np.array([1.0 - 1e-12]))
        outside = cheb_T(k, np.array([1.0 + 1e-12]))
        assert inside == pytest.approx(outside, abs=1e-9)
        ui = cheb_U(k, np.array([-1.0 + 1e-12]))
        uo = cheb_U(k, np.array([-1.0 - 1e-12]))
        assert ui == pytest.approx(uo, rel=1e-6)


def test_cheb_T_monotone_above_one():
    values = [float(cheb_T(k, 5 / 3)) for k in range(10)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("spec", [
    SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0),
    SmootherSpec(SA, 3, 0.0, 2.0),
    SmootherSpec(BA1X, 4, 0.1, 2.0),
])
def test_error_poly_at_zero(spec):
    assert error_poly(spec, 0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", [CHEBYSHEV, SA, BA1X])
def test_error_poly_matches_closed_forms(family):
    # the shared recurrence against each family's closed form, up to the
    # highest table degree
    x = np.linspace(0.0, 2.0, 2001)
    for lam0 in (0.038, 0.146, 0.333, 0.5):
        for degree in range(44):
            spec = SmootherSpec(family, degree, lam0, 2.0)
            assert np.max(np.abs(error_poly(spec, x)
                                 - closed_form_error(spec, x))) < 1e-9


def test_error_poly_table_values():
    x = np.linspace(0.5, 2.0, 20001)
    cheb = SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0)
    assert np.max(np.abs(error_poly(cheb, x))) \
        == pytest.approx(27 / 365, abs=1e-6)
    sa = SmootherSpec(SA, 2, 0.0, 2.0)
    assert np.max(np.abs(error_poly(sa, x))) == pytest.approx(0.233, abs=1e-3)
    ba = SmootherSpec(BA1X, 2, 0.5, 2.0)
    assert abs(error_poly(ba, 2.0)) == pytest.approx(1 / 6, abs=1e-12)


def test_error_poly_rejects_degenerate():
    with pytest.raises(ValueError):
        SmootherSpec(BA1X, 2, 0.0, 2.0)
    with pytest.raises(ValueError):
        SmootherSpec(CHEBYSHEV, 2, 2.0, 2.0)
    # a NaN interval end fails every comparison, so it is rejected by name
    for family in (CHEBYSHEV, SA, BA1X):
        for lam0, lam1 in ((math.nan, 2.0), (0.5, math.nan), (0.5, math.inf),
                           (-math.inf, 2.0)):
            with pytest.raises(ValueError, match="finite"):
                SmootherSpec(family, 2, lam0, lam1)


def test_chebyshev_bounded_below_one_on_full_interval():
    # |e| < 1 on (0, lambda1] for any positive lambda0
    x = np.linspace(1e-6, 2.0, 4001)
    for lam0 in (1e-6, 0.2, 0.5, 1.0):
        spec = SmootherSpec(CHEBYSHEV, 5, lam0, 2.0)
        assert np.max(np.abs(error_poly(spec, x))) < 1.0


def test_equioscillation_chebyshev():
    spec = SmootherSpec(CHEBYSHEV, 3, 0.4, 2.0)
    x = np.linspace(0.4, 2.0, 10001)
    e = error_poly(spec, x)
    peak = np.max(np.abs(e))
    # one sign run of e per alternance point; the run max approaches the
    # peak up to grid resolution
    runs = np.split(np.arange(len(x)),
                    np.nonzero(np.diff(np.sign(e)) != 0)[0] + 1)
    assert len(runs) == spec.degree + 2
    signs = [np.sign(e[r[0]]) for r in runs]
    assert all(a != b for a, b in zip(signs, signs[1:]))
    for r in runs:
        assert np.max(np.abs(e[r])) >= peak * (1 - 1e-4)
    # exact alternance values at the mapped Chebyshev extrema
    nodes = 0.5 * (0.4 + 2.0 - (2.0 - 0.4)
                   * np.cos(np.pi * np.arange(spec.degree + 2)
                            / (spec.degree + 1)))
    vals = error_poly(spec, nodes)
    assert np.max(np.abs(np.abs(vals) - peak)) < 1e-8


def test_sa_trig_identity():
    nu = 3
    spec = SmootherSpec(SA, nu, 0.0, 2.0)
    for phi in np.linspace(0.05, math.pi / 2 - 0.05, 40):
        x = 2.0 * math.cos(phi) ** 2
        expected = math.cos((2 * nu + 3) * phi) / ((2 * nu + 3) * math.cos(phi))
        assert abs(abs(float(error_poly(spec, x))) - abs(expected)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(1.5, 8.0), st.floats(1e-3, 1e3),
       st.integers(1, 12))
def test_scale_invariance(lam0, lam1, scale, degree):
    x = np.linspace(lam0 / 3, lam1, 30)
    for family in (CHEBYSHEV, BA1X):
        a = error_poly(SmootherSpec(family, degree, lam0, lam1), x)
        b = error_poly(SmootherSpec(family, degree, lam0 * scale,
                                    lam1 * scale), x * scale)
        assert np.max(np.abs(a - b)) < 1e-11


@pytest.mark.parametrize("family,lam0", [(CHEBYSHEV, 0.5), (BA1X, 0.4),
                                         (SA, 0.0)])
def test_apply_q_equals_expression_recurrence(family, lam0):
    # the in-place update must round like the one-expression update, on
    # arrays, 0-d arrays and Python floats, and write into no input
    grid = np.linspace(0.0, 2.0, 257)
    for degree in (0,) + TABLE_DEGREES:
        spec = SmootherSpec(family, degree, lam0, 2.0)
        for x in (grid, np.asarray(0.7), 0.7):
            b = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
            got = apply_q(spec, b, lambda v: 1.0 - x * v)
            want = expression_apply_q(spec, b, lambda v: 1.0 - x * v)
            assert np.all(got == want), (degree, np.ndim(x))
            assert np.all(b == 1.0)
        x = grid.copy()
        want = expression_apply_q(spec, np.ones_like(grid),
                                  lambda v: 1.0 - grid * v)
        assert np.all(q_value(spec, x) == want)
        assert np.array_equal(x, grid)


def test_q_value_constants():
    cheb0 = SmootherSpec(CHEBYSHEV, 0, 0.5, 2.0)
    zeta = 2.0 / 2.5
    assert q_value(cheb0, 1.3) == pytest.approx(zeta, abs=1e-14)
    ba0 = SmootherSpec(BA1X, 0, 0.5, 2.0)
    assert q_value(ba0, 1.7) == pytest.approx((2.0 + 0.5) / 2, abs=1e-14)


def test_ba1x_matches_remez_oracle():
    spec = SmootherSpec(BA1X, 5, 0.146, 2.0)
    oracle = remez_reciprocal(5, 0.146, 2.0)
    x = np.linspace(0.146, 2.0, 10000)
    assert np.max(np.abs(q_value(spec, x) - oracle(x))) < 1e-8


def test_endpoint_errors_closed_form():
    at1, at0 = ba1x_endpoint_errors(2, 0.5, 0.5, 2.0)
    assert at1 == pytest.approx(1 / 6, abs=1e-14)
    spec = SmootherSpec(BA1X, 2, 0.5, 2.0)
    assert at0 == pytest.approx(abs(float(error_poly(spec, 0.5))), abs=1e-12)


def test_endpoint_errors_cross_check_recurrence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        lam1 = rng.uniform(0.5, 4.0)
        lam0 = lam1 / rng.uniform(2.0, 80.0)
        lam = rng.uniform(lam0, lam1 * 0.98)
        m = int(rng.integers(1, 30))
        at1, at0 = ba1x_endpoint_errors(m, lam, lam0, lam1)
        spec = SmootherSpec(BA1X, m, lam, lam1)
        worst = max(worst, abs(at1 - abs(float(error_poly(spec, lam1)))))
        worst = max(worst, abs(at0 - abs(float(error_poly(spec, lam0)))))
    assert worst < 1e-10


def test_endpoint_errors_monotone_branches():
    lam0, lam1, m = 0.1, 2.0, 6
    lams = np.linspace(lam0, lam1 * 0.999, 1000)
    at1 = np.array([ba1x_endpoint_errors(m, l, lam0, lam1)[0] for l in lams])
    at0 = np.array([ba1x_endpoint_errors(m, l, lam0, lam1)[1] for l in lams])
    assert np.all(np.diff(at1) < 0)
    assert np.all(np.diff(at0) > 0)


def test_endpoint_errors_validation():
    with pytest.raises(ValueError):
        ba1x_endpoint_errors(2, 2.0, 0.5, 2.0)  # lam == lam1
    with pytest.raises(ValueError):
        ba1x_endpoint_errors(0, 0.5, 0.5, 2.0)


@pytest.mark.parametrize("m,lam0,lam1,expected,tol", [
    (2, 0.5, 2.0, 0.598, 2e-3),
    (17, 0.038, 2.0, 0.057, 2e-3),
    (9, 0.0976, 2.0, 0.134, 2e-3),
])
def test_optimal_lambda0_smoothing(m, lam0, lam1, expected, tol):
    assert optimal_lambda0_smoothing(m, lam0, lam1) \
        == pytest.approx(expected, abs=tol)


def test_optimal_lambda0_balances_endpoints():
    lam = optimal_lambda0_smoothing(6, 0.146, 2.0)
    at1, at0 = ba1x_endpoint_errors(6, lam, 0.146, 2.0)
    assert at1 == pytest.approx(at0, rel=1e-6)


#: (degree, lambda0, lambda1) of the lambda0* cells of tables 1, 2, 6, 7:
#: fd2d, fd3d, equilateral and isosceles-80, each at k = 1..3
TABLE_LAMBDA0_CELLS = [
    (2, 0.5, 2.0), (6, 0.14644660940672624, 2.0),
    (17, 0.03806023374435652, 2.0),
    (3, 0.3333333333333333, 2.0), (9, 0.09763107293781736, 2.0),
    (22, 0.025373489162904345, 2.0),
    (1, 0.5285954792089681, 1.5), (5, 0.14837805126362624, 1.5),
    (14, 0.03818330222741723, 1.5),
    (8, 0.11193126889065153, 17 / 9), (18, 0.03244538971946075, 17 / 9),
    (43, 0.008406758311056254, 17 / 9),
]


@pytest.mark.parametrize("m,lam0,lam1", TABLE_LAMBDA0_CELLS)
def test_optimal_lambda0_equals_closed_form_bisection(m, lam0, lam1):
    # the recurrence and the closed form take every bisection step alike
    assert optimal_lambda0_smoothing(m, lam0, lam1) \
        == closed_form_optimal_lambda0(m, lam0, lam1)


def test_min_degree_exact_inversion():
    # pick rho so delta^m (kappa-1)/2 == rho exactly at an integer m
    kappa, lam1, m = 9.0, 2.0, 7
    delta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
    rho = delta**m * (kappa - 1) / 2
    assert min_degree(rho * 1.0000001, kappa, lam1) == m


def test_min_degree_kappa_to_one():
    assert min_degree(0.5, 1.0001, 2.0) <= 1


def test_min_degree_scan_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        kappa = rng.uniform(3.0, 60.0)
        lam1 = rng.uniform(1.0, 3.0)
        rho = rng.uniform(0.01, 0.45)
        # stay in the regime where both logarithm arguments are below one,
        # i.e. where the printed bound is tight
        if 2 * rho / (kappa - 1) >= 1 or 2 / (lam1 * (kappa - 1)) >= 1:
            continue
        checked += 1
        m = min_degree(rho, kappa, lam1)
        lam0 = lam1 / kappa
        delta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
        x = np.linspace(lam0, lam1, 4001)

        def ok(mm):
            if mm < 1:
                return False
            spec = SmootherSpec(BA1X, mm, lam0, lam1)
            damped = np.max(np.abs(error_poly(spec, x))) <= rho * (1 + 1e-9)
            positive = np.all(q_value(spec, x) > 0)
            return damped and positive

        assert ok(m), (rho, kappa, lam1, m)
        damping_term = abs(math.log(2 * rho / (kappa - 1)))
        positivity_term = abs(math.log(2 / (lam1 * (kappa - 1))))
        if damping_term >= positivity_term:
            # the damping requirement binds, so m-1 must fail it; when the
            # (sufficient, not necessary) positivity requirement binds the
            # bound can exceed the brute-force minimum
            assert not ok(m - 1), (rho, kappa, lam1, m)


def test_admissibility():
    assert is_admissible(SmootherSpec(CHEBYSHEV, 2, 0.5, 2.0))
    # far below the minimal degree the approximant goes negative
    assert not is_admissible(SmootherSpec(BA1X, 1, 0.001, 2.0))

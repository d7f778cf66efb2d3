"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (exchange
algorithm, characteristic polynomial + simultaneous root iteration, naive
summations) so the package code paths are checked against routes that
share none of their machinery.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# best uniform approximation of 1/x by the exchange (Remez) algorithm
# ---------------------------------------------------------------------------

def remez_reciprocal(degree: int, a: float, b: float, grid: int = 200001,
                     max_iters: int = 100):
    """Best degree-``degree`` polynomial approximation to 1/x on [a, b].

    Returns a callable evaluating the polynomial.  Works in the Chebyshev
    basis of the interval; the evaluation grid is cosine-spaced so the
    oscillations near a small left endpoint stay resolved.
    """
    from numpy.polynomial import chebyshev as C

    def to_unit(x):
        return 2.0 * (x - a) / (b - a) - 1.0

    xs = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(
        np.pi * np.arange(grid) / (grid - 1))
    fs = 1.0 / xs

    count = degree + 2
    ref = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(
        np.pi * np.arange(count) / (count - 1))
    coef = None
    for _ in range(max_iters):
        signs = (-1.0) ** np.arange(count)
        vander = C.chebvander(to_unit(ref), degree)
        system = np.hstack([vander, signs[:, None]])
        sol = np.linalg.solve(system, 1.0 / ref)
        coef, leveled = sol[:-1], abs(sol[-1])
        err = C.chebval(to_unit(xs), coef) - fs
        pts = _alternating_extrema(err, count)
        ref_new = xs[pts]
        peak = float(np.max(np.abs(err)))
        if peak - leveled <= 1e-13 * max(peak, 1e-300):
            break
        ref = ref_new
    return lambda x: C.chebval(to_unit(np.asarray(x, dtype=float)), coef)


def _alternating_extrema(err: np.ndarray, count: int) -> list[int]:
    idx = [0]
    interior = np.nonzero(
        (err[1:-1] - err[:-2]) * (err[2:] - err[1:-1]) <= 0)[0] + 1
    idx.extend(interior.tolist())
    idx.append(len(err) - 1)
    pts: list[int] = []
    for i in idx:
        if pts and np.sign(err[i]) == np.sign(err[pts[-1]]):
            if abs(err[i]) > abs(err[pts[-1]]):
                pts[-1] = i
        else:
            pts.append(i)
    while len(pts) > count:
        if abs(err[pts[0]]) < abs(err[pts[-1]]):
            pts.pop(0)
        else:
            pts.pop()
    if len(pts) < count:
        raise RuntimeError("exchange step lost alternation points")
    return pts


# ---------------------------------------------------------------------------
# Chebyshev values and the closed-form smoother error polynomials
# ---------------------------------------------------------------------------

def cheb_T(k: int, t) -> np.ndarray | float:
    """First-kind Chebyshev value T_k(t).

    Three-term recurrence inside [-1, 1]; the hyperbolic closed form
    0.5*((t-sqrt(t^2-1))^k + (t+sqrt(t^2-1))^k) outside, which avoids the
    recurrence's cancellation for |t| > 1.
    """
    if k < 0:
        raise ValueError("cheb_T needs k >= 0")
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    inside = np.abs(t) <= 1.0
    ti = t[inside]
    tp, tc = np.ones_like(ti), ti.copy()
    if k == 0:
        tc = tp
    for _ in range(k - 1):
        tp, tc = tc, 2 * ti * tc - tp
    out[inside] = tc
    to = t[~inside]
    a = np.abs(to)
    s = np.sqrt(a * a - 1.0)
    out[~inside] = np.sign(to) ** k * 0.5 * ((a - s) ** k + (a + s) ** k)
    return out if out.ndim else float(out)


def cheb_U(k: int, t) -> np.ndarray | float:
    """Second-kind Chebyshev value U_k(t) (U_{-1} = 0)."""
    if k < -1:
        raise ValueError("cheb_U needs k >= -1")
    t = np.asarray(t, dtype=float)
    if k == -1:
        out = np.zeros_like(t)
        return out if out.ndim else 0.0
    out = np.empty_like(t)
    inside = np.abs(t) <= 1.0
    ti = t[inside]
    up, uc = np.ones_like(ti), 2 * ti
    if k == 0:
        uc = up
    for _ in range(k - 1):
        up, uc = uc, 2 * ti * uc - up
    out[inside] = uc
    to = t[~inside]
    a = np.abs(to)
    s = np.sqrt(a * a - 1.0)
    out[~inside] = np.sign(to) ** k * ((a + s) ** (k + 1) - (a - s) ** (k + 1)) / (2 * s)
    return out if out.ndim else float(out)


def closed_form_error(spec, x) -> np.ndarray:
    """e(x) = 1 - x q(x) of a smoother from its family's closed form.

    Chebyshev: T_{m+1}(t(x))/T_{m+1}(t(0)) on the shifted interval.  SA:
    (-1)^{m+1} T_{2m+3}(u)/((2m+3) u) with u = sqrt(x/lambda1).  ba1x:
    -delta^m (1 - x p_0) U_{m-2}(y) + delta^{m-1} (1 - x p_1) U_{m-1}(y)
    with y = (1 + delta^2 - c x)/(2 delta), for x in [0, lambda1].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m, lam0, lam1 = spec.degree, spec.lambda0, spec.lambda1
    if spec.family == "chebyshev":
        t = (lam0 + lam1 - 2 * x) / (lam1 - lam0)
        a = (lam0 + lam1) / (lam1 - lam0)
        return cheb_T(m + 1, t) / cheb_T(m + 1, np.array(a))
    if spec.family == "sa":
        n = 2 * m + 3
        u = np.sqrt(np.maximum(x, 0.0) / lam1)
        e = np.ones_like(x)
        nz = u > 1e-12
        # sign chosen so the removable singularity at x=0 has value +1
        e[nz] = (-1.0) ** (m + 1) * cheb_T(n, u[nz]) / (n * u[nz])
        return e
    mu0, mu1 = 1.0 / lam1, 1.0 / lam0
    sq = np.sqrt(lam1 / lam0)
    delta = (sq - 1) / (sq + 1)
    c = 4 * mu0 * mu1 / (np.sqrt(mu0) + np.sqrt(mu1)) ** 2
    e0 = 1.0 - x * 0.5 * (mu0 + mu1)
    if m == 0:
        return e0
    e1 = 1.0 - x * (0.5 * (np.sqrt(mu0) + np.sqrt(mu1)) ** 2 - mu0 * mu1 * x)
    y = (1.0 + delta**2 - c * x) / (2 * delta)
    return (-delta**m * e0 * cheb_U(m - 2, y)
            + delta ** (m - 1) * e1 * cheb_U(m - 1, y))


def ba1x_endpoint_errors(m: int, lam: float, lam0: float, lam1: float
                         ) -> tuple[float, float]:
    """Closed-form endpoint errors of the ba1x p_m built on [lam, lam1].

    Returns (|1 - lam1 p_m(lam1; lam)|, lam0 * E_m(lam0; lam)) where
    E_m(x) = 1/x - p_m(x) has the explicit second-kind-Chebyshev form
    E_m = -delta^m E_0 U_{m-2}(y) + delta^{m-1} E_1 U_{m-1}(y) with
    y = (1 + delta^2 - c x)/(2 delta).  The U terms are evaluated through
    the scaled recurrence V_j = delta^j U_j(y), which stays bounded for
    x in [0, lambda1].
    """
    if m < 1:
        raise ValueError("endpoint errors need m >= 1")
    if not lam0 <= lam <= lam1:
        raise ValueError("need lambda0 <= lambda <= lambda1")
    if lam == lam1:
        raise ValueError("lambda = lambda1 is degenerate (kappa = 1)")
    mu0, mu1 = 1.0 / lam1, 1.0 / lam
    kappa = lam1 / lam
    delta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
    c = 4 * mu0 * mu1 / (math.sqrt(mu0) + math.sqrt(mu1)) ** 2
    at_lambda1 = delta**m * (kappa - 1) / 2.0

    x = lam0
    y = (1.0 + delta**2 - c * x) / (2.0 * delta)
    e0 = 1.0 / x - 0.5 * (mu0 + mu1)
    e1 = 1.0 / x - (0.5 * (math.sqrt(mu0) + math.sqrt(mu1)) ** 2 - mu0 * mu1 * x)
    v_prev, v_cur = 0.0, 1.0  # V_{-1}, V_0
    for _ in range(m - 1):
        v_prev, v_cur = v_cur, 2 * y * delta * v_cur - delta**2 * v_prev
    em = -(delta**2) * e0 * v_prev + e1 * v_cur
    return at_lambda1, lam0 * em


def closed_form_optimal_lambda0(m: int, lambda0: float,
                                lambda1: float) -> float:
    """The min-max lambda0 by bisection on the closed-form endpoint errors.

    The same bracket, tolerance and midpoint rule as
    ``polynomials.optimal_lambda0_smoothing``, with ``ba1x_endpoint_errors``
    in place of the recurrence.
    """
    from polymg.polynomials import LAMBDA0_REL_TOL

    def gap(lam: float) -> float:
        hi, lo = ba1x_endpoint_errors(m, lam, lambda0, lambda1)
        return hi - lo

    lo, hi = lambda0, lambda1 * (1.0 - 1e-12)
    if gap(lo) <= 0:
        return lambda0
    if gap(hi) > 0:
        return hi
    while hi - lo > LAMBDA0_REL_TOL * lambda1:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: every smoother degree the reference tables use
TABLE_DEGREES = (1, 2, 3, 5, 6, 8, 9, 14, 17, 18, 22, 43)


def expression_apply_q(spec, b, residual):
    """The smoother recurrence with its update written as one expression.

    The reference for the in-place update of ``polynomials.apply_q``: the
    same coefficients, every operation on fresh arrays.
    """
    from polymg.polynomials import _recurrence

    gamma, steps = _recurrence(spec)
    v_prev, v = 0.0, gamma * b
    for alpha, beta in steps:
        rbar = residual(v)
        v, v_prev = v + alpha * (v - v_prev) + beta * rbar, v
    return v


# ---------------------------------------------------------------------------
# eigenvalues via characteristic polynomial + Durand-Kerner iteration
# ---------------------------------------------------------------------------

def characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - A) by the Faddeev-LeVerrier recursion.

    Returned highest power first: p(l) = l^n + c[1] l^{n-1} + ... + c[n].
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * eye
        coeffs.append(-(a @ m).trace() / k)
    return np.array(coeffs)


def durand_kerner_roots(coeffs: np.ndarray, iters: int = 2000,
                        tol: float = 1e-13) -> np.ndarray:
    """All roots of a polynomial by the simultaneous (Weierstrass) iteration."""
    c = np.asarray(coeffs, dtype=complex)
    c = c / c[0]
    n = len(c) - 1
    radius = 1.0 + max(abs(x) for x in c[1:])
    roots = radius * (0.4 + 0.9j) ** np.arange(n)
    for _ in range(iters):
        vals = np.polyval(c, roots)
        step = np.empty_like(roots)
        for i in range(n):
            others = np.delete(roots, i)
            step[i] = vals[i] / np.prod(roots[i] - others)
        roots = roots - step
        if np.max(np.abs(step)) < tol * max(1.0, np.max(np.abs(roots))):
            break
    return roots


def eigenvalues_by_roots(a: np.ndarray) -> np.ndarray:
    return durand_kerner_roots(characteristic_polynomial(a))


# ---------------------------------------------------------------------------
# naive summations / assemblies
# ---------------------------------------------------------------------------

def naive_symbol(offsets, coefficients, theta) -> complex:
    """Term-by-term complex sum for one phase vector (scalar loop)."""
    acc = 0.0 + 0.0j
    for off, c in zip(offsets, coefficients):
        phase = sum(t * o for t, o in zip(theta, off))
        acc += c * complex(np.cos(phase), np.sin(phase))
    return acc


#: the bilinear (Q1) FEM Laplacian: a 9-point stencil, as a stencil file
Q1_STENCIL = {"geometry": {"kind": "rectangular", "h": [1.0, 1.0]},
              "entries": [{"offset": [i, j],
                           "coefficient": 8 / 3 if i == j == 0 else -1 / 3}
                          for i in (-1, 0, 1) for j in (-1, 0, 1)]}

#: X~ = 1 + (cos t1 + cos t2)/2 under Jacobi: its maximum 2 is at t = 0,
#: inside every low box; over the high closure for k = 1 it is 1.5
LOW_PEAK_STENCIL = {"geometry": {"kind": "rectangular", "h": [1.0, 1.0]},
                    "entries": [{"offset": [0, 0], "coefficient": 1.0}]
                    + [{"offset": list(o), "coefficient": 0.25}
                       for o in ((1, 0), (-1, 0), (0, 1), (0, -1))]}


def assemble_fd_matrix(n: int, dimension: int) -> np.ndarray:
    """Dense Dirichlet FD Laplacian on the unit domain via 1D Kronecker sums."""
    h = 1.0 / (n + 1)
    one_d = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1)) / h**2
    eye = np.eye(n)
    if dimension == 2:
        return np.kron(one_d, eye) + np.kron(eye, one_d)
    return (np.kron(np.kron(one_d, eye), eye)
            + np.kron(np.kron(eye, one_d), eye)
            + np.kron(np.kron(eye, eye), one_d))


def bilinear_weight_stencil() -> dict[tuple[int, int], float]:
    """Classical factor-2 bilinear weights (1/4, 1/2, 1 pattern)."""
    base = {-1: 0.5, 0: 1.0, 1: 0.5}
    return {(i, j): wi * wj for i, wi in base.items()
            for j, wj in base.items()}


def galerkin_matrices(fine, k: int, coarse_shapes) -> list:
    """Full-grid Galerkin products P^T A P / 2^{kd}, level by level.

    The triple product of the whole grid's matrices with the separable
    multilinear transfer (rectangular grids), the route the solver took
    before it read the coarse stencils from a small probe grid.
    """
    mats = [fine.tocsr()]
    for shape in coarse_shapes:
        p = separable_prolongation_matrix(shape, k)
        scale = float(2 ** (k * len(shape)))
        mats.append((p.T @ mats[-1] @ p).tocsr() / scale)
    return mats


# ---------------------------------------------------------------------------
# separable multilinear transfers: one 1D hat pass per axis, written out
# with their own weights; the rectangular reference for the solver's
# transfers, which read the hat from ``stencils.transfer_factors``
# ---------------------------------------------------------------------------

def hat_weights(k: int) -> np.ndarray:
    """1D transfer weights (1 - |j|/2^k) for j = -(2^k - 1) .. 2^k - 1."""
    m = 2**k
    j = np.arange(-m + 1, m)
    return 1.0 - np.abs(j) / m


def separable_prolongate(coarse: np.ndarray, k: int) -> np.ndarray:
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


def separable_restrict(fine: np.ndarray, k: int) -> np.ndarray:
    """Full weighting: adjoint of prolongate scaled by 2^{-k} per axis."""
    m = 2**k
    w = hat_weights(k)
    out = fine
    for axis in range(fine.ndim):
        cur = np.moveaxis(out, axis, 0)
        nc = (cur.shape[0] + 1) // m - 1
        coarse = np.zeros((nc,) + cur.shape[1:], dtype=cur.dtype)
        for r, wr in zip(range(-m + 1, m), w):
            coarse += wr * cur[m - 1 + r::m][:nc]
        out = np.moveaxis(coarse / m, 0, axis)
    return out


def separable_prolongation_matrix(coarse_shape, k: int):
    """Sparse multilinear interpolation matrix, a Kronecker product of 1D hats."""
    import scipy.sparse as sp

    m = 2**k
    out = sp.identity(1, format="csr")
    for nc in coarse_shape:
        cols = np.repeat(np.arange(nc), 2 * m - 1)
        rows = m * (cols + 1) - 1 + np.tile(np.arange(-m + 1, m), nc)
        p = sp.csr_matrix((np.tile(hat_weights(k), nc), (rows, cols)),
                          shape=(m * (nc + 1) - 1, nc))
        out = sp.kron(out, p, format="csr")
    return out


def transfer_nodal_table(geometry, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, weights) of the whole coarse hat: the product of the
    solver's per-factor nodal tables."""
    from polymg.stencils import transfer_factors, transfer_table

    d = geometry.dimension
    offsets, weights = np.zeros((1, d), dtype=int), np.ones(1)
    for factor in transfer_factors(geometry):
        axes, local, w = transfer_table(factor, k)
        factor = np.zeros((len(w), d), dtype=int)
        factor[:, list(axes)] = local
        offsets = (offsets[:, None, :] + factor[None, :, :]).reshape(-1, d)
        weights = (weights[:, None] * w[None, :]).ravel()
    return offsets, weights


# ---------------------------------------------------------------------------
# the LFA smoothing analysis by full lattice sweeps, with no cached values;
# these share the symbol and polish routines and check only the caching
# ---------------------------------------------------------------------------

def full_sweep_smoothing_factor(stencil, spec, k: int, preconditioner: str,
                                sampling, iterations: int = 1) -> float:
    """max |e(X~)|^iterations over every lattice point of the high closure."""
    from polymg.polynomials import error_poly
    from polymg.symbols import (frequency_lattice, high_closure_mask,
                                preconditioned_symbol)

    theta = frequency_lattice(stencil.geometry, sampling)
    x = preconditioned_symbol(stencil, preconditioner, theta)
    x = x[high_closure_mask(k, theta)]
    return float(np.max(np.abs(error_poly(spec, x)) ** iterations))


def two_polish_lambda_bounds(stencil, kind: str, k: int,
                             sampling) -> tuple[float, float]:
    """lambda_bounds polishing lambda1 and the high-range maximum afresh.

    Both maxima are refined from their own lattice seeds, unconstrained,
    on every call; the faces are searched on the high closure.
    """
    from polymg.symbols import (_polish_face_min, _polish_max,
                                frequency_lattice, high_closure_mask,
                                preconditioned_symbol)

    theta = frequency_lattice(stencil.geometry, sampling)
    ax = np.abs(preconditioned_symbol(stencil, kind, theta))
    lam1 = float(np.max(ax))
    lam1 = max(lam1, _polish_max(stencil, kind, theta[int(np.argmax(ax))]))

    hi = high_closure_mask(k, theta)
    theta_hi, ax_hi = theta[hi], ax[hi]
    lam0 = float(np.min(ax_hi))
    b = np.pi / 2**k
    for axis in range(stencil.geometry.dimension):
        for sign in (-1.0, 1.0):
            on_face = np.abs(theta_hi[:, axis] - sign * b) < 1e-12 * b
            if np.any(on_face):
                start = theta_hi[on_face][int(np.argmin(ax_hi[on_face]))]
                lam0 = min(lam0, _polish_face_min(stencil, kind, k, axis,
                                                  sign, start))

    lam1_high = float(np.max(ax_hi))
    lam1_high = max(lam1_high, _polish_max(
        stencil, kind, theta_hi[int(np.argmax(ax_hi))]))
    if abs(lam1_high - lam1) > 1e-9 * lam1:
        raise ValueError("symbol maximum is not attained on the high range")
    return lam0, lam1

"""The three polynomial smoother families and their one recurrence.

Every family is described by its error polynomial e(x) = 1 - x*q(x) with
e(0) = 1; q approximates 1/x on the smoothing interval.  Chebyshev is the
scaled/shifted classical polynomial, "sa" the smoothed-aggregation
polynomial (no lower interval end), and "ba1x" the best uniform
approximation to 1/x.

All three are evaluated by one three-term recurrence (``apply_q``) that
the symbols (X a scalar) and the multigrid solver (X = R0 A) share; the
families differ only in its coefficients (gamma, alpha_j, beta_j):

* Chebyshev (Saad, Iterative Methods, Alg. 12.1): gamma = zeta =
  2/(lambda1+lambda0), a = (lambda1+lambda0)/(lambda1-lambda0),
  alpha_j = T_j(a)/T_{j+2}(a), beta_j = 2 zeta a T_{j+1}(a)/T_{j+2}(a),
  with the T ratios from their own scalar recurrence.
* SA: the odd-Chebyshev recurrence T_{2j+3} = 2 T_2 T_{2j+1} - T_{2j-1}
  in u^2 = x/lambda1: gamma = 4/(3 lambda1), alpha_j = (2j-1)/(2j+3),
  beta_j = 4(2j+1)/((2j+3) lambda1) for j = 1..degree.
* ba1x: gamma = (mu0+mu1)/2; the first step reproduces p_1 =
  (sqrt(mu0)+sqrt(mu1))^2/2 - mu0 mu1 x, every later one has alpha_j =
  delta^2 and beta_j = c.

The recurrence constant for ba1x is c = 4*mu0*mu1/(sqrt(mu0)+sqrt(mu1))^2
= (1+delta)^2/lambda1.  Only this value keeps the recurrence consistent
with the closed-form endpoint error delta^m*(kappa-1)/2 and with an
independent exchange-algorithm construction (both are enforced in the
test suite); it also makes the two endpoint maps x -> +-1 of the
underlying Chebyshev argument exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

CHEBYSHEV = "chebyshev"
SA = "sa"
BA1X = "ba1x"
FAMILIES = (CHEBYSHEV, SA, BA1X)

#: bisection width, relative to lambda1, of ``optimal_lambda0_smoothing``
LAMBDA0_REL_TOL = 1e-10
#: points of (0, lambda1] at which ``is_admissible`` checks |e| < 1
ADMISSIBLE_SAMPLES = 4001


@dataclass(frozen=True)
class SmootherSpec:
    """Family, degree and smoothing interval of a polynomial smoother.

    ``degree`` is the degree of the approximant q (the error polynomial has
    degree degree+1).  ``lambda0`` is ignored by the SA family.
    """

    family: str
    degree: int
    lambda0: float
    lambda1: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown smoother family {self.family!r}")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if not (math.isfinite(self.lambda0) and math.isfinite(self.lambda1)):
            raise ValueError("lambda0 and lambda1 must be finite")
        if self.lambda1 <= 0:
            raise ValueError("lambda1 must be positive")
        if self.family != SA:
            if self.lambda0 < 0 or self.lambda0 >= self.lambda1:
                raise ValueError("need 0 <= lambda0 < lambda1")
        if self.family == CHEBYSHEV and self.lambda0 == self.lambda1:
            raise ValueError("degenerate Chebyshev interval")
        if self.family == BA1X and self.lambda0 == 0:
            raise ValueError("ba1x needs lambda0 > 0 (finite kappa)")

    def with_lambda0(self, lambda0: float) -> "SmootherSpec":
        return replace(self, lambda0=lambda0)

    def to_dict(self) -> dict:
        return {"family": self.family, "degree": self.degree,
                "lambda0": self.lambda0, "lambda1": self.lambda1}

    @staticmethod
    def from_dict(d: dict) -> "SmootherSpec":
        return SmootherSpec(family=d["family"], degree=int(d["degree"]),
                            lambda0=float(d["lambda0"]),
                            lambda1=float(d["lambda1"]))


def _ba1x_constants(lam0: float, lam1: float) -> tuple[float, float, float, float]:
    """(mu0, mu1, delta, c) of the recurrence on [lam0, lam1]."""
    mu0, mu1 = 1.0 / lam1, 1.0 / lam0
    kappa = lam1 / lam0
    delta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
    c = 4 * mu0 * mu1 / (math.sqrt(mu0) + math.sqrt(mu1)) ** 2
    return mu0, mu1, delta, c


def _recurrence(spec: SmootherSpec) -> tuple[float, list[tuple[float, float]]]:
    """(gamma, [(alpha_j, beta_j)] for the degree steps) of apply_q."""
    m, lam0, lam1 = spec.degree, spec.lambda0, spec.lambda1
    if spec.family == CHEBYSHEV:
        zeta = 2.0 / (lam1 + lam0)
        a = (lam1 + lam0) / (lam1 - lam0)
        steps = []
        ratio = 1.0 / a                  # T_j(a)/T_{j+1}(a), j = 0
        for _ in range(m):
            nxt = 1.0 / (2 * a - ratio)  # T_{j+1}(a)/T_{j+2}(a)
            steps.append((ratio * nxt, 2 * zeta * a * nxt))
            ratio = nxt
        return zeta, steps
    if spec.family == SA:
        return 4.0 / (3.0 * lam1), [
            ((2 * j - 1) / (2 * j + 3), 4 * (2 * j + 1) / ((2 * j + 3) * lam1))
            for j in range(1, m + 1)]
    mu0, mu1, delta, c = _ba1x_constants(lam0, lam1)
    gamma = 0.5 * (mu0 + mu1)
    g = 2 * mu0 * mu1 / (mu0 + mu1)
    s = 0.5 * (math.sqrt(mu0) + math.sqrt(mu1)) ** 2
    first = ((s - g) / gamma - 1.0, g)  # gives p_1 from p_0 = gamma
    return gamma, ([first] + [(delta**2, c)] * (m - 1))[:m]


def apply_q(spec: SmootherSpec, b, residual):
    """v = q(X) b by the family's three-term recurrence.

    v_{-1} = 0, v_0 = gamma b and v_{j+1} = v_j + alpha_j (v_j - v_{j-1})
    + beta_j r_j with r_j = residual(v_j) = b - X v_j, taken ``degree``
    times.  X is scalar multiplication for the symbols and R0 A for the
    solver, so both evaluate the same polynomial.  The update runs in
    place on two rotating buffers and never writes ``b``; ``residual``
    must return a fresh array (or a scalar), which is scaled in place.
    -alpha (v_{j-1} - v_j) rounds like alpha (v_j - v_{j-1}), so the
    result compares equal to the one-expression update.
    """
    gamma, steps = _recurrence(spec)
    v_prev, v = 0.0, gamma * b
    for alpha, beta in steps:
        rbar = residual(v)
        v_prev -= v
        v_prev *= -alpha
        v_prev += v
        rbar *= beta
        v_prev += rbar
        v, v_prev = v_prev, v
    return v


def error_poly(spec: SmootherSpec, x) -> np.ndarray:
    """The error polynomial e(x) = 1 - x q(x); e(0) = 1 for every family."""
    x = np.asarray(x, dtype=float)
    return 1.0 - x * q_value(spec, x)


def q_value(spec: SmootherSpec, x) -> np.ndarray:
    """The approximant q(x), with e(x) = 1 - x q(x)."""
    x = np.asarray(x, dtype=float)
    return apply_q(spec, np.ones_like(x), lambda v: 1.0 - x * v)


def ba1x_endpoint_errors(m: int, lam: float, lam0: float, lam1: float
                         ) -> tuple[float, float]:
    """Closed-form endpoint errors of p_m built on [lam, lam1].

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
    kappa = lam1 / lam
    delta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
    at_lambda1 = delta**m * (kappa - 1) / 2.0

    mu0, mu1, delta, c = _ba1x_constants(lam, lam1)
    x = lam0
    y = (1.0 + delta**2 - c * x) / (2.0 * delta)
    e0 = 1.0 / x - 0.5 * (mu0 + mu1)
    e1 = 1.0 / x - (0.5 * (math.sqrt(mu0) + math.sqrt(mu1)) ** 2 - mu0 * mu1 * x)
    v_prev, v_cur = 0.0, 1.0  # V_{-1}, V_0
    for _ in range(m - 1):
        v_prev, v_cur = v_cur, 2 * y * delta * v_cur - delta**2 * v_prev
    em = -(delta**2) * e0 * v_prev + e1 * v_cur
    return at_lambda1, lam0 * em


def optimal_lambda0_smoothing(m: int, lambda0: float,
                              lambda1: float) -> float:
    """The interval left end minimizing max|e| over [lambda0, lambda1].

    The error at lambda1 decreases and the error at lambda0 increases as
    the construction interval [lam, lambda1] shrinks, so their crossing is
    the min-max point; found by bisection.  If the branches never cross
    the better endpoint is returned.
    """
    if m < 1:
        raise ValueError("optimal lambda0 needs degree m >= 1")
    if not 0 < lambda0 < lambda1:
        raise ValueError("need 0 < lambda0 < lambda1")

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


def min_degree(rho: float, kappa: float, lambda1: float) -> int:
    """Minimal ba1x degree giving damping rho and a positive approximant.

    Smallest integer m with m >= max(|log(2 rho/(kappa-1))|,
    |log(2/(lambda1 (kappa-1)))|) / |log delta|.
    """
    if not 0 < rho < 1:
        raise ValueError("need 0 < rho < 1")
    if kappa <= 1:
        raise ValueError("need kappa > 1")
    delta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
    bound = max(abs(math.log(2 * rho / (kappa - 1))),
                abs(math.log(2 / (lambda1 * (kappa - 1)))))
    bound /= abs(math.log(delta))
    return max(math.ceil(bound), 0)


def is_admissible(spec: SmootherSpec) -> bool:
    """Convergent-smoother proxy: max |e(x)| < 1 on (0, lambda1]."""
    x = np.linspace(spec.lambda1 / ADMISSIBLE_SAMPLES, spec.lambda1,
                    ADMISSIBLE_SAMPLES)
    return bool(np.max(np.abs(error_poly(spec, x))) < 1.0)

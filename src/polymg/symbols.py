"""Fourier symbols, frequency sampling, and the LFA eigenvalue bounds.

Frequencies live in Theta_h = (-pi/h_1, pi/h_1] x ... per axis; for
triangular geometry the components are reciprocal-basis coordinates with
the common scalar width, so every formula below treats both geometries
identically.  Coarsening by 2^k declares the centered box of half-width
pi/(2^k h_d) "low"; everything else is "high".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .stencils import GridGeometry, Stencil

JACOBI = "jacobi"
L1_JACOBI = "l1_jacobi"
PRECONDITIONERS = (JACOBI, L1_JACOBI)

#: symmetric stencils must produce symbols with imaginary part below this
REAL_SYMBOL_TOL = 1e-12
#: shift, in lattice steps, of the sampled lattice off theta = 0
OFFSET_FRACTION = 0.5


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: how the LFA caches share their arrays."""
    array.flags.writeable = False
    return array


def symbol_terms(stencil: Stencil) -> tuple[np.ndarray, np.ndarray]:
    """The frequency-free part of the symbol: (h*offsets, complex coefficients)."""
    return (stencil.offset_array * np.asarray(stencil.geometry.h),
            stencil.coefficient_array.astype(complex))


def fourier_sum(theta: np.ndarray, offsets: np.ndarray,
                coefficients: np.ndarray) -> np.ndarray:
    """sum_j c_j exp(i theta . offset_j) over the last axis of theta (..., d)."""
    return np.exp(1j * (theta @ offsets.T)) @ coefficients


def evaluate_symbol(stencil: Stencil, theta: np.ndarray) -> np.ndarray:
    """Symbol sum_j c_j exp(i theta . (h*offset_j)) at frequencies theta.

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
    if worst > REAL_SYMBOL_TOL * max(1.0, float(np.max(np.abs(s)))):
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


def _lattice(geometry: GridGeometry, n: int, shift: float) -> np.ndarray:
    """-pi/h_d + (j + shift) 2 pi/(n h_d), j = 0..n-1, on every axis."""
    axes = [-np.pi / w + (2 * np.pi / (w * n)) * (np.arange(n) + shift)
            for w in geometry.h]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def frequency_lattice(geometry: GridGeometry,
                      sampling: FrequencySampling) -> np.ndarray:
    """Inclusive uniform lattice over (-pi/h_d, pi/h_d] (contains 0 and pi/h)."""
    return _lattice(geometry, sampling.samples_per_axis, 1.0)


def lattice_symbol(stencil: Stencil, kind: str, sampling: FrequencySampling
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The inclusive lattice and X~ on it.

    X~ is cached per (stencil, preconditioner, sampling) and its sorted
    distinct values over the high closure per (stencil, preconditioner,
    sampling, k) (``high_closure_values``), both read-only; results read
    from them are bit-identical to a full sweep.  The lattice is rebuilt.
    """
    x = _lattice_x(stencil, kind, sampling)  # first: one lattice at a time
    return frequency_lattice(stencil.geometry, sampling), x


@lru_cache(maxsize=4)
def _lattice_x(stencil: Stencil, kind: str,
               sampling: FrequencySampling) -> np.ndarray:
    return read_only(preconditioned_symbol(
        stencil, kind, frequency_lattice(stencil.geometry, sampling)))


@lru_cache(maxsize=16)
def high_closure_values(stencil: Stencil, kind: str,
                        sampling: FrequencySampling, k: int) -> np.ndarray:
    """Sorted distinct X~ over the high closure of the lattice (read-only)."""
    x = _lattice_x(stencil, kind, sampling)  # first: one lattice at a time
    theta = frequency_lattice(stencil.geometry, sampling)
    hi = high_closure_mask(stencil.geometry, k, theta)
    return read_only(np.unique(x[hi]))


def low_frequency_mask(geometry: GridGeometry, k: int,
                       theta: np.ndarray) -> np.ndarray:
    """Membership in Theta_{2^k h}: the half-open box (-b_d, b_d] per axis."""
    h = np.asarray(geometry.h)
    b = np.pi / (2**k * h)
    eps = 1e-12 * b
    return np.all((theta > -b - eps) & (theta <= b + eps), axis=-1)


def high_closure_mask(geometry: GridGeometry, k: int,
                      theta: np.ndarray) -> np.ndarray:
    """Closure of the high-frequency region (keeps the low-box boundary)."""
    h = np.asarray(geometry.h)
    b = np.pi / (2**k * h)
    return np.max(np.abs(theta) / b, axis=-1) >= 1.0 - 1e-12


def sample_frequencies(geometry: GridGeometry, k: int,
                       sampling: FrequencySampling
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Offset uniform lattice over Theta_h, split into (low, high).

    The lattice is shifted by OFFSET_FRACTION of a step so theta = 0 is
    never sampled; exactly (N/2^k)^d samples land in the low box.
    """
    sampling.validate_ratio(k)
    theta = _lattice(geometry, sampling.samples_per_axis, OFFSET_FRACTION)
    low = low_frequency_mask(geometry, k, theta)
    return theta[low], theta[~low]


def _polish_max(stencil: Stencil, kind: str, theta0: np.ndarray,
                k: int | None = None) -> float:
    """Local refinement of max |X~| from a lattice seed (torus); with ``k``,
    points strictly inside the low box of 2^k coarsening never count."""
    top = np.pi / np.asarray(stencil.geometry.h)

    def neg(t):
        if k and not high_closure_mask(stencil.geometry, k,
                                       top - np.mod(top - t, 2 * top)):
            return np.inf
        return -abs(float(preconditioned_symbol(stencil, kind, t[None])[0]))

    res = minimize(neg, theta0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000})
    return -res.fun


@lru_cache(maxsize=4)
def _lambda1(stencil: Stencil, kind: str,
             sampling: FrequencySampling) -> tuple[float, int]:
    """max |X~| over all frequencies, polished, and its seed's index."""
    theta, x = lattice_symbol(stencil, kind, sampling)
    top = int(np.argmax(np.abs(x)))
    return max(abs(float(x[top])), _polish_max(stencil, kind, theta[top])), top


def _polish_face_min(stencil: Stencil, kind: str, k: int, axis: int,
                     sign: float, start: np.ndarray) -> float:
    """Minimize |X~| over one face of the low box, free coordinates bounded."""
    h = np.asarray(stencil.geometry.h)
    b = np.pi / (2**k * h)
    fixed = sign * b[axis]

    def val(free):
        t = np.insert(np.atleast_1d(free), axis, fixed)
        return abs(float(preconditioned_symbol(stencil, kind, t[None])[0]))

    free_b = np.delete(b, axis)
    # the lattice seed may lie beyond the low box on a free axis
    res = minimize(val, np.clip(np.delete(start, axis), -free_b, free_b),
                   method="Powell", bounds=list(zip(-free_b, free_b)),
                   options={"xtol": 1e-12, "ftol": 1e-15, "maxiter": 2000})
    return float(res.fun)


def lambda_bounds(stencil: Stencil, kind: str, k: int,
                  sampling: FrequencySampling | None = None
                  ) -> tuple[float, float]:
    """LFA eigenvalue bounds of [A_h^+]^{-1} A_h over the high frequencies.

    lambda0 is the minimum of |X~| over the closure of the high-frequency
    region (lattice sweep plus local refinement on the low-box faces, so
    boundary infima such as the 5-point value 1/2 are met exactly);
    lambda1 is the maximum over all frequencies, which is asserted to
    agree with the maximum over the high range.  lambda0's sweep reads
    ``high_closure_values``; lambda1 and its polish are cached per
    (stencil, preconditioner, sampling), and the high-range maximum,
    polished inside the high closure, is only computed when lambda1's
    seed lies outside it.  The bounds are bit-identical to full sweeps.
    """
    if not stencil.is_symmetric():
        raise ValueError("lambda bounds require a symmetric stencil")
    sampling = sampling or FrequencySampling()
    sampling.validate_ratio(k)
    geometry = stencil.geometry
    theta, x = lattice_symbol(stencil, kind, sampling)
    if np.min(x) < -REAL_SYMBOL_TOL:
        raise ValueError("preconditioned symbol is not positive semi-definite")
    ax = np.abs(x)
    lam1, top = _lambda1(stencil, kind, sampling)

    values = high_closure_values(stencil, kind, sampling, k)
    lam0 = float(np.min(np.abs(values)))
    b = np.pi / (2**k * np.asarray(geometry.h))
    for axis in range(geometry.dimension):  # face points are all high
        for sign in (-1.0, 1.0):
            on_face = np.abs(theta[:, axis] - sign * b[axis]) < 1e-12 * b[axis]
            if not np.any(on_face):
                continue
            start = theta[on_face][int(np.argmin(ax[on_face]))]
            lam0 = min(lam0, _polish_face_min(stencil, kind, k, axis, sign, start))

    if not high_closure_mask(geometry, k, theta[top]):
        hi = high_closure_mask(geometry, k, theta)
        seed = int(np.argmax(ax[hi]))
        lam1_high = max(float(ax[hi][seed]),
                        _polish_max(stencil, kind, theta[hi][seed], k))
        if abs(lam1_high - lam1) > 1e-9 * lam1:
            raise ValueError(
                f"symbol maximum {lam1:.6g} is not attained on the high range "
                f"(high max {lam1_high:.6g}); lambda1 would be ambiguous"
            )
    return float(lam0), float(lam1)

"""Grid geometries and constant-coefficient stencils.

A stencil couples a lattice neighbourhood (integer offsets) to real
coefficients; the geometry supplies the physical scaling and, for
triangular grids, the two angles that characterize the mesh.  Offsets are
stored unscaled so one stencil object serves every mesh width.  The
geometry also fixes the coarse-grid transfer (``transfer_factors``), which
the LFA symbol and the solver's grid transfers both read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

RECTANGULAR = "rectangular"
TRIANGULAR = "triangular"
#: largest coefficient mismatch at -o and o of a symmetric stencil, relative
#: to the largest coefficient magnitude
SYMMETRY_TOL = 1e-14


@dataclass(frozen=True)
class GridGeometry:
    """Lattice geometry: rectangular (2D/3D) or triangular (2D).

    For a rectangular grid ``h`` holds one mesh width per axis.  A
    triangular grid is generated by two basis vectors forming angles
    ``alpha``, ``beta`` with the third mesh direction (gamma = pi - alpha
    - beta must stay positive) and a single scalar mesh width.
    """

    kind: str
    h: tuple[float, ...]
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in (RECTANGULAR, TRIANGULAR):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if not all(math.isfinite(w) and w > 0 for w in self.h):
            raise ValueError(f"mesh widths must be finite and positive, "
                             f"got {self.h}")
        if not all(a is None or math.isfinite(a)
                   for a in (self.alpha, self.beta)):
            raise ValueError(f"angles must be finite, got alpha={self.alpha}, "
                             f"beta={self.beta}")
        if self.kind == TRIANGULAR:
            if len(self.h) != 2:
                raise ValueError("triangular geometry is two-dimensional")
            if self.alpha is None or self.beta is None:
                raise ValueError("triangular geometry needs both angles")
            gamma = math.pi - self.alpha - self.beta
            if min(self.alpha, self.beta, gamma) <= 0:
                raise ValueError(
                    f"degenerate angles: alpha={self.alpha}, beta={self.beta}, "
                    f"gamma={gamma}"
                )
        else:
            if len(self.h) not in (2, 3):
                raise ValueError("rectangular geometry must be 2D or 3D")

    @property
    def dimension(self) -> int:
        return len(self.h)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "dimension": self.dimension, "h": list(self.h)}
        if self.kind == TRIANGULAR:
            d["alpha"] = self.alpha
            d["beta"] = self.beta
        return d

    @staticmethod
    def from_dict(d: dict) -> "GridGeometry":
        kind = _field(d, "kind", "geometry")
        h = _field(d, "h", "geometry", _array(float))
        angles = {a: _field(d, a, "geometry", float)
                  for a in ("alpha", "beta") if d.get(a) is not None}
        geometry = GridGeometry(kind=kind, h=h, **angles)
        if "dimension" in d and \
                _field(d, "dimension", "geometry", int) != geometry.dimension:
            raise ValueError("dimension field disagrees with mesh widths")
        return geometry


def _field(d, key: str, where: str, convert=None):
    """``convert(d[key])`` of a JSON object, or a ValueError naming the field."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    if key not in d:
        raise ValueError(f"{where} has no {key!r} field")
    try:
        return d[key] if convert is None else convert(d[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}.{key} is mistyped: {d[key]!r}") from None


def _integer(value) -> int:
    """``int(value)`` of an integral value; a fractional one is mistyped."""
    n = int(value)
    if n != float(value):
        raise ValueError(f"{value!r} is not an integer")
    return n


def _array(convert):
    """Converter of a JSON array to a tuple of its converted elements."""
    def array(values) -> tuple:
        if not isinstance(values, list):
            raise TypeError("not an array")
        return tuple(map(convert, values))
    return array


def rectangular(h: float | Sequence[float], dimension: int | None = None) -> GridGeometry:
    """Rectangular geometry from a scalar (isotropic) or per-axis widths."""
    if np.isscalar(h):
        if dimension is None:
            raise ValueError("dimension required for a scalar mesh width")
        widths = (float(h),) * dimension
    else:
        widths = tuple(float(w) for w in h)
    return GridGeometry(kind=RECTANGULAR, h=widths)


def triangular(alpha: float, beta: float, h: float = 1.0) -> GridGeometry:
    return GridGeometry(kind=TRIANGULAR, h=(float(h), float(h)),
                        alpha=float(alpha), beta=float(beta))


@dataclass(frozen=True)
class Stencil:
    """Constant-coefficient operator: integer offsets plus coefficients."""

    geometry: GridGeometry
    offsets: tuple[tuple[int, ...], ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.offsets) != len(self.coefficients):
            raise ValueError("offsets and coefficients must pair up")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("stencil coefficients must be finite")
        total = sum(map(abs, self.coefficients))
        if not math.isfinite(total):
            raise ValueError("stencil coefficient magnitudes overflow: "
                             "their sum is infinite")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("duplicate stencil offsets")
        zero = tuple([0] * self.geometry.dimension)
        if zero not in self.offsets:
            raise ValueError("stencil must contain the zero offset")
        center = self.coefficients[self.offsets.index(zero)]
        if center <= 0:
            raise ValueError("center coefficient must be positive")
        if not math.isfinite(4 * (total / center)):  # room to normalize
            raise ValueError("stencil coefficient magnitudes overflow "
                             "relative to the center coefficient")
        for o in self.offsets:
            if len(o) != self.geometry.dimension:
                raise ValueError("offset dimension mismatch")

    @property
    def center(self) -> float:
        zero = tuple([0] * self.geometry.dimension)
        return self.coefficients[self.offsets.index(zero)]

    def normalized(self) -> "Stencil":
        """This stencil times the power of four that puts its centre in
        [1/2, 2): exact in the normal range, and an even power of two so
        that the square roots of the coefficients scale exactly too."""
        shift = -2 * (math.frexp(self.center)[1] // 2)
        return replace(self, coefficients=tuple(
            math.ldexp(c, shift) for c in self.coefficients))

    def is_symmetric(self) -> bool:
        """coefficient at -o equals coefficient at o for every offset."""
        table = dict(zip(self.offsets, self.coefficients))
        tol = SYMMETRY_TOL * max(map(abs, self.coefficients))
        for o, c in table.items():
            neg = tuple(-x for x in o)
            if neg not in table or abs(table[neg] - c) > tol:
                return False
        return True

    def with_mesh_width(self, factor: float) -> "Stencil":
        """The same operator at mesh width factor*h.

        Coefficients scale by factor^-2, exact for a second-order stencil
        with unscaled offsets (and bit-exact for powers of two).
        """
        scale = factor ** -2
        geometry = replace(self.geometry,
                           h=tuple(w * factor for w in self.geometry.h))
        return replace(self, geometry=geometry,
                       coefficients=tuple(c * scale for c in self.coefficients))

    def to_dict(self) -> dict:
        return {
            "geometry": self.geometry.to_dict(),
            "entries": [
                {"offset": list(o), "coefficient": c}
                for o, c in zip(self.offsets, self.coefficients)
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "Stencil":
        geometry = GridGeometry.from_dict(_field(d, "geometry", "stencil"))
        entries = _field(d, "entries", "stencil", _array(lambda e: e))
        where = [f"stencil.entries[{i}]" for i in range(len(entries))]
        offsets = tuple(_field(e, "offset", w, _array(_integer))
                        for e, w in zip(entries, where))
        coefficients = tuple(_field(e, "coefficient", w, float)
                             for e, w in zip(entries, where))
        return Stencil(geometry=geometry, offsets=offsets,
                       coefficients=coefficients)

    @staticmethod
    def load(path: str) -> "Stencil":
        with open(path) as f:
            return Stencil.from_dict(json.load(f))


def build_fd_laplace(geometry: GridGeometry) -> Stencil:
    """Standard 5-point (2D) / 7-point (3D) finite-difference Laplacian.

    Center 2*d/h^2, axis neighbours -1/h_d^2 (per-axis widths supported).
    """
    if geometry.kind != RECTANGULAR:
        raise ValueError("finite-difference Laplacian needs a rectangular grid")
    d = geometry.dimension
    offsets = [tuple([0] * d)]
    coeffs = [sum(2.0 / w**2 for w in geometry.h)]
    for ax in range(d):
        for s in (-1, 1):
            o = [0] * d
            o[ax] = s
            offsets.append(tuple(o))
            coeffs.append(-1.0 / geometry.h[ax] ** 2)
    return Stencil(geometry=geometry, offsets=tuple(offsets),
                   coefficients=tuple(coeffs))


def build_fem_tri_laplace(alpha: float, beta: float, h: float = 1.0) -> Stencil:
    """Linear-FEM Laplacian stencil on a structured triangular grid.

    Seven entries: the mesh directions e1, e2 and the diagonal e1+e2 carry
    -cot(gamma), -cot(alpha), -cot(beta) respectively, all scaled by
    (cot(alpha)+cot(beta))/h^2; the row sum is zero.
    """
    geometry = triangular(alpha, beta, h)
    gamma = math.pi - alpha - beta
    ca, cb, cg = 1 / math.tan(alpha), 1 / math.tan(beta), 1 / math.tan(gamma)
    pref = (ca + cb) / h**2
    offsets = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
    coeffs = (2 * (ca + cb + cg), -cg, -cg, -ca, -ca, -cb, -cb)
    return Stencil(geometry=geometry, offsets=offsets,
                   coefficients=tuple(pref * c for c in coeffs))


def transfer_factors(geometry: GridGeometry
                     ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The box directions of the 2^k coarse-grid transfer, grouped into factors.

    The nested 2^k-coarse hat is the m-point box (m = 2^k) convolved along
    them (de Boor, Hollig & Riemenschneider, *Box Splines*, 1993): each
    rectangular axis twice, one factor per axis (the multilinear hat); e1,
    e2 and e1 + e2 once in one factor on triangular grids (the P1 pyramid).
    """
    if geometry.kind == TRIANGULAR:
        return (((1, 0), (0, 1), (1, 1)),)
    d = geometry.dimension
    return tuple(((0,) * a + (1,) + (0,) * (d - a - 1),) * 2 for a in range(d))


@lru_cache(maxsize=32)
def transfer_table(factor: tuple[tuple[int, ...], ...], k: int
                   ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Nodal table of one transfer factor: (axes, offsets, weights).

    The m-point box convolved along the factor's p directions on the a axes
    they span, over m^(p - a) (weight 1 at offset 0); nonzero weights only,
    read-only, offsets from the centre in lexicographic order."""
    m = 2**k
    directions = np.asarray(factor)
    axes = tuple(int(a) for a in np.flatnonzero(directions.any(axis=0)))
    table = np.ones((1,) * len(axes))
    for xi in directions[:, axes]:
        grown = np.zeros(table.shape + (m - 1) * xi)
        for j in range(m):
            grown[tuple(slice(j * x, j * x + n)
                        for x, n in zip(xi, table.shape))] += table
        table = grown
    table /= float(m) ** (len(directions) - len(axes))
    nodes = np.argwhere(table)
    offsets = nodes - (np.asarray(table.shape) - 1) // 2
    weights = table[tuple(nodes.T)]
    offsets.flags.writeable = weights.flags.writeable = False
    return axes, offsets, weights

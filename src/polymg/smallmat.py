"""Dense spectral radii of two-grid block symbols.

Blocks are plain complex ndarrays (row-major, as the rest of the package
produces them).  ``spectral_radii`` is the one dense eigen-solve: it
validates a (..., n, n) stack and takes every radius from one batched
LAPACK call (Hessenberg + shifted QR via numpy), which handles the
non-normal blocks the coarse-grid correction produces.
``spectral_radius`` is the same call on a single matrix.
"""

from __future__ import annotations

import numpy as np

#: two-grid blocks are at most 8^3 x 8^3 (3D, k = 3)
MAX_DENSE_SIZE = 512


def spectral_radius(m) -> float:
    """max |eigenvalue| of one square matrix."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return float(spectral_radii(a))


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Spectral radius per matrix of a (..., n, n) stack (batched LAPACK)."""
    a = np.asarray(stack, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(
            f"expected a stack of non-empty square matrices, got {a.shape}")
    if a.shape[-1] > MAX_DENSE_SIZE:
        raise ValueError(
            f"matrix size {a.shape[-1]} exceeds the dense cap {MAX_DENSE_SIZE}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as err:  # iteration cap hit, never silent
        raise RuntimeError(f"eigenvalue iteration failed to converge: {err}")
    return np.max(np.abs(ev), axis=-1)

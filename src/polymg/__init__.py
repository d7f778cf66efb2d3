"""Polynomial multigrid smoothers, their local Fourier analysis under
aggressive coarsening, and a matrix-free geometric multigrid solver."""

__version__ = "0.1.0"

from .stencils import (GridGeometry, Stencil, build_fd_laplace,
                       build_fem_tri_laplace, rectangular, triangular)
from .symbols import (FrequencySampling, JACOBI, L1_JACOBI, evaluate_symbol,
                      lambda_bounds, preconditioned_symbol,
                      preconditioner_symbol, sample_frequencies)
from .polynomials import (BA1X, CHEBYSHEV, SA, SmootherSpec,
                          ba1x_endpoint_errors, error_poly, min_degree,
                          optimal_lambda0_smoothing, q_value)
from .smallmat import matmul, spectral_radius
from .lfa import (GALERKIN, REDISCRETIZED, HarmonicBlock, TwoGridConfig,
                  harmonic_frequencies, optimal_lambda0_two_grid,
                  prolongation_symbol, rho_two_grid, smoothing_factor,
                  two_grid_block)
from .multigrid import (CycleSpec, GridLevel, Multigrid, apply_operator,
                        apply_smoother, make_grid_level,
                        measure_asymptotic_rate, prolongate, restrict)
from .tables import reproduce_table

__all__ = [
    "GridGeometry", "Stencil", "build_fd_laplace", "build_fem_tri_laplace",
    "rectangular", "triangular",
    "FrequencySampling", "JACOBI", "L1_JACOBI", "evaluate_symbol",
    "lambda_bounds", "preconditioned_symbol", "preconditioner_symbol",
    "sample_frequencies",
    "BA1X", "CHEBYSHEV", "SA", "SmootherSpec",
    "ba1x_endpoint_errors", "error_poly", "min_degree",
    "optimal_lambda0_smoothing", "q_value",
    "matmul", "spectral_radius",
    "GALERKIN", "REDISCRETIZED", "HarmonicBlock", "TwoGridConfig",
    "harmonic_frequencies", "optimal_lambda0_two_grid",
    "prolongation_symbol", "rho_two_grid", "smoothing_factor",
    "two_grid_block",
    "CycleSpec", "GridLevel", "Multigrid", "apply_operator",
    "apply_smoother", "make_grid_level", "measure_asymptotic_rate",
    "prolongate", "restrict",
    "reproduce_table",
]

"""Polynomial smoothers and convergence bounds for multigrid V-cycles.

Builds Q1 finite-element Poisson systems on anisotropic grids, runs
geometric V-cycles with damped-Jacobi, fourth-kind Chebyshev, or
equioscillation-optimal polynomial smoothing, and evaluates the
corresponding closed-form contraction bounds.
"""

from .bounds import (
    SharpConstants,
    SimpleBound,
    beta_constant,
    bound_cheb,
    bound_cheb_sharp,
    bound_cheb_two_level,
    bound_generic,
    bound_opt_conjecture,
    bound_sharp_generic,
    bound_simple,
    cheb_sharp_exact_discount,
    crossover_C,
    limit_constants,
    omega_condition_holds,
    omega_max_asymptotic,
    omega_max_exact,
    sharp_constants,
)
from .fem import GridSpec, assemble_poisson_q1, build_prolongation, jacobi_smoother
from .linalg import (
    CholeskySolver,
    lanczos_max,
    load_matrix_market,
    save_matrix_market,
    validate_csr,
)
from .multigrid import (
    Hierarchy,
    Level,
    VCycleConfig,
    build_hierarchy,
    measure_C,
    measure_CN,
    measure_contraction,
    v_cycle,
)
from .optpoly import EquioscillationState, optimal_polynomial, optimal_roots
from .poly import PolynomialSpec, cheb4_coefficients, cheb4_smoother_poly, cheb_w, gamma_mu
from .smoothers import DiagonalSmoother, SmootherConfig, apply_smoother

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "assemble_poisson_q1",
    "build_prolongation",
    "jacobi_smoother",
    "CholeskySolver",
    "lanczos_max",
    "validate_csr",
    "save_matrix_market",
    "load_matrix_market",
    "PolynomialSpec",
    "cheb_w",
    "cheb4_coefficients",
    "cheb4_smoother_poly",
    "gamma_mu",
    "EquioscillationState",
    "optimal_roots",
    "optimal_polynomial",
    "DiagonalSmoother",
    "SmootherConfig",
    "apply_smoother",
    "Level",
    "Hierarchy",
    "VCycleConfig",
    "build_hierarchy",
    "v_cycle",
    "measure_contraction",
    "measure_C",
    "measure_CN",
    "bound_generic",
    "bound_simple",
    "SimpleBound",
    "omega_condition_holds",
    "omega_max_exact",
    "omega_max_asymptotic",
    "bound_cheb",
    "bound_cheb_two_level",
    "bound_cheb_sharp",
    "bound_opt_conjecture",
    "bound_sharp_generic",
    "cheb_sharp_exact_discount",
    "sharp_constants",
    "SharpConstants",
    "limit_constants",
    "beta_constant",
    "crossover_C",
    "__version__",
]

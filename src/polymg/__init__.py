"""Polynomial smoothers and convergence bounds for multigrid V-cycles.

Builds Q1 finite-element Poisson systems on anisotropic grids, runs
geometric V-cycles with damped-Jacobi, fourth-kind Chebyshev, or
equioscillation-optimal polynomial smoothing, and evaluates the
corresponding closed-form contraction bounds.
"""

from .bounds import (
    bound_cheb,
    bound_cheb_sharp,
    bound_cheb_two_level,
    bound_opt_conjecture,
    bound_simple,
)
from .fem import GridSpec, assemble_poisson_q1, two_level_C
from .multigrid import build_hierarchy, measure_contraction, v_cycle
from .optpoly import optimal_polynomial
from .poly import PolynomialSpec, gamma_mu
from .smoothers import SmootherConfig

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "assemble_poisson_q1",
    "build_hierarchy",
    "SmootherConfig",
    "v_cycle",
    "measure_contraction",
    "two_level_C",
    "PolynomialSpec",
    "optimal_polynomial",
    "gamma_mu",
    "bound_simple",
    "bound_cheb",
    "bound_cheb_sharp",
    "bound_cheb_two_level",
    "bound_opt_conjecture",
    "__version__",
]

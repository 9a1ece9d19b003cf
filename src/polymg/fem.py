"""Bilinear (Q1) finite elements for the anisotropic Poisson model problem.

The domain is a rectangle meshed by ``2^m x 2^m`` axis-aligned elements of
size ``hx x hy`` with ``hx/hy = aspect``; homogeneous Dirichlet conditions
leave ``(2^m - 1)^2`` interior unknowns.  Stretching the elements makes
point-Jacobi smoothing progressively weaker: the smoothing constant grows
like ``2 * aspect^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers
import warnings

import numpy as np
import scipy.sparse as sp

from .linalg import as_csr, lanczos_max
from .smoothers import DiagonalSmoother

__all__ = [
    "GridSpec",
    "assemble_poisson_q1",
    "build_prolongation",
    "jacobi_smoother",
]


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid with ``2^m`` elements per side and element aspect ``hx/hy``."""

    m: int
    aspect: float = 1.0

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.m < 2:
            raise ValueError("need m >= 2 (at least a 3x3 interior)")
        if not self.aspect >= 1.0:
            raise ValueError("aspect ratio must be >= 1")
        if not math.isfinite(self.aspect):
            raise ValueError("aspect ratio must be finite")

    @property
    def n_side(self) -> int:
        """Interior nodes per side."""
        return 2 ** self.m - 1

    @property
    def n_interior(self) -> int:
        return self.n_side ** 2

    @property
    def hy(self) -> float:
        return 1.0 / 2 ** self.m

    @property
    def hx(self) -> float:
        return self.aspect / 2 ** self.m

    def coarsen(self) -> "GridSpec":
        return GridSpec(m=self.m - 1, aspect=self.aspect)


def _stiffness_and_mass_1d(n: int, h: float) -> tuple[sp.dia_array, sp.dia_array]:
    """1-D linear-element stiffness and mass matrices on ``n`` interior nodes.

    ``K = (1/h) tridiag(-1, 2, -1)`` and ``M = (h/6) tridiag(1, 4, 1)``.
    """
    off = np.ones(n - 1)
    K = sp.diags_array([-off / h, np.full(n, 2.0 / h), -off / h], offsets=[-1, 0, 1])
    M = sp.diags_array([off * h / 6, np.full(n, 4.0 * h / 6), off * h / 6], offsets=[-1, 0, 1])
    return K, M


def assemble_poisson_q1(grid: GridSpec) -> sp.csr_array:
    """Assemble the Dirichlet Q1 stiffness matrix on the interior nodes.

    Q1 shape functions are products of 1-D hat functions, so the operator
    is the Kronecker sum ``Kx (x) My + Mx (x) Ky`` of the 1-D stiffness and
    mass matrices, with ``x`` as the outer index: node ``(ix, iy)`` has id
    ``ix * n_side + iy``.  Returns a symmetric positive definite CSR matrix
    of size ``(2^m - 1)^2``; interior rows of the aspect-1 operator carry
    the stencil ``(1/3) [[-1,-1,-1], [-1, 8,-1], [-1,-1,-1]]``.
    """
    Kx, Mx = _stiffness_and_mass_1d(grid.n_side, grid.hx)
    Ky, My = _stiffness_and_mass_1d(grid.n_side, grid.hy)
    # the sum of two canonical CSR matrices is canonical
    return sp.kron(Kx, My, format="csr") + sp.kron(Mx, Ky, format="csr")


def _prolongation_1d(n_coarse: int) -> sp.csr_array:
    """1-D linear interpolation from ``n_coarse`` to ``2 n_coarse + 1`` interior nodes."""
    n_fine = 2 * n_coarse + 1
    c = np.arange(1, n_coarse + 1)
    # coarse node c sits at fine node 2c (1-based); weights 1/2 on its odd neighbors
    rows = np.concatenate([2 * c - 2, 2 * c - 1, 2 * c])
    cols = np.concatenate([c - 1, c - 1, c - 1])
    vals = np.concatenate([np.full(n_coarse, 0.5), np.ones(n_coarse), np.full(n_coarse, 0.5)])
    mat = sp.coo_array((vals, (rows, cols)), shape=(n_fine, n_coarse))
    return sp.csr_array(mat)


def build_prolongation(fine: GridSpec, coarse: GridSpec) -> sp.csr_array:
    """Bilinear prolongation between nested grids (factor-2 coarsening).

    Coarse node ``(I, J)`` coincides with fine node ``(2I, 2J)``; the
    interpolation weights are 1 at coincident nodes, 1/2 along edges and
    1/4 at cell centers.  Interior rows not adjacent to the boundary sum
    to one.
    """
    if coarse.m != fine.m - 1:
        raise ValueError("coarse grid must be one refinement level below the fine grid")
    if coarse.aspect != fine.aspect:
        raise ValueError("grids must share the aspect ratio")
    p1 = _prolongation_1d(coarse.n_side)
    return as_csr(sp.kron(p1, p1, format="csr"))


def jacobi_smoother(A, tol: float = 1e-10, max_iter: int = 5000,
                    seed: int = 0) -> DiagonalSmoother:
    """Point-Jacobi preconditioner ``B = diag(A)^{-1}`` with measured ``rho(BA)``.

    ``BA`` is similar to the symmetric ``D^{-1/2} A D^{-1/2}``, whose top
    eigenvalue :func:`~polymg.linalg.lanczos_max` estimates from above with
    one SpMV per step, so the spectrum of ``BA / rho(BA)`` lies in (0, 1].
    ``tol`` bounds the relative Ritz residual.  A non-converged estimate is
    used but reported via a warning.
    """
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix diagonal must be positive")
    inv_diag = 1.0 / diag
    s = np.sqrt(inv_diag)
    result = lanczos_max(lambda v: s * (A @ (s * v)), A.shape[0],
                         tol=tol, max_iter=max_iter, seed=seed)
    if not result.converged:
        warnings.warn(
            f"rho(BA) Lanczos estimate not converged after {max_iter} steps "
            f"(estimate {result.value:.12g}, residual {result.residual:.3g})",
            stacklevel=2,
        )
    return DiagonalSmoother(inverse_diagonal=inv_diag, rho_BA=result.value)

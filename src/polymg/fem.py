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

import numpy as np
import scipy.sparse as sp

from .smoothers import DiagonalSmoother

__all__ = [
    "GridSpec",
    "assemble_poisson_q1",
    "build_prolongation",
    "jacobi_smoother",
    "sine_symbol",
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


def assemble_poisson_q1(grid: GridSpec) -> sp.dia_array:
    """Assemble the Dirichlet Q1 stiffness matrix on the interior nodes.

    Q1 shape functions are products of 1-D hat functions, so the operator
    is the Kronecker sum ``Kx (x) My + Mx (x) Ky`` of the 1-D stencils
    ``K = (-1, 2, -1)/h`` and ``M = (1, 4, 1) h/6``, with ``x`` as the outer
    index: node ``(ix, iy)`` has id ``ix * n_side + iy``, and neighbour
    ``(dx, dy)`` sits on band offset ``dx * n_side + dy`` with entry
    ``Kx[dx] My[dy] + Mx[dx] Ky[dy]``.  Returns this SPD 9-point band of
    size ``(2^m - 1)^2`` as a ``dia_array`` with ascending int32 offsets and
    zeros where a neighbour leaves the grid.  Interior rows of the aspect-1
    operator carry the stencil ``(1/3) [[-1,-1,-1], [-1, 8,-1], [-1,-1,-1]]``.
    """
    n = grid.n_side
    d = np.array([-1, 0, 1])
    (Kx, Mx), (Ky, My) = [(np.array([-1.0, 2.0, -1.0]) / h, np.array([1.0, 4.0, 1.0]) * h / 6)
                          for h in (grid.hx, grid.hy)]
    entry = np.outer(Kx, My) + np.outer(Mx, Ky)  # [dx + 1, dy + 1]
    # band (dx, dy) holds A[j - dx n - dy, j] at column j: zero where that row leaves the grid
    jx, jy = np.divmod(np.arange(n * n), n)
    inside = [(i >= d[:, None]) & (i < n + d[:, None]) for i in (jx, jy)]
    data = np.where(inside[0][:, None] & inside[1][None, :], entry[:, :, None], 0.0)
    offsets = (d[:, None] * n + d[None, :]).astype(np.int32).ravel()  # ascending dx n + dy
    return sp.dia_array((data.reshape(9, n * n), offsets), shape=(n * n, n * n))


def build_prolongation(fine: GridSpec, coarse: GridSpec) -> sp.csr_array:
    """Bilinear prolongation between nested grids (factor-2 coarsening).

    Coarse node ``(I, J)`` coincides with fine node ``(2I + 1, 2J + 1)``
    (0-based); the interpolation weights are 1 at coincident nodes, 1/2
    along edges and 1/4 at cell centers.  Interior rows not adjacent to the
    boundary sum to one.  Every column holds the same 3 x 3 stencil on fine
    nodes ``2I..2I+2`` by ``2J..2J+2``, the outer product of the 1-D weights
    ``(1/2, 1, 1/2)``, so the CSR arrays of ``P^T`` are written directly and
    transposed once into a canonical CSR with int32 indices.  The weight
    products are exact: this is ``kron(p, p)`` of the 1-D interpolation
    ``p`` bit for bit, without the Kronecker product's intermediates.
    """
    if coarse.m != fine.m - 1:
        raise ValueError("coarse grid must be one refinement level below the fine grid")
    if coarse.aspect != fine.aspect:
        raise ValueError("grids must share the aspect ratio")
    nc, nf = coarse.n_side, fine.n_side
    w = np.array([0.5, 1.0, 0.5])
    d = np.arange(3, dtype=np.int32)
    c = 2 * np.arange(nc, dtype=np.int32)  # first fine node of each coarse stencil
    first = (c[:, None] * nf + c[None, :]).reshape(-1, 1)
    indices = first + (d[:, None] * nf + d[None, :]).reshape(1, 9)
    Pt = sp.csr_array((np.tile(np.outer(w, w).ravel(), nc * nc), indices.ravel(),
                       np.arange(0, 9 * nc * nc + 1, 9, dtype=np.int32)), shape=(nc * nc, nf * nf))
    return Pt.T.tocsr()


def sine_symbol(grid: GridSpec, modes) -> np.ndarray:
    """Eigenvalues of :func:`assemble_poisson_q1` at the sine modes ``(i, j)``.

    Both 1-D factors are tridiagonal Toeplitz and share the sine
    eigenvectors, with eigenvalues ``K_i = (2 - 2 c_i)/h`` and
    ``M_i = h (4 + 2 c_i)/6`` for ``c_i = cos(i pi / (n + 1))``.  So mode
    ``(i, j)`` has eigenvalue ``Kx_i My_j + Mx_i Ky_j``; entry ``[a, b]``
    of the result is mode ``(modes[a], modes[b])``, with ``1 <= i <= n_side``.
    """
    c = np.cos(np.asarray(modes) * np.pi / (grid.n_side + 1))
    kx, mx = (2.0 - 2.0 * c) / grid.hx, grid.hx * (4.0 + 2.0 * c) / 6.0
    ky, my = (2.0 - 2.0 * c) / grid.hy, grid.hy * (4.0 + 2.0 * c) / 6.0
    return kx[:, None] * my[None, :] + mx[:, None] * ky[None, :]


def jacobi_smoother(A, grid: GridSpec) -> DiagonalSmoother:
    """Point-Jacobi preconditioner ``B = diag(A)^{-1}`` with exact ``rho(BA)``.

    ``A`` must be the Q1 operator of ``grid`` (:func:`assemble_poisson_q1`,
    or any matrix with its entries).  Its diagonal is then the constant
    ``d = (8/6)(hy/hx + hx/hy)``, so ``rho(BA) = lambda_max(A) / d`` comes
    from the sine-mode symbol (:func:`sine_symbol`) with no eigensolve.
    The symbol is bilinear in ``(c_x, c_y)``, so its maximum lies on one of
    the four corner modes ``i, j in {1, n_side}``.  The spectrum of
    ``BA / rho(BA)`` lies in (0, 1] up to rounding.  Raises ``ValueError``
    if the diagonal is not positive or differs from ``d`` by more than
    1e-12 relative, i.e. if ``grid`` does not describe ``A``.
    """
    n = grid.n_interior
    if A.shape != (n, n):
        raise ValueError(f"operator shape {A.shape} does not match the grid's {n} unknowns")
    diag = A.diagonal()
    if not np.all(diag > 0.0):
        raise ValueError("matrix diagonal must be positive")
    d = (8.0 / 6.0) * (grid.hy / grid.hx + grid.hx / grid.hy)
    if not np.all(np.abs(diag - d) <= 1e-12 * d):
        raise ValueError("matrix diagonal does not match the Q1 operator of the grid")
    inv = 1.0 / diag
    if np.all(inv == inv[0]):  # as on every assembled band: one value, stored once
        inv = np.broadcast_to(inv[0], inv.shape)
    lam_max = float(sine_symbol(grid, [1, grid.n_side]).max())
    return DiagonalSmoother(inverse_diagonal=inv, rho_BA=lam_max / d)

"""Bilinear (Q1) finite elements for the anisotropic Poisson model problem.

The domain is a rectangle meshed by ``2^m x 2^m`` axis-aligned elements of
size ``hx x hy`` with ``hx/hy = aspect``; homogeneous Dirichlet conditions
leave ``(2^m - 1)^2`` interior unknowns.  Stretching the elements makes
point-Jacobi smoothing progressively weaker: the smoothing constant grows
like ``2 * aspect^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
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
    return sp.dia_array((data.reshape(9, n * n), _band_offsets(n)), shape=(n * n, n * n))


def _band_offsets(n_side: int) -> np.ndarray:
    """Ascending int32 DIA offsets ``dx * n_side + dy`` of the 9-point band."""
    d = np.array([-1, 0, 1])
    return (d[:, None] * n_side + d[None, :]).astype(np.int32).ravel()


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


def _galerkin_band(op: sp.dia_array, grid: GridSpec) -> sp.dia_array:
    """``P^T op P`` for the bilinear ``P`` of ``grid``, as the coarse grid's 9-point band.

    ``op`` is a 9-point band of ``grid`` laid out as by
    :func:`assemble_poisson_q1`.  Row ``I`` of ``P^T`` carries the weight
    ``w_dx w_dy``, ``w = (1/2, 1, 1/2)``, on fine node ``2I + d`` for
    ``d in [0, 2]^2`` (see :func:`build_prolongation`), so the product is
    two passes of stencil sums over strided views of the band:
    ``X[I, 2I + e] = sum_d op[2I + d, 2I + e] w_d`` for the 25 fine offsets
    ``e in [-1, 3]^2``, then ``A_c[I, I + s] = sum_d' X[I, 2I + 2s + d'] w_d'``
    for ``s in [-1, 1]^2``, each term taken for all ``I`` at once.  Each
    sum starts from +0 and adds its terms by ascending fine node, as
    scipy's sparse product ``P^T op P`` does for every entry, so the band
    has that product's bits, and an entry it would drop is +0.  Raises
    ``ValueError`` unless ``op`` is a DIA band with the grid's shape and 9
    offsets.
    """
    n, nc = grid.n_side, grid.coarsen().n_side
    if not (sp.issparse(op) and op.format == "dia" and op.shape == (n * n, n * n)
            and op.data.shape == (9, n * n) and np.array_equal(op.offsets, _band_offsets(n))):
        raise ValueError(f"operator is not a 9-point band of the grid's {n * n} unknowns")
    w = np.array([0.5, 1.0, 0.5])
    stencil = list(itertools.product(range(3), repeat=2))  # d ascending, as fine nodes 2I + d
    band = np.ascontiguousarray(op.data).reshape(3, 3, n, n)  # [ox + 1, oy + 1, f] = A[f - o, f]
    s0, s1, s2, s3 = band.strides
    # by d, per direction: the blocks (o + 1, I) whose fine node 2I + d + o is on the grid
    on_grid = ([(slice(0, 1), slice(1, nc)), (slice(1, 3), slice(0, nc))],
               [(slice(0, 3), slice(0, nc))],
               [(slice(0, 2), slice(0, nc)), (slice(2, 3), slice(0, nc - 1))])
    X = np.zeros((5, 5, nc, nc))  # [ex + 1, ey + 1, I] = X[I, 2I + e]
    for dx, dy in stencil:
        for (ox, Ix), (oy, Iy) in itertools.product(on_grid[dx], on_grid[dy]):
            # [ox + 1, oy + 1, I] = A[2I + d, 2I + d + o], the term of X at e = d + o;
            # ndarray raises if the view leaves the band
            terms = np.ndarray(
                (ox.stop - ox.start, oy.stop - oy.start, Ix.stop - Ix.start, Iy.stop - Iy.start),
                buffer=band, strides=(s0 + s2, s1 + s3, 2 * s2, 2 * s3),
                offset=ox.start * s0 + oy.start * s1 + (2 * Ix.start + dx + ox.start - 1) * s2
                + (2 * Iy.start + dy + oy.start - 1) * s3)
            e = (slice(dx + ox.start, dx + ox.stop), slice(dy + oy.start, dy + oy.stop))
            X[e + (Ix, Iy)] += terms * (w[dx] * w[dy])
    # C[s + 1, I] = A_c[I, I + s].  By d', per direction: the s + 1 whose 2s + d'
    # lies in [-1, 3] (the other terms are zero) and their X index 2s + d' + 1
    s_block = (slice(1, 3), slice(0, 3), slice(0, 2))
    e_block = (slice(1, 4, 2), slice(0, 5, 2), slice(1, 4, 2))
    C = np.zeros((3, 3, nc, nc))
    for dx, dy in stencil:
        C[s_block[dx], s_block[dy]] += X[e_block[dx], e_block[dy]] * (w[dx] * w[dy])
    # DIA column K = I + s holds A_c[I, K]; where row I is off the grid it stays 0
    rows_cols = {-1: (slice(1, nc), slice(0, nc - 1)), 0: (slice(0, nc), slice(0, nc)),
                 1: (slice(0, nc - 1), slice(1, nc))}
    out = np.zeros((3, 3, nc, nc))
    for sx, sy in stencil:
        (Ix, Kx), (Iy, Ky) = rows_cols[sx - 1], rows_cols[sy - 1]
        out[sx, sy, Kx, Ky] = C[sx, sy, Ix, Iy]
    return sp.dia_array((out.reshape(9, nc * nc), _band_offsets(nc)), shape=(nc * nc, nc * nc))


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

    ``A`` must be the Q1 operator of ``grid``, assembled or a Galerkin
    product of it (the two are equal).  Its diagonal is then the constant
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
    lam_max = float(sine_symbol(grid, [1, grid.n_side]).max())
    return DiagonalSmoother(inverse_diagonal=1.0 / diag, rho_BA=lam_max / d)

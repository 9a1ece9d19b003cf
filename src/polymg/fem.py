"""Bilinear (Q1) finite elements for the anisotropic Poisson model problem.

The domain is a rectangle meshed by ``2^m x 2^m`` axis-aligned elements of
size ``hx x hy`` with ``hx/hy = aspect``; homogeneous Dirichlet conditions
leave ``(2^m - 1)^2`` interior unknowns.  Stretching the elements makes
point-Jacobi smoothing progressively weaker: the smoothing constant grows
like ``2 * aspect^2``.

The operator is one constant 9-point stencil cut off at the Dirichlet edge.
:func:`assemble_poisson_q1` writes it out as a 9-point DIA band, for
``Level.A`` and as a test oracle; the multigrid levels apply it from its
four distinct entries with :class:`Q1Operator` and store no band.  The grid
alone also fixes a level's other constants: :func:`jacobi_smoother` reads
the diagonal off the stencil centre and ``rho(BA)`` off the sine-mode symbol,
:func:`build_prolongation` writes the restriction (its transpose view
prolongs), and :class:`SineSolver` solves with the operator in its sine modes.

The sine modes diagonalise every level and the Jacobi smoother, and the
bilinear prolongation couples four fine modes per coarse mode, so the
two-level constants ``C`` and ``C_N`` of the V-cycle bound
``||E||_A^2 <= 1 - 1/C_N`` are exact eigenvalues of 4 x 4 blocks (rigorous
Fourier analysis: Trottenberg, Oosterlee & Schueller, *Multigrid*, 2001,
ch. 4), which :func:`two_level_C` computes from the grid alone.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

import numpy as np
import scipy.sparse as sp

from .poly import PolynomialSpec
from .smoothers import DiagonalSmoother

__all__ = ["GridSpec", "assemble_poisson_q1", "two_level_C"]

_MAX_ASPECT = 1e307  # two_level_C's blocks overflow above it, then the build


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
        if not 1.0 <= self.aspect <= _MAX_ASPECT:  # comparisons reject nan
            raise ValueError("aspect ratio must be finite and >= 1, at most 1e307")

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


def _stencil(grid: GridSpec) -> np.ndarray:
    """The 3 x 3 Q1 stencil, entry ``[dx + 1, dy + 1]`` for neighbour ``(dx, dy)``."""
    (Kx, Mx), (Ky, My) = [(np.array([-1.0, 2.0, -1.0]) / h, np.array([1.0, 4.0, 1.0]) * h / 6)
                          for h in (grid.hx, grid.hy)]
    return np.outer(Kx, My) + np.outer(Mx, Ky)


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
    The multigrid levels apply the same entries without a band
    (:class:`Q1Operator`); this explicit matrix is for ``Level.A`` and as a test
    oracle.
    """
    n = grid.n_side
    d = np.array([-1, 0, 1])
    entry = _stencil(grid)
    # band (dx, dy) holds A[j - dx n - dy, j] at column j: zero where that row leaves the grid
    jx, jy = np.divmod(np.arange(n * n), n)
    inside = [(i >= d[:, None]) & (i < n + d[:, None]) for i in (jx, jy)]
    data = np.where(inside[0][:, None] & inside[1][None, :], entry[:, :, None], 0.0)
    offsets = (d[:, None] * n + d[None, :]).astype(np.int32).ravel()  # ascending dx n + dy
    return sp.dia_array((data.reshape(9, n * n), offsets), shape=(n * n, n * n))


class Q1Operator:
    """The Q1 operator of a grid, applied from its four distinct stencil entries.

    The band of :func:`assemble_poisson_q1` is one constant 9-point stencil
    cut off at the Dirichlet edge, so four numbers fix it: the centre ``a``,
    the y-neighbour ``b``, the x-neighbour ``g`` and the corner ``d``, equal
    to the band's stored entries bit for bit.  ``A @ x`` returns a new array

        Y = a X + b U + S_x(g X + d U),

    with ``X = x.reshape(n, n)`` (node ``ix * n + iy``), ``U`` the sum of
    each node's y-neighbours and ``S_x`` the sum of its x-neighbours, both
    zero past the edge.  Its rounding differs from the band's product, within
    a few ulps of ``|A| |x|``.  ``scratch``, two ``n x n`` arrays' worth of
    floats or more, holds ``U`` and ``g X + d U``; the levels of a hierarchy
    share one, since their products never nest.  Without it the operator
    allocates its own.  A product allocates only its result.
    """

    def __init__(self, grid: GridSpec, scratch: np.ndarray | None = None):
        entry = _stencil(grid)
        n = grid.n_side
        N = n * n
        self.shape = (N, N)
        # centre, y-neighbour, x-neighbour and corner
        self.a, self.b, self.g, self.d = map(float, entry[[1, 1, 0, 0], [1, 0, 1, 0]])
        if scratch is None:
            scratch = np.empty(2 * N)
        self._n = n
        self._U, self._V = U, V = scratch[:N], scratch[N:2 * N]
        # views for the product; at the first and last node of each x-row the
        # y-neighbour sum has one term
        self._U_inner, self._U_first, self._U_last = U[1:-1], U[::n], U[n - 1::n]
        self._V_below, self._V_above = V[:-n], V[n:]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape[1:]:
            raise ValueError(f"operand of shape {x.shape} does not match the operator {self.shape}")
        n, U, V = self._n, self._U, self._V
        y = np.multiply(x, self.g)
        np.add(x[:-2], x[2:], out=self._U_inner)  # wrong at both ends of each x-row, set next
        np.copyto(self._U_first, x[1::n])
        np.copyto(self._U_last, x[n - 2::n])
        np.multiply(U, self.d, out=V)
        V += y  # V = g X + d U
        np.multiply(x, self.a, out=y)
        U *= self.b
        y += U
        y[n:] += self._V_below
        y[:-n] += self._V_above
        return y


def build_prolongation(fine: GridSpec) -> tuple[sp.csc_array, sp.csr_array]:
    """Bilinear prolongation ``P`` from ``fine.coarsen()`` to ``fine``, and ``R = P^T``.

    Coarse node ``(I, J)`` coincides with fine node ``(2I + 1, 2J + 1)``
    (0-based); the interpolation weights are 1 at coincident nodes, 1/2
    along edges and 1/4 at cell centers.  Interior rows not adjacent to the
    boundary sum to one.  Every column holds the same 3 x 3 stencil on fine
    nodes ``2I..2I+2`` by ``2J..2J+2``, the outer product of the 1-D weights
    ``(1/2, 1, 1/2)``, so the CSR arrays of ``R`` are written directly, in
    canonical form with int32 indices; ``P`` is ``R.T``, the CSC view on
    them, whose product sums each row in column order as a CSR ``P`` would.
    The weight products are exact: ``P`` is ``kron(p, p)`` of the 1-D
    interpolation ``p`` bit for bit, without the Kronecker product's intermediates.
    """
    nc, nf = fine.coarsen().n_side, fine.n_side
    w = np.array([0.5, 1.0, 0.5])
    d = np.arange(3, dtype=np.int32)
    c = 2 * np.arange(nc, dtype=np.int32)  # first fine node of each coarse stencil
    first = (c[:, None] * nf + c[None, :]).reshape(-1, 1)
    indices = first + (d[:, None] * nf + d[None, :]).reshape(1, 9)
    R = sp.csr_array((np.tile(np.outer(w, w).ravel(), nc * nc), indices.ravel(),
                      np.arange(0, 9 * nc * nc + 1, 9, dtype=np.int32)), shape=(nc * nc, nf * nf))
    return R.T, R


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


class SineSolver:
    """Exact solve with a grid's Q1 operator in its orthonormal sine modes.

    ``S_ij = sqrt(2/(n+1)) sin(i j pi/(n+1))``, ``n = n_side``, is symmetric
    and its own inverse, and diagonalises both 1-D factors of the operator,
    so ``A = (S (x) S) diag(lam) (S (x) S)`` with ``lam`` the
    :func:`sine_symbol` of modes ``1..n``.  ``solve(b)`` returns
    ``X = S ((S B S) / lam) S`` for ``B = b.reshape(n, n)`` (node
    ``ix * n + iy``) as a new flat array: four ``n x n`` products, with
    nothing assembled or factored.
    """

    def __init__(self, grid: GridSpec):
        n = grid.n_side
        i = np.arange(1, n + 1)
        self._S = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(i, i) * (np.pi / (n + 1)))
        self._lam = sine_symbol(grid, i)

    def solve(self, b: np.ndarray) -> np.ndarray:
        S = self._S
        return (S @ ((S @ np.reshape(b, self._lam.shape) @ S) / self._lam) @ S).ravel()


def jacobi_smoother(grid: GridSpec) -> DiagonalSmoother:
    """Point-Jacobi ``B = diag(A)^{-1}`` for the grid's Q1 operator ``A``, with exact ``rho(BA)``.

    The diagonal is the stencil centre ``a``, one constant (bit for bit the
    band's entry and :attr:`Q1Operator.a`), so ``1/a`` is stored once as a
    read-only vector and ``rho(BA) = lambda_max(A) / a`` comes from the
    sine-mode symbol (:func:`sine_symbol`) with no eigensolve.  The symbol
    is bilinear in ``(c_x, c_y)``, so its maximum lies on one of the four
    corner modes ``i, j in {1, n_side}``.  The spectrum of ``BA / rho(BA)``
    lies in (0, 1] up to rounding.
    """
    a = float(_stencil(grid)[1, 1])
    lam_max = float(sine_symbol(grid, [1, grid.n_side]).max())
    return DiagonalSmoother(inverse_diagonal=np.broadcast_to(1.0 / a, (grid.n_interior,)),
                            rho_BA=lam_max / a)


_SLAB = 32  # coarse x-modes per slab of 4 x 4 blocks: at m = 10, 32 * 511 blocks (2.1 MB)


def two_level_C(grid: GridSpec, p: PolynomialSpec | None = None) -> float:
    """Exact two-level ``C`` of ``grid`` and its coarsening, or ``C_N`` for the polynomial ``p``.

    Both are ``sup_{u in range(pi_f)} ||u||^2_M / ||u||^2_A`` for ``M`` of
    weight ``nu`` at a sine mode where ``A`` has ``lam`` (:func:`sine_symbol`):
    ``M = B_hat^{-1}``, ``B_hat`` the grid's :func:`jacobi_smoother` scaled so
    ``rho(B_hat A) = 1``, or ``M = N^{-1} = A (I - p(B_hat A)^2)^{-1}``,
    ``nu = lam / (1 - p(x)^2)`` at the mode's eigenvalue ``x`` of ``B_hat A``;
    ``|p| < 1`` on (0, 1] is checked on that exact spectrum and at 1, so
    rounding in ``rho(BA)`` cannot decide it (else ``ValueError``).  ``C >= 1``
    rises towards ``2 aspect^2`` with ``m``, and the cycle bound
    ``||E||_A^2 <= 1 - 1/C_N`` is sharp over errors in the fine space.  The sup
    is ``lambda_max(F^T Q F)``, ``F F^T = M``, ``Q = A^{-1} - P A_c^{-1} P^T``
    (Falgout, Vassilevski & Zikatanov, NLAA 12, 2005).  ``P`` maps coarse sine
    mode ``I`` to fine modes ``I`` and ``n_f + 1 - I`` with weights
    ``sqrt(2) cos^2(theta_I/2)`` and ``-sqrt(2) sin^2(theta_I/2)`` per
    direction, ``theta_I = I pi/(n_f + 1)``, so ``F^T Q F`` is a 4 x 4 block
    ``diag(nu/lam) - v v^T / lam_c`` per coarse mode, solved in slabs of
    ``_SLAB`` coarse x-modes, plus ``nu/lam`` at the fine modes with the
    middle index ``n_c + 1``, which have no coarse part.
    """
    if grid.m < 3:
        raise ValueError(f"m = {grid.m} has no coarse level: two-level constants need m >= 3")
    B = jacobi_smoother(grid)
    n, nc = grid.n_side, grid.coarsen().n_side
    lam = sine_symbol(grid, np.arange(1, n + 1))
    if p is None:
        nu = np.broadcast_to(B.rho_BA / B.inverse_diagonal[0], lam.shape)  # B_hat^{-1}
    else:
        # one fine x-row at a time: the product form holds k values per mode it evaluates
        scale = B.inverse_diagonal[0] / B.rho_BA
        pv = np.array([p.evaluate(row * scale) for row in lam])
        if np.max(np.abs(pv)) >= 1.0 or abs(p.evaluate(1.0)) >= 1.0:
            raise ValueError("polynomial is not a contraction on (0, 1]; N is singular")
        nu = lam / (1.0 - pv * pv)
    I = np.arange(1, nc + 1)
    half = I * np.pi / (2 * (n + 1))
    w = np.sqrt(2.0) * np.array([np.cos(half) ** 2, -np.sin(half) ** 2])
    fine = np.array([I - 1, n - I])  # 0-based fine modes I and n + 1 - I
    lam_c = sine_symbol(grid.coarsen(), I)
    sup = max((nu[nc] / lam[nc]).max(), (nu[:, nc] / lam[:, nc]).max())
    for s in range(0, nc, _SLAB):
        slab = slice(s, s + _SLAB)
        ix, iy = fine[:, None, slab, None], fine[None, :, None, :]  # [sx, sy, Ix, Iy]
        nu_s = nu[ix, iy]
        v = (np.sqrt(nu_s) * w[:, None, slab, None] * w[None, :, None, :]).reshape(4, -1).T
        blocks = v[:, :, None] * v[:, None, :] / -lam_c[slab].reshape(-1, 1, 1)
        blocks[:, range(4), range(4)] += (nu_s / lam[ix, iy]).reshape(4, -1).T
        sup = max(sup, np.linalg.eigvalsh(blocks)[:, -1].max())
    return float(sup)


def _two_level_grid(A, B: DiagonalSmoother, P, A_c) -> GridSpec:
    """The grid of which ``(A, B, P, A_c)`` is the two-level pair, else ``ValueError``.

    ``m`` comes from ``A``'s size and the aspect from ``A[0, n_side] +
    2 A[0, 1] = -aspect``.  ``A_c`` must have the coarsened grid's shape,
    ``A`` and ``A_c`` a diagonal within 1e-12 relative of their grids'
    stencil centres, ``B`` a constant diagonal within 1e-12 relative of the
    grid's :func:`jacobi_smoother` in ``inverse_diagonal`` and ``rho_BA``,
    and ``P`` the grid's bilinear prolongation.
    """
    n = A.shape[0]
    n_side = math.isqrt(n)
    m = n_side.bit_length()
    if A.shape != (n, n) or n_side * n_side != n or n_side != 2 ** m - 1 or m < 3:
        raise ValueError(f"operator of shape {A.shape} is not a Q1 grid with m >= 3")
    # rounding can put aspect 1 just below 1; the diagonal check rejects anything further off
    g = GridSpec(m=m, aspect=max(1.0, -(A.diagonal(n_side)[0] + 2.0 * A.diagonal(1)[0])))
    cg = g.coarsen()
    if A_c.shape != (cg.n_interior, cg.n_interior):
        raise ValueError(f"coarse operator shape {A_c.shape} does not match the coarse grid's "
                         f"{cg.n_interior} unknowns")
    for op, grid in ((A, g), (A_c, cg)):
        a = _stencil(grid)[1, 1]
        if not np.all(np.abs(op.diagonal() - a) <= 1e-12 * a):  # also rejects nan
            raise ValueError("operator diagonal does not match the Q1 operator of the grid")
    inv = B.inverse_diagonal
    if inv.shape != (n,) or np.any(inv != inv[0]):
        raise ValueError("smoother must be a constant diagonal of the operator's size")
    # ref comes from the rounded aspect above, so it may differ in its last bits
    ref = jacobi_smoother(g)
    if not all(abs(got - want) <= 1e-12 * want for got, want in
               ((inv[0], ref.inverse_diagonal[0]), (B.rho_BA, ref.rho_BA))):
        raise ValueError("smoother is not the Jacobi smoother of the operator")
    P_ref, _ = build_prolongation(g)
    if P.shape != P_ref.shape or (sp.csr_array(P) != P_ref).nnz:
        raise ValueError("P is not the bilinear prolongation of the grid")
    return g


def measure_C(A, B: DiagonalSmoother, P, A_c) -> float:
    """:func:`two_level_C` of the grid whose assembled two-level pair the operands are.

    The operands are a grid's Q1 operator (a DIA band, or CSR as ``Level.A``
    gives), its Jacobi smoother, bilinear prolongation and coarse operator,
    checked by ``_two_level_grid`` (else ``ValueError``).  The aspect read
    back from ``A`` may be an ulp low, which moves ``C`` within 1e-14.
    """
    return two_level_C(_two_level_grid(A, B, P, A_c))


def measure_CN(A, B: DiagonalSmoother, P, A_c, p: PolynomialSpec) -> float:
    """:func:`two_level_C` for ``p`` (``C_N``) of the grid of the operands, as :func:`measure_C`."""
    return two_level_C(_two_level_grid(A, B, P, A_c), p)

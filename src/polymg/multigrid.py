"""Geometric multigrid V-cycle with polynomial smoothing.

The hierarchy coarsens by factor 2 with bilinear prolongation and
rediscretises the Q1 operator on every level, which for this model problem
is the Galerkin operator ``A_c = P^T A P``.  Each level keeps one operator,
its 9-point stencil applied from four numbers (no stored band), down to a
coarsest level solved exactly in its sine modes (:class:`~polymg.fem.SineSolver`).
The V-cycle smooths once before and once after the coarse correction
with the same SPD-preconditioned polynomial smoother, so its error
propagator is A-self-adjoint and positive semidefinite, and its A-norm
contraction factor equals ``||E||_A^2`` for the half-cycle operator ``E``
the spectral bounds address.

Smoothing quality enters the bounds through two measurable constants:

* ``C``: the largest ratio ``||u||^2_{B^{-1}} / ||u||^2_A`` over the
  A-orthogonal complement of the coarse space (B scaled so rho(BA) = 1);
* ``C_N``: the same ratio with ``N^{-1} = A (I - p(BA)^2)^{-1}``, which
  converts directly into the cycle bound ``||E||_A^2 <= 1 - 1/C_N``.

The sine modes diagonalise every level and the Jacobi smoother, and the
bilinear prolongation couples four fine modes per coarse mode, so both are
exact eigenvalues of 4 x 4 blocks (rigorous Fourier analysis: Trottenberg,
Oosterlee & Schueller, *Multigrid*, 2001, ch. 4), which ``_two_grid_sup``
computes for :func:`measure_C`, :func:`measure_CN` and the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .fem import (GridSpec, Q1Operator, SineSolver, _stencil, assemble_poisson_q1,
                  build_prolongation, jacobi_smoother, sine_symbol)
from .linalg import as_csr, lanczos_max
from .poly import PolynomialSpec
from .smoothers import DiagonalSmoother, SmootherConfig, apply_smoother

__all__ = [
    "Hierarchy",
    "ContractionResult",
    "build_hierarchy",
    "v_cycle",
    "measure_contraction",
    "measure_C",
    "measure_CN",
]


@dataclass(frozen=True)
class Level:
    """One grid level; the coarsest level has no smoother or transfers.

    ``op`` is the level operator, its grid's :class:`~polymg.fem.Q1Operator`,
    which the smoother, the residual and the A-norms apply.  ``R`` restricts
    to the next coarser level and its CSC transpose view ``P`` prolongs from it.
    """

    grid: GridSpec
    op: Q1Operator
    smoother: DiagonalSmoother | None
    P: sp.csc_array | None
    R: sp.csr_array | None

    @property
    def A(self) -> sp.csr_array:
        """The grid's assembled operator as a canonical CSR array, built on each access."""
        return as_csr(assemble_poisson_q1(self.grid))


@dataclass(frozen=True)
class Hierarchy:
    """Nested levels, finest first, plus the coarsest level's exact solver.

    It also owns the V-cycle's work arrays, so a cycle allocates only its
    matrix products: per smoothed level a zero start's iterate ``x`` and the
    smoother's ``r``, ``z`` and ``t`` (``r`` also takes the cycle's
    residual), as blocks ``[r | z | t | x]`` at the start of one array of
    four fine vectors.  A coarser level's blocks thus lie in ``r``, which
    is not read while the cycle runs below.  The levels' stencils share two
    more fine vectors of scratch.  A hierarchy runs one cycle at a time:
    overlapping cycles on it overwrite each other's arrays.
    """

    levels: tuple[Level, ...]
    coarse_solver: SineSolver
    _work: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        buf = np.empty(4 * self.levels[0].op.shape[0])
        object.__setattr__(self, "_work", tuple(
            tuple(buf[i * n:(i + 1) * n] for i in (3, 0, 1, 2))  # (x, r, z, t)
            for n in (lvl.op.shape[0] for lvl in self.levels[:-1])))

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> Level:
        return self.levels[0]


def VCycleConfig(smoother: SmootherConfig) -> SmootherConfig:
    """Return ``smoother``, kept only for ``bench/workloads.py``'s call form (ROADMAP item 1)."""
    return smoother


def build_hierarchy(grid: GridSpec, min_interior: int = 3) -> Hierarchy:
    """Set up the model problem on ``grid`` and coarsen until ``n_side <= min_interior``.

    Every level's operator is the Q1 operator of its own grid, a
    :class:`~polymg.fem.Q1Operator`; all levels share one scratch array
    sized for the finest grid.  For this model problem that rediscretised
    operator is the Galerkin product ``P^T A P`` of the finer level and the
    bilinear prolongation, which the V-cycle bounds assume; the tests check
    the identity against scipy's sparse product.  Each level's Jacobi
    smoother (:func:`~polymg.fem.jacobi_smoother`) and restriction ``R``, with
    ``P`` its transpose view (:func:`~polymg.fem.build_prolongation`), come
    from its grid alone, and so does the coarsest grid's exact solve in its
    sine modes (:class:`~polymg.fem.SineSolver`): no grid is assembled and no
    eigensolve, factorisation or transpose copy runs here.
    """
    if min_interior < 3:
        raise ValueError("coarsest grid cannot have fewer than 3 interior nodes per side")
    levels: list[Level] = []
    scratch = np.empty(2 * grid.n_interior)
    g = grid
    while g.n_side > min_interior and g.m > 2:
        op = Q1Operator(g, scratch)
        P, R = build_prolongation(g)
        levels.append(Level(grid=g, op=op, smoother=jacobi_smoother(g), P=P, R=R))
        g = g.coarsen()
    levels.append(Level(grid=g, op=Q1Operator(g, scratch), smoother=None, P=None, R=None))
    return Hierarchy(levels=tuple(levels), coarse_solver=SineSolver(g))


def _v_cycle_level(h: Hierarchy, smoother: SmootherConfig, x: np.ndarray | None,
                   b: np.ndarray, level: int) -> np.ndarray:
    """Cycle from ``level`` down and return the new iterate.

    ``x`` is updated in place; ``None`` starts from zero, as every coarse
    level does, and lets the pre-smoothing skip ``b - A 0``.  The iterate
    of a zero start is the level's work array, which the next cycle
    overwrites; a coarse correction is used at once.
    """
    lvl = h.levels[level]
    if lvl.P is None:
        return h.coarse_solver.solve(b)
    work = h._work[level]
    x = apply_smoother(lvl.op, lvl.smoother, x, b, smoother, work)
    r = np.subtract(b, lvl.op @ x, out=work[1])  # the smoother's r is free here
    ec = _v_cycle_level(h, smoother, None, lvl.R @ r, level + 1)
    x += lvl.P @ ec
    return apply_smoother(lvl.op, lvl.smoother, x, b, smoother, work)


def v_cycle(h: Hierarchy, smoother: SmootherConfig, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One V-cycle for ``A x = b`` starting from ``x`` on the finest level.

    Returns the new iterate, a new array; ``x`` itself is left unchanged.
    """
    n = h.finest.op.shape[0]
    x = np.array(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != (n,) or b.shape != (n,):
        raise ValueError("x and b must match the finest-level size")
    return _v_cycle_level(h, smoother, x, b, 0)


class ContractionResult(NamedTuple):
    """Contraction estimate from :func:`measure_contraction`.

    ``factor`` is the Lanczos ``theta + residual``, an upper estimate, not
    a certificate; ``converged`` means ``residual <= tol * theta``, reached
    within ``n_cycles`` Lanczos steps of one V-cycle each.  ``vector``, a
    copy of the start vector, stays only because the benchmark passes it
    on as the next cell's ``x0``.
    """

    factor: float
    converged: bool
    n_cycles: int
    residual: float
    vector: np.ndarray


def measure_contraction(h: Hierarchy, smoother: SmootherConfig, seed: int = 0,
                        tol: float = 1e-8, max_cycles: int = 500,
                        x0: np.ndarray | None = None) -> ContractionResult:
    """A-norm error contraction ``||E||_A^2`` of the V-cycle.

    :func:`~polymg.linalg.lanczos_max` estimates the top eigenvalue of the
    cycle's error propagator ``v_cycle(h, smoother, ., 0)``, which is
    A-self-adjoint and positive semidefinite, in the A-inner product from a
    seeded normal start or from ``x0`` (left unchanged).  Raises
    ``ValueError`` unless ``0 < tol < 1``, ``max_cycles >= 1`` and ``x0``
    (if given) is a finite vector of the finest-level size with a nonzero,
    finite A-norm.
    """
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise ValueError("tol must lie in (0, 1)")
    if max_cycles < 1:
        raise ValueError("max_cycles must be at least 1")
    A = h.finest.op
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n) if x0 is None else np.array(x0, dtype=float)
    if e.shape != (n,):
        raise ValueError(f"x0 must match the finest-level size: shape ({n},), got {e.shape}")
    if not (np.isfinite(e).all() and 0.0 < float(e @ (A @ e)) < math.inf):
        raise ValueError("x0 must have a nonzero, finite A-norm")
    zero = np.zeros(n)
    res = lanczos_max(lambda v: v_cycle(h, smoother, v, zero), A, e, tol=tol, max_iter=max_cycles)
    return ContractionResult(res.value, res.converged, res.iterations, res.residual, e)


def _two_level_grid(A, B: DiagonalSmoother, P, A_c) -> GridSpec:
    """The grid of which ``(A, B, P, A_c)`` is the two-level pair, else ``ValueError``.

    ``m`` comes from ``A``'s size and the aspect from ``A[0, n_side] +
    2 A[0, 1] = -aspect``.  ``A_c`` must have the coarsened grid's shape,
    ``A`` and ``A_c`` a diagonal within 1e-12 relative of their grids'
    stencil centres, ``B`` a constant diagonal within 1e-12 relative of the
    grid's :func:`~polymg.fem.jacobi_smoother` in ``inverse_diagonal`` and
    ``rho_BA``, and ``P`` the grid's bilinear prolongation.
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


_SLAB = 32  # coarse x-modes per slab of 4 x 4 blocks: at m = 10, 32 * 511 blocks (2.1 MB)


def _two_grid_sup(g: GridSpec, B: DiagonalSmoother, p: PolynomialSpec | None = None) -> float:
    """Exact two-level ``C`` of ``g`` and its coarsening, or ``C_N`` for the polynomial ``p``.

    Both are ``sup_{u in range(pi_f)} ||u||^2_M / ||u||^2_A`` for ``M`` of
    weight ``nu`` at a sine mode where ``A`` has ``lam`` (:func:`~polymg.fem.sine_symbol`):
    ``M = B_hat^{-1}``, ``B_hat`` the Jacobi ``B`` scaled so ``rho(B_hat A) = 1``,
    or ``M = N^{-1} = A (I - p(B_hat A)^2)^{-1}``, ``nu = lam / (1 - p(x)^2)``
    at the mode's eigenvalue ``x`` of ``B_hat A``; ``|p| < 1`` on (0, 1] is
    checked on that exact spectrum and at 1, so rounding in ``rho(BA)``
    cannot decide it.  The sup is ``lambda_max(F^T Q F)``, ``F F^T = M``,
    ``Q = A^{-1} - P A_c^{-1} P^T`` (Falgout, Vassilevski & Zikatanov, NLAA
    12, 2005).  ``P`` maps coarse sine mode ``I`` to fine modes ``I`` and
    ``n_f + 1 - I`` with weights ``sqrt(2) cos^2(theta_I/2)`` and
    ``-sqrt(2) sin^2(theta_I/2)`` per direction, ``theta_I = I pi/(n_f + 1)``,
    so ``F^T Q F`` is a 4 x 4 block ``diag(nu/lam) - v v^T / lam_c`` per coarse
    mode, solved in slabs of ``_SLAB`` coarse x-modes, plus ``nu/lam`` at the
    fine modes with the middle index ``n_c + 1``, which have no coarse part.
    """
    n, nc = g.n_side, g.coarsen().n_side
    lam = sine_symbol(g, np.arange(1, n + 1))
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
    lam_c = sine_symbol(g.coarsen(), I)
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


def measure_C(A, B: DiagonalSmoother, P, A_c) -> float:
    """Exact ``C = sup_{u in range(pi_f)} ||u||^2_{B^{-1}} / ||u||^2_A`` (two-level).

    ``B`` is normalized internally so that ``rho(BA) = 1``.  The operands
    must be one model grid's assembled Q1 operator (a DIA band, or CSR as
    ``Level.A`` gives), its Jacobi smoother, bilinear prolongation and
    coarse operator (diagonals and smoother within 1e-12 relative of the
    grid's), else ``ValueError``; the grid read back from them and ``B`` go
    to ``_two_grid_sup``.  ``C >= 1`` and rises towards ``2 aspect^2`` with
    ``m``.  With the next change to the bench, which calls this form, the
    signatures become ``measure_C(grid)`` and ``measure_CN(grid, p)``.
    """
    return _two_grid_sup(_two_level_grid(A, B, P, A_c), B)


def measure_CN(A, B: DiagonalSmoother, P, A_c, p: PolynomialSpec) -> float:
    """Exact ``C_N`` for the smoother polynomial ``p`` (two-level).

    As :func:`measure_C` with the norm of ``N^{-1} = A (I - p(BA)^2)^{-1}``,
    and ``ValueError`` unless ``|p| < 1`` on (0, 1].  The cycle bound
    ``||E||_A^2 <= 1 - 1/C_N`` is sharp over errors in the fine space.
    """
    return _two_grid_sup(_two_level_grid(A, B, P, A_c), B, p)

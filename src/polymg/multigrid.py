"""Geometric multigrid V-cycle with polynomial smoothing.

The hierarchy coarsens by factor 2 with bilinear prolongation and Galerkin
coarse operators ``A_c = P^T A P``, each written from strided stencil sums
over the fine band, and each level keeps one operator (its 9-point DIA
band), down to a coarsest level solved by dense Cholesky.  A
symmetric V-cycle (equal pre- and post-smoothing, SPD-preconditioned
polynomial smoother) has an A-self-adjoint, positive semidefinite error
propagator, so its asymptotic A-norm contraction factor equals
``||E||_A^2`` for the half-cycle operator ``E`` the spectral bounds address.

Smoothing quality enters the bounds through two measurable constants:

* ``C``: the largest ratio ``||u||^2_{B^{-1}} / ||u||^2_A`` over the
  A-orthogonal complement of the coarse space (B scaled so rho(BA) = 1);
* ``C_N``: the same ratio with ``N^{-1} = A (I - p(BA)^2)^{-1}``, which
  converts directly into the cycle bound ``||E||_A^2 <= 1 - 1/C_N``.

The sine modes diagonalise every level and the Jacobi smoother, and the
bilinear prolongation couples four fine modes per coarse mode, so both are
exact eigenvalues of 4 x 4 blocks (rigorous Fourier analysis: Trottenberg,
Oosterlee & Schueller, *Multigrid*, 2001, ch. 4); see :func:`measure_C`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .fem import (GridSpec, _galerkin_band, assemble_poisson_q1, build_prolongation,
                  jacobi_smoother, sine_symbol)
from .linalg import CholeskySolver, as_csr
from .poly import PolynomialSpec
from .smoothers import DiagonalSmoother, SmootherConfig, apply_smoother

__all__ = [
    "Level",
    "Hierarchy",
    "VCycleConfig",
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

    ``op`` is the level operator, a 9-point band in ``dia_array`` form,
    which the smoother, the residual and the A-norms apply.  ``P``
    prolongs from the next coarser level and ``R = P^T`` restricts to it.
    """

    grid: GridSpec
    op: sp.dia_array
    smoother: DiagonalSmoother | None
    P: sp.csr_array | None
    R: sp.csr_array | None

    @property
    def A(self) -> sp.csr_array:
        """``op`` as a canonical CSR array without its stored zeros, built on each access."""
        return as_csr(self.op)


@dataclass(frozen=True)
class Hierarchy:
    """Nested levels, finest first, plus the coarsest-level factorization."""

    levels: tuple[Level, ...]
    coarse_solver: CholeskySolver

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> Level:
        return self.levels[0]


@dataclass(frozen=True)
class VCycleConfig:
    """Smoother selection plus pre/post application counts."""

    smoother: SmootherConfig
    pre_steps: int = 1
    post_steps: int = 1

    def __post_init__(self):
        if self.pre_steps < 0 or self.post_steps < 0:
            raise ValueError("smoothing step counts must be nonnegative")

    @property
    def is_symmetric(self) -> bool:
        return self.pre_steps == self.post_steps


def build_hierarchy(grid: GridSpec, min_interior: int = 3) -> Hierarchy:
    """Assemble the model problem and coarsen until ``n_side <= min_interior``.

    Coarse operators are Galerkin products of the bilinear prolongation,
    which equal the rediscretised Q1 operators, so every level's Jacobi
    smoother takes ``rho(BA)`` from its grid's sine-mode symbol
    (:func:`~polymg.fem.jacobi_smoother`); no eigensolve runs here.
    The model problem is a 9-point band on every level, so each level
    keeps its operator as one DIA band.  Each coarse band is ``P^T A P``
    written straight from strided stencil sums over the fine band
    (:func:`~polymg.fem._galerkin_band`), with the bits of scipy's sparse
    product and no other copy of the fine operator.
    """
    if min_interior < 3:
        raise ValueError("coarsest grid cannot have fewer than 3 interior nodes per side")
    levels: list[Level] = []
    g, op = grid, assemble_poisson_q1(grid)
    while g.n_side > min_interior and g.m > 2:
        B = jacobi_smoother(op, g)
        op_c = _galerkin_band(op, g)  # before P is built: lower peak
        cg = g.coarsen()
        P = build_prolongation(g, cg)
        levels.append(Level(grid=g, op=op, smoother=B, P=P, R=as_csr(P.T)))
        g, op = cg, op_c
    levels.append(Level(grid=g, op=op, smoother=None, P=None, R=None))
    coarse_solver = CholeskySolver(op.toarray())
    return Hierarchy(levels=tuple(levels), coarse_solver=coarse_solver)


def _v_cycle_level(h: Hierarchy, cfg: VCycleConfig, x: np.ndarray | None, b: np.ndarray,
                   level: int) -> np.ndarray:
    """Cycle from ``level`` down and return the new iterate.

    ``x`` is updated in place; ``None`` starts from zero, as every coarse
    level does, and lets the first smoothing step skip ``b - A 0``.
    """
    lvl = h.levels[level]
    if lvl.P is None:
        return h.coarse_solver.solve(b)
    for _ in range(cfg.pre_steps):
        x = apply_smoother(lvl.op, lvl.smoother, x, b, cfg.smoother)
    if x is None:  # no pre-smoothing
        x = np.zeros(b.shape)
    r = b - lvl.op @ x
    ec = _v_cycle_level(h, cfg, None, lvl.R @ r, level + 1)
    x += lvl.P @ ec
    for _ in range(cfg.post_steps):
        apply_smoother(lvl.op, lvl.smoother, x, b, cfg.smoother)
    return x


def v_cycle(h: Hierarchy, cfg: VCycleConfig, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One V-cycle for ``A x = b`` starting from ``x`` on the finest level.

    Returns the new iterate; ``x`` itself is left unchanged.
    """
    n = h.finest.op.shape[0]
    x = np.array(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != (n,) or b.shape != (n,):
        raise ValueError("x and b must match the finest-level size")
    return _v_cycle_level(h, cfg, x, b, 0)


class ContractionResult(NamedTuple):
    """Asymptotic contraction estimate from :func:`measure_contraction`."""

    factor: float
    converged: bool
    n_cycles: int
    vector: np.ndarray


def measure_contraction(h: Hierarchy, cfg: VCycleConfig, seed: int = 0,
                        tol: float = 1e-8, max_cycles: int = 500,
                        x0: np.ndarray | None = None) -> ContractionResult:
    """Asymptotic A-norm error contraction of the symmetric V-cycle.

    Runs the cycle on the homogeneous system ``A e = 0`` (so the iterate is
    the error), renormalizing each cycle, and tracks the per-cycle A-norm
    ratio until its relative change falls below ``tol``.  For a symmetric
    cycle the limit is ``||E||_A^2``.  When ``max_cycles`` is exhausted the
    last ratio is returned flagged not-converged.  ``x0`` is left unchanged.
    Raises ``ValueError`` unless ``0 < tol < 1``, ``max_cycles >= 1`` and
    ``x0`` (if given) is a finite vector of the finest-level size with a
    nonzero, finite A-norm.
    """
    if not cfg.is_symmetric:
        raise ValueError("contraction measurement requires a symmetric cycle (pre == post)")
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
    if not np.isfinite(e).all():
        raise ValueError("x0 must be finite")
    zero = np.zeros(n)
    norm = float(np.sqrt(e @ (A @ e)))
    if not 0.0 < norm < math.inf:  # a zero start would report factor 0, converged
        raise ValueError("x0 must have a nonzero, finite A-norm")
    ratio = 0.0
    for cycle in range(1, max_cycles + 1):
        if norm == 0.0:
            return ContractionResult(0.0, True, cycle, e)
        e /= norm
        e = _v_cycle_level(h, cfg, e, zero, 0)
        ratio = float(np.sqrt(max(e @ (A @ e), 0.0)))
        if cycle >= 3 and abs(ratio - norm) <= tol * ratio:
            return ContractionResult(ratio, True, cycle, e)
        norm = ratio  # A-norm of the next cycle's start vector
    return ContractionResult(ratio, False, max_cycles, e)


def _two_level_grid(A, B: DiagonalSmoother, P, A_c) -> GridSpec:
    """The grid of which ``(A, B, P, A_c)`` is the two-level pair, else ``ValueError``.

    ``m`` comes from ``A``'s size and the aspect from ``A[0, n_side] +
    2 A[0, 1] = -aspect``.  ``A`` and ``A_c`` must carry the diagonals of
    the grid and its coarsening, ``B`` must be constant and ``P`` the
    grid's bilinear prolongation.
    """
    n = A.shape[0]
    n_side = math.isqrt(n)
    m = n_side.bit_length()
    if A.shape != (n, n) or n_side * n_side != n or n_side != 2 ** m - 1 or m < 3:
        raise ValueError(f"operator of shape {A.shape} is not a Q1 grid with m >= 3")
    # rounding can put aspect 1 just below 1; the diagonal check rejects anything further off
    g = GridSpec(m=m, aspect=max(1.0, -(A.diagonal(n_side)[0] + 2.0 * A.diagonal(1)[0])))
    jacobi_smoother(A, g)  # called only for its shape and diagonal checks
    jacobi_smoother(A_c, g.coarsen())
    inv = B.inverse_diagonal
    if inv.shape != (n,) or np.any(inv != inv[0]):
        raise ValueError("smoother must be a constant diagonal of the operator's size")
    P_ref = build_prolongation(g, g.coarsen())
    if P.shape != P_ref.shape or (sp.csr_array(P) != P_ref).nnz:
        raise ValueError("P is not the bilinear prolongation of the grid")
    return g


def _two_grid_sup(g: GridSpec, nu) -> float:
    """``sup_{u in range(pi_f)} ||u||^2_M / ||u||^2_A`` for ``M`` diagonal in the sine modes.

    ``nu`` is ``M``'s eigenvalue, a constant or one per fine mode ``(i, j)``
    at ``[i - 1, j - 1]``, and ``lam`` is ``A``'s.  The supremum is
    ``lambda_max(F^T Q F)``, ``Q = A^{-1} - P A_c^{-1} P^T``, ``F F^T = M``
    (Falgout, Vassilevski & Zikatanov, NLAA 12, 2005).  In the orthonormal
    sine bases ``P`` maps coarse mode ``I`` to fine modes ``I`` and
    ``n_f + 1 - I`` with weights ``sqrt(2) cos^2(theta_I/2)`` and
    ``-sqrt(2) sin^2(theta_I/2)`` per direction, ``theta_I = I pi/(n_f + 1)``.
    So ``F^T Q F`` is one 4 x 4 block ``diag(nu/lam) - v v^T / lam_c`` per
    coarse mode, plus ``nu/lam`` at the fine modes with the middle index
    ``n_c + 1``, which have no coarse part.
    """
    n, nc = g.n_side, g.coarsen().n_side
    lam = sine_symbol(g, np.arange(1, n + 1))
    nu = np.broadcast_to(nu, lam.shape)
    r = nu / lam
    I = np.arange(1, nc + 1)
    half = I * np.pi / (2 * (n + 1))
    w = np.sqrt(2.0) * np.array([np.cos(half) ** 2, -np.sin(half) ** 2])
    fine = np.array([I - 1, n - I])  # 0-based fine modes I and n + 1 - I
    ix, iy = fine[:, None, :, None], fine[None, :, None, :]  # [sx, sy, Ix, Iy]
    v = (np.sqrt(nu[ix, iy]) * w[:, None, :, None] * w[None, :, None, :]).reshape(4, -1).T
    blocks = v[:, :, None] * v[:, None, :] / -sine_symbol(g.coarsen(), I).reshape(-1, 1, 1)
    blocks[:, range(4), range(4)] += r[ix, iy].reshape(4, -1).T
    return float(max(np.linalg.eigvalsh(blocks)[:, -1].max(), r[nc].max(), r[:, nc].max()))


def measure_C(A, B: DiagonalSmoother, P, A_c) -> float:
    """Exact ``C = sup_{u in range(pi_f)} ||u||^2_{B^{-1}} / ||u||^2_A`` (two-level).

    ``B`` is normalized internally so that ``rho(BA) = 1``.  The operands
    must be one model grid's Q1 operator (DIA or CSR), its Jacobi
    smoother, bilinear prolongation and coarse operator, else
    ``ValueError``; ``C`` is then a 4 x 4 block eigenvalue of the sine
    modes, with no iteration.  ``C >= 1`` and rises towards
    ``2 aspect^2`` with ``m``.  The signature becomes ``measure_C(grid)``
    with the next change to the bench, which calls this form.
    """
    g = _two_level_grid(A, B, P, A_c)
    return _two_grid_sup(g, B.rho_BA / B.inverse_diagonal[0])  # B_hat^{-1}, a constant


def measure_CN(A, B: DiagonalSmoother, P, A_c, p: PolynomialSpec) -> float:
    """Exact ``C_N`` for the smoother polynomial ``p`` (two-level).

    As :func:`measure_C` with the norm of ``N^{-1} = A (I - p(BA)^2)^{-1}``:
    its weight at a mode with eigenvalue ``lam`` of ``A`` and ``x`` of the
    normalized ``BA`` is ``lam / (1 - p(x)^2)``.  Requires ``|p| < 1`` on
    (0, 1], checked on that exact spectrum and at the endpoint 1, so
    rounding in ``rho(BA)`` cannot decide it.  The cycle bound
    ``||E||_A^2 <= 1 - 1/C_N`` is sharp over errors in the fine space.
    The signature becomes ``measure_CN(grid, p)`` with the next bench change.
    """
    g = _two_level_grid(A, B, P, A_c)
    lam = sine_symbol(g, np.arange(1, g.n_side + 1))
    pv = p.evaluate(lam * (B.inverse_diagonal[0] / B.rho_BA))
    if np.max(np.abs(pv)) >= 1.0 or abs(p.evaluate(1.0)) >= 1.0:
        raise ValueError("polynomial is not a contraction on (0, 1]; N is singular")
    return _two_grid_sup(g, lam / (1.0 - pv * pv))

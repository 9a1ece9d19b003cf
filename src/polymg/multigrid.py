"""Geometric multigrid V-cycle with polynomial smoothing.

The hierarchy coarsens by factor 2 with bilinear prolongation and Galerkin
coarse operators ``A_c = P^T A P``, each level keeping one operator (its
9-point DIA band), down to a coarsest level solved by dense Cholesky.  A
symmetric V-cycle (equal pre- and post-smoothing, SPD-preconditioned
polynomial smoother) has an A-self-adjoint, positive semidefinite error
propagator, so its asymptotic A-norm contraction factor equals
``||E||_A^2`` for the half-cycle operator ``E`` the spectral bounds address.

Smoothing quality enters the bounds through two measurable constants:

* ``C``: the largest ratio ``||u||^2_{B^{-1}} / ||u||^2_A`` over the
  A-orthogonal complement of the coarse space (B scaled so rho(BA) = 1);
* ``C_N``: the same ratio with ``N^{-1} = A (I - p(BA)^2)^{-1}``, which
  converts directly into the cycle bound ``||E||_A^2 <= 1 - 1/C_N``.

Both are upper Lanczos estimates of one two-level eigenvalue (see
:func:`measure_C`), not certificates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .fem import GridSpec, assemble_poisson_q1, build_prolongation, jacobi_smoother
from .linalg import CholeskySolver, as_csr, lanczos_max
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
    formed from the CSC of the fine band: ``P^T`` is a CSC view of ``P``,
    so the product takes that operand without a copy, and the CSC is the
    only other copy of the fine operator held through it.  (scipy builds
    the CSC by way of a CSR; that conversion is the build's peak.)
    """
    if min_interior < 3:
        raise ValueError("coarsest grid cannot have fewer than 3 interior nodes per side")
    levels: list[Level] = []
    g, op = grid, assemble_poisson_q1(grid)
    while g.n_side > min_interior and g.m > 2:
        B = jacobi_smoother(op, g)
        cg = g.coarsen()
        P = build_prolongation(g, cg)
        op_c = as_csr(P.T @ sp.csc_array(op) @ P).todia()  # before R is built: lower peak
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
    Raises ``ValueError`` unless ``0 < tol < 1`` and ``max_cycles >= 1``.
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
    zero = np.zeros(n)
    norm = float(np.sqrt(e @ (A @ e)))
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


def _two_level_sup(A, P, A_c, F) -> float:
    """Upper Lanczos estimate of ``sup_{u in range(pi_f)} ||F^T u||^2 / ||u||^2_A``.

    ``Q = A^{-1} - P A_c^{-1} P^T = pi_f A^{-1}`` is symmetric positive
    semidefinite with range ``range(pi_f)``, so the supremum is
    ``lambda_max(F^T Q F)`` (Falgout, Vassilevski & Zikatanov, NLAA 12,
    2005); each step takes one sparse LU solve with ``A`` and one with
    ``A_c``.  A non-converged estimate is used but reported via a warning.
    """
    solve = scipy.sparse.linalg.splu(sp.csc_array(A)).solve
    solve_c = scipy.sparse.linalg.splu(sp.csc_array(A_c)).solve

    def apply(v: np.ndarray) -> np.ndarray:
        w = F @ v
        return F.T @ (solve(w) - P @ solve_c(P.T @ w))

    result = lanczos_max(apply, F.shape[1])
    if not result.converged:
        warnings.warn(f"two-level Lanczos estimate not converged after {result.iterations} "
                      f"steps (estimate {result.value:.12g}, residual {result.residual:.3g})",
                      stacklevel=3)
    return result.value


def measure_C(A, B: DiagonalSmoother, P, A_c) -> float:
    """Measure ``C = sup_{u in range(pi_f)} ||u||^2_{B^{-1}} / ||u||^2_A``.

    ``B`` is normalized internally so that ``rho(BA) = 1``.  The value is
    the upper Lanczos estimate (relative residual 1e-10) of
    ``lambda_max(F^T (A^{-1} - P A_c^{-1} P^T) F)`` with ``F = B^{-1/2}``.
    ``C >= 1`` whenever the coarse space is a proper subspace; a square
    prolongation makes ``pi_f = 0`` and the measurement degenerate, reported
    as 0 with a warning.
    """
    if P.shape[0] == P.shape[1]:
        warnings.warn("coarse space spans the fine space; C is degenerate", stacklevel=2)
        return 0.0
    F = sp.diags_array(np.sqrt(B.rho_BA / B.inverse_diagonal))  # B_hat^(-1/2), diagonal
    return _two_level_sup(A, P, A_c, F)


# largest fine-level size for the dense eigendecomposition in measure_CN
_CN_DENSE_CAP = 2000


def measure_CN(A, B: DiagonalSmoother, P, A_c, p: PolynomialSpec) -> float:
    """Measure ``C_N`` for the smoother polynomial ``p`` (two-level).

    ``N^{-1} = A (I - p(BA)^2)^{-1}`` is evaluated through the dense
    eigendecomposition ``S A S = U diag(lam) U^T``, ``S = B_hat^{1/2}``, as
    ``F F^T`` with ``F = S^{-1} U diag(sqrt(lam / (1 - p(lam)^2)))``; ``C_N``
    is then estimated as in :func:`measure_C`.  Requires ``|p| < 1`` on
    (0, 1]; that is checked on the spectrum of the normalized ``BA`` and at
    the endpoint 1, so rounding in ``rho(BA)`` cannot decide it.  The cycle
    bound ``||E||_A^2 <= 1 - 1/C_N`` is sharp over errors in the fine space.
    """
    n = A.shape[0]
    if n > _CN_DENSE_CAP:
        raise ValueError(f"dense path capped at n = {_CN_DENSE_CAP}; got {n}")
    s = np.sqrt(B.inverse_diagonal / B.rho_BA)  # B_hat^(1/2), diagonal
    sym = s[:, None] * A.toarray() * s[None, :]
    lam, U = np.linalg.eigh(0.5 * (sym + sym.T))
    pv = p.evaluate(lam)
    if np.max(np.abs(pv)) >= 1.0 or abs(p.evaluate(1.0)) >= 1.0:
        raise ValueError("polynomial is not a contraction on (0, 1]; N is singular")
    F = (U * np.sqrt(lam / (1.0 - pv * pv))) / s[:, None]
    return _two_level_sup(A, P, A_c, F)

"""Geometric multigrid V-cycle with polynomial smoothing.

The hierarchy coarsens by factor 2 with bilinear prolongation and Galerkin
coarse operators ``A_c = P^T A P`` down to a small coarsest level solved by
dense Cholesky.  A symmetric V-cycle (equal pre- and post-smoothing with an
SPD-preconditioned polynomial smoother) has an A-self-adjoint, positive
semidefinite error propagator, so its asymptotic A-norm contraction factor
equals ``||E||_A^2`` for the half-cycle operator ``E`` that the spectral
bounds address.

Smoothing quality enters the bounds through two measurable constants:

* ``C``: the largest ratio ``||u||^2_{B^{-1}} / ||u||^2_A`` over the
  A-orthogonal complement of the coarse space (B scaled so rho(BA) = 1);
* ``C_N``: the same ratio with ``N^{-1} = A (I - p(BA)^2)^{-1}``, which
  converts directly into the cycle bound ``||E||_A^2 <= 1 - 1/C_N``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .fem import GridSpec, assemble_poisson_q1, build_prolongation, jacobi_smoother
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
    "fine_space_projector",
    "measure_C",
    "measure_CN",
]


@dataclass(frozen=True)
class Level:
    """One grid level; the coarsest level has no smoother or transfers.

    ``A`` is the canonical CSR matrix (export, Galerkin products, dense
    measurements).  ``op`` is the same operator in banded ``dia_array``
    form, which the smoother, the residual and the A-norms apply.  ``P``
    prolongs from the next coarser level and ``R = P^T`` restricts to it.
    """

    grid: GridSpec
    A: sp.csr_array
    op: sp.dia_array
    smoother: DiagonalSmoother | None
    P: sp.csr_array | None
    R: sp.csr_array | None


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


def build_hierarchy(grid: GridSpec, min_interior: int = 3, seed: int = 0) -> Hierarchy:
    """Assemble the model problem and coarsen until ``n_side <= min_interior``.

    Every level gets a Jacobi smoother with its own measured ``rho(BA)``;
    coarse operators are Galerkin products of the bilinear prolongation.
    Each level keeps its operator in CSR and, for the cycle, in DIA form:
    the model problem is a 9-point band on every level.
    """
    if min_interior < 3:
        raise ValueError("coarsest grid cannot have fewer than 3 interior nodes per side")
    levels: list[Level] = []
    g = grid
    A = assemble_poisson_q1(g)
    while g.n_side > min_interior and g.m > 2:
        op = A.todia()
        B = jacobi_smoother(op, seed=seed)
        cg = g.coarsen()
        P = build_prolongation(g, cg)
        Ac = as_csr(P.T @ A @ P)
        levels.append(Level(grid=g, A=A, op=op, smoother=B, P=P, R=as_csr(P.T)))
        g, A = cg, Ac
    levels.append(Level(grid=g, A=A, op=A.todia(), smoother=None, P=None, R=None))
    coarse_solver = CholeskySolver(A.toarray())
    return Hierarchy(levels=tuple(levels), coarse_solver=coarse_solver)


def _v_cycle_level(h: Hierarchy, cfg: VCycleConfig, x: np.ndarray, b: np.ndarray,
                   level: int) -> np.ndarray:
    """Cycle from ``level`` down, updating ``x`` in place; returns the new iterate."""
    lvl = h.levels[level]
    if lvl.P is None:
        return h.coarse_solver.solve(b)
    for _ in range(cfg.pre_steps):
        apply_smoother(lvl.op, lvl.smoother, x, b, cfg.smoother)
    r = b - lvl.op @ x
    ec = _v_cycle_level(h, cfg, np.zeros(lvl.R.shape[0]), lvl.R @ r, level + 1)
    x += lvl.P @ ec
    for _ in range(cfg.post_steps):
        apply_smoother(lvl.op, lvl.smoother, x, b, cfg.smoother)
    return x


def v_cycle(h: Hierarchy, cfg: VCycleConfig, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One V-cycle for ``A x = b`` starting from ``x`` on the finest level.

    Returns the new iterate; ``x`` itself is left unchanged.
    """
    n = h.finest.A.shape[0]
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
    """
    if not cfg.is_symmetric:
        raise ValueError("contraction measurement requires a symmetric cycle (pre == post)")
    A = h.finest.op
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n) if x0 is None else np.array(x0, dtype=float)
    zero = np.zeros(n)
    ratio_prev = None
    ratio = 0.0
    for cycle in range(1, max_cycles + 1):
        norm = np.sqrt(e @ (A @ e))
        if norm == 0.0:
            return ContractionResult(0.0, True, cycle, e)
        e /= norm
        e = _v_cycle_level(h, cfg, e, zero, 0)
        ratio = float(np.sqrt(max(e @ (A @ e), 0.0)))
        if cycle >= 3 and ratio_prev is not None and abs(ratio - ratio_prev) <= tol * ratio:
            return ContractionResult(ratio, True, cycle, e)
        ratio_prev = ratio
    return ContractionResult(ratio, False, max_cycles, e)


def fine_space_projector(A, P, A_c) -> np.ndarray:
    """Dense A-orthogonal projector ``pi_f = I - P A_c^{-1} P^T A``.

    ``pi_f`` annihilates the range of ``P`` and reproduces its A-orthogonal
    complement; it is the error propagator of exact coarse correction.
    """
    Ad = A.toarray()
    Pd = P.toarray()
    Acd = A_c.toarray()
    X = scipy.linalg.solve(Acd, Pd.T @ Ad, assume_a="pos")
    return np.eye(Ad.shape[0]) - Pd @ X


def measure_C(A, B: DiagonalSmoother, P, A_c, dense_cap: int = 4000) -> float:
    """Measure ``C = sup_{u in range(pi_f)} ||u||^2_{B^{-1}} / ||u||^2_A``.

    ``B`` is normalized internally so that ``rho(BA) = 1``; the supremum is
    the top generalized eigenvalue of ``pi_f^T B^{-1} pi_f`` against ``A``
    (dense path).  ``C >= 1`` whenever the coarse space is a proper
    subspace; a square prolongation makes ``pi_f = 0`` and the measurement
    degenerate, reported as 0 with a warning.
    """
    n = A.shape[0]
    if n > dense_cap:
        raise ValueError(f"dense path capped at n = {dense_cap}; got {n}")
    if P.shape[0] == P.shape[1]:
        warnings.warn("coarse space spans the fine space; C is degenerate", stacklevel=2)
        return 0.0
    pif = fine_space_projector(A, P, A_c)
    b_hat_inv = B.rho_BA / B.inverse_diagonal  # inverse of B/rho(BA)
    M = pif.T @ (b_hat_inv[:, None] * pif)
    M = 0.5 * (M + M.T)
    vals = scipy.linalg.eigh(M, A.toarray(), eigvals_only=True)
    return float(vals[-1])


def measure_CN(A, B: DiagonalSmoother, P, A_c, p: PolynomialSpec,
               dense_cap: int = 2000) -> float:
    """Measure ``C_N`` for the smoother polynomial ``p`` (dense two-level path).

    ``N^{-1} = A (I - p(BA)^2)^{-1}`` is evaluated through the
    eigendecomposition of the symmetrized smoothed operator; requires
    ``|p| < 1`` on (0, 1].  That is checked on the spectrum of the
    normalized ``BA`` and at the endpoint 1, so rounding in ``rho(BA)``
    cannot decide it.  The cycle bound ``||E||_A^2 <= 1 - 1/C_N`` is sharp
    over errors in the fine space.
    """
    n = A.shape[0]
    if n > dense_cap:
        raise ValueError(f"dense path capped at n = {dense_cap}; got {n}")
    Ad = A.toarray()
    s = np.sqrt(B.inverse_diagonal / B.rho_BA)  # B_hat^(1/2), diagonal
    sym = s[:, None] * Ad * s[None, :]
    lam, Q = np.linalg.eigh(0.5 * (sym + sym.T))
    pv = p.evaluate(lam)
    if np.max(np.abs(pv)) >= 1.0 or abs(p.evaluate(1.0)) >= 1.0:
        raise ValueError("polynomial is not a contraction on (0, 1]; N is singular")
    # N^{-1} = S^{-1} Q diag(lam / (1 - p(lam)^2)) Q^T S^{-1}
    mid = lam / (1.0 - pv * pv)
    n_inv = (Q * mid) @ Q.T
    n_inv = (1.0 / s)[:, None] * n_inv * (1.0 / s)[None, :]
    pif = fine_space_projector(A, P, A_c)
    M = pif.T @ n_inv @ pif
    M = 0.5 * (M + M.T)
    vals = scipy.linalg.eigh(M, Ad, eigvals_only=True)
    return float(vals[-1])

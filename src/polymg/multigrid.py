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

The exact two-level constants ``C`` and ``C_N`` of the cycle's bound come
from the grid alone, by :func:`~polymg.fem.two_level_C`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .fem import (GridSpec, Q1Operator, SineSolver, assemble_poisson_q1, build_prolongation,
                  jacobi_smoother)
# bench/workloads.py calls polymg.multigrid.measure_C and measure_CN; ROADMAP item 1 deletes them
from .fem import measure_C, measure_CN
from .linalg import as_csr, lanczos_max
from .smoothers import DiagonalSmoother, SmootherConfig, apply_smoother

__all__ = [
    "Hierarchy",
    "ContractionResult",
    "build_hierarchy",
    "v_cycle",
    "measure_contraction",
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
    while g.n_side > min_interior:
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
    ``ValueError`` unless ``0 < tol < 1``, ``max_cycles`` is an integer
    ``>= 1`` (not a bool) and ``x0`` (if given) is a finite vector of the
    finest-level size with a nonzero, finite A-norm.
    """
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise ValueError("tol must lie in (0, 1)")
    if (isinstance(max_cycles, bool) or not isinstance(max_cycles, numbers.Integral)
            or max_cycles < 1):
        raise ValueError("max_cycles must be an integer >= 1")
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

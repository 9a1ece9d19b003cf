"""Polynomial smoothers for SPD systems preconditioned by a diagonal.

Every smoother realizes an error propagation ``e <- p(BA/rho(BA)) e`` for
some polynomial ``p`` with ``p(0) = 1``, and every one runs the same
three-term recurrence with per-step constants ``(a_i, c_i, beta_i)``:

    z_0 = 0, r_0 = b - A x_0, and for i = 1..k:
        z_i = a_i z_{i-1} + c_i (1/rho) B r_{i-1}
        x_i = x_{i-1} + beta_i z_i
        r_i = r_{i-1} - A z_i

* ``simple``: damped preconditioned Richardson, ``(0, omega, 1)``, so
  ``p = (1 - omega lam)^k``;
* ``cheb4``: fourth-kind Chebyshev, ``a_i = (2i-3)/(2i+1)``,
  ``c_i = (8i-4)/(2i+1)`` and ``beta_i = 1``, so ``p = W_k(1-2 lam)/(2k+1)``;
  ``a_1`` multiplies ``z_0 = 0`` and is stored as 0, so configs that run
  the same cycle compare and hash equal (``cheb4(1) == simple(4/3, 1)``);
* ``opt``: the ``cheb4`` constants with over-relaxation weights ``beta_i``,
  realizing ``p = sum_i ((beta_i - beta_{i+1})/(2i+1)) W_i(1-2 lam)``.

``cheb4`` is exactly ``opt`` with all betas equal to one and runs the same
operation sequence, so the equivalence is bitwise.  ``r_i`` tracks
``b - A (x_{i-1} + z_i)``; it is the residual of ``x_i`` only when
``beta_i = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import _check_degree

__all__ = ["SmootherConfig"]


@dataclass(frozen=True)
class DiagonalSmoother:
    """Diagonal preconditioner ``B`` together with its measured ``rho(BA)``.

    ``inverse_diagonal`` holds the entries of ``B`` (for Jacobi,
    ``1/diag(A)``); iterations divide by ``rho_BA`` so the effective
    operator ``(1/rho) B A`` has spectrum in ``(0, 1]``.
    """

    inverse_diagonal: np.ndarray
    rho_BA: float

    def __post_init__(self):
        d = np.asarray(self.inverse_diagonal, dtype=float)
        if d.ndim != 1 or not np.all(d > 0.0):  # nan is not > 0
            raise ValueError("inverse diagonal must be a positive 1-D array")
        object.__setattr__(self, "inverse_diagonal", d)
        if not 0.0 < self.rho_BA < np.inf:  # an infinite entry of B makes it infinite
            raise ValueError("rho(BA) must be positive and finite")


@dataclass(frozen=True)
class SmootherConfig:
    """The recurrence constants ``(a_i, c_i, beta_i)`` of a smoother, one per step.

    Build it with ``simple``, ``cheb4`` or ``optimized``; they check their
    arguments.  ``cheb4(k)`` is ``optimized(np.ones(k))``.
    """

    steps: tuple[tuple[float, float, float], ...]

    @classmethod
    def simple(cls, omega: float, k: int) -> "SmootherConfig":
        if not 0.0 < omega < 2.0:
            raise ValueError("simple smoother needs 0 < omega < 2")
        _check_degree(k, lowest=0)
        return cls(((0.0, float(omega), 1.0),) * k)

    @classmethod
    def cheb4(cls, k: int) -> "SmootherConfig":
        _check_degree(k)
        return cls.optimized(np.ones(k))

    @classmethod
    def optimized(cls, betas) -> "SmootherConfig":
        betas = np.asarray(betas, dtype=float)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("opt smoother needs a 1-D array of k >= 1 betas")
        if not np.all(np.isfinite(betas)):
            raise ValueError("opt smoother needs finite betas")
        return cls(tuple(((2 * i - 3) / (2 * i + 1) if i > 1 else 0.0, (8 * i - 4) / (2 * i + 1),
                          float(beta)) for i, beta in enumerate(betas, start=1)))


def apply_smoother(A, B: DiagonalSmoother, x: np.ndarray | None, b: np.ndarray,
                   cfg: SmootherConfig, work=None) -> np.ndarray:
    """Run the configured smoother on ``x`` in place and return ``x``.

    ``x`` must be a float array the caller may overwrite, or ``None`` to
    start from zero.  ``b`` is only read.  ``work`` holds four float arrays
    of ``b``'s shape that the call overwrites: the iterate of a zero start
    (returned as ``x``), the recurrence residual ``r``, the update ``z``
    and a scratch ``t``; without it they are allocated once on entry.
    Besides these, each product with ``A`` allocates its result.  Work
    whose result is known is skipped, and each skip is exact in IEEE
    arithmetic:

    * ``z_0 = 0``, so the first step's ``a z + t`` is ``t`` (``z = t``);
    * ``a_i = 0`` (every ``simple`` step) gives ``z = t`` as well;
    * ``beta_i = 1`` (every ``simple`` and ``cheb4`` step) adds ``z`` to
      ``x`` without the product ``beta z``, which is ``z`` bit for bit;
    * from a zero start ``r_0 = b - A 0`` is ``b`` bit for bit, so the
      product with ``A`` is not formed.

    Every iterate therefore has the value the full recurrence gives, bit for
    bit except in one case: where the full recurrence adds ``+0.0`` to an
    entry that is exactly ``-0.0`` (making it ``+0.0``), the skip keeps the
    sign of that zero.
    """
    if x is not None and not cfg.steps:
        return x
    x0, r_out, z, t = [np.empty(b.shape) for _ in range(4)] if work is None else work
    if x is None:
        x, r = x0, b  # b is only read: the first update writes r_out
        x.fill(0.0)
    else:
        r = np.subtract(b, A @ x, out=r_out)
    inv_rho = 1.0 / B.rho_BA
    dinv = B.inverse_diagonal
    last = len(cfg.steps) - 1
    for i, (a, c, beta) in enumerate(cfg.steps):
        np.multiply(dinv, r, out=t)
        t *= c * inv_rho
        if i == 0 or a == 0.0:
            z, t = t, z  # the old z is free to be the next scratch
        else:
            z *= a
            z += t
        if beta == 1.0:
            x += z
        else:
            np.multiply(z, beta, out=t)
            x += t
        if i < last:  # the final residual update would be unused
            r = np.subtract(r, A @ z, out=r_out)
    return x

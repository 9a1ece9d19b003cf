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
* ``opt``: the ``cheb4`` constants with over-relaxation weights ``beta_i``,
  realizing ``p = sum_i ((beta_i - beta_{i+1})/(2i+1)) W_i(1-2 lam)``.

``cheb4`` is exactly ``opt`` with all betas equal to one and runs the same
operation sequence, so the equivalence is bitwise.  ``r_i`` tracks
``b - A (x_{i-1} + z_i)``; it is the residual of ``x_i`` only when
``beta_i = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiagonalSmoother",
    "SmootherConfig",
    "apply_smoother",
]


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
        if d.ndim != 1 or np.any(d <= 0.0):
            raise ValueError("inverse diagonal must be a positive 1-D array")
        object.__setattr__(self, "inverse_diagonal", d)
        if not self.rho_BA > 0.0:
            raise ValueError("rho(BA) must be positive")

    @property
    def n(self) -> int:
        return self.inverse_diagonal.shape[0]


@dataclass(frozen=True)
class SmootherConfig:
    """Selects a smoother variant and its degree.

    ``kind`` is one of ``"simple"``, ``"cheb4"``, ``"opt"``.  ``omega`` is
    required for ``simple``; ``betas`` (length ``k``) for ``opt``.  ``steps``
    holds the recurrence constants ``(a_i, c_i, beta_i)``, one per step.
    """

    kind: str
    k: int
    omega: float | None = None
    betas: np.ndarray | None = field(default=None, repr=False)
    steps: tuple[tuple[float, float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("simple", "cheb4", "opt"):
            raise ValueError(f"unknown smoother kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("polynomial degree must be nonnegative")
        if self.kind == "simple":
            if self.omega is None or not 0.0 < self.omega < 2.0:
                raise ValueError("simple smoother needs 0 < omega < 2")
            steps = ((0.0, float(self.omega), 1.0),) * self.k
        else:
            if self.k < 1:
                raise ValueError(f"{self.kind} smoother needs k >= 1")
            if self.kind == "cheb4":
                betas = np.ones(self.k)
            elif self.betas is None:
                raise ValueError("opt smoother needs its beta array")
            else:
                betas = np.asarray(self.betas, dtype=float)
                if betas.shape != (self.k,):
                    raise ValueError("need exactly k betas")
                object.__setattr__(self, "betas", betas)
            steps = tuple(((2 * i - 3) / (2 * i + 1), (8 * i - 4) / (2 * i + 1), float(beta))
                          for i, beta in enumerate(betas, start=1))
        object.__setattr__(self, "steps", steps)

    @classmethod
    def simple(cls, omega: float, k: int) -> "SmootherConfig":
        return cls(kind="simple", k=k, omega=omega)

    @classmethod
    def cheb4(cls, k: int) -> "SmootherConfig":
        return cls(kind="cheb4", k=k)

    @classmethod
    def optimized(cls, betas) -> "SmootherConfig":
        betas = np.asarray(betas, dtype=float)
        return cls(kind="opt", k=len(betas), betas=betas)


def apply_smoother(A, B: DiagonalSmoother, x: np.ndarray, b: np.ndarray,
                   cfg: SmootherConfig) -> np.ndarray:
    """Run the configured smoother on ``x`` in place and return ``x``.

    ``x`` must be a float array the caller may overwrite; ``b`` is only
    read.  Besides the products with ``A``, one call allocates three work
    vectors: the recurrence residual ``r``, the update ``z`` and a scratch
    ``t``.
    """
    if not cfg.steps:
        return x
    inv_rho = 1.0 / B.rho_BA
    dinv = B.inverse_diagonal
    r = b - A @ x
    z = np.zeros_like(x)
    t = np.empty_like(x)
    last = len(cfg.steps) - 1
    for i, (a, c, beta) in enumerate(cfg.steps):
        np.multiply(dinv, r, out=t)
        t *= c * inv_rho
        z *= a
        z += t
        np.multiply(z, beta, out=t)
        x += t
        if i < last:  # the final residual update would be unused
            r -= A @ z
    return x

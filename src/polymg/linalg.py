"""Sparse linear algebra shared by the solver stack.

Sparse matrices here are canonical CSR (``scipy.sparse.csr_array``, see
:func:`as_csr`); the multigrid level operators are matrix-free stencils
(:class:`~polymg.fem.Q1Operator`), which :func:`lanczos_max` uses only
through ``M @ v``.  Vectors are 1-D float64 arrays.  Everything here is
deterministic: SpMV accumulates in stored order, and iterative estimates
start from a vector the caller passes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

__all__: list[str] = []


def as_csr(A) -> sp.csr_array:
    """Return ``A`` as a canonical CSR array (sorted indices, summed duplicates)."""
    A = sp.csr_array(A)
    A.sum_duplicates()
    A.sort_indices()
    return A


class LanczosResult(NamedTuple):
    """Largest-eigenvalue estimate from :func:`lanczos_max`."""

    value: float
    converged: bool
    iterations: int
    residual: float


# Steps between Ritz checks; one check costs O(j) against O(n) per step.
_CHECK_EVERY = 5
# A remainder this small relative to the step's coefficients is rounding
# noise: the Krylov space is invariant and the Ritz values are exact.
_BREAKDOWN = float(np.sqrt(np.finfo(float).eps))


def lanczos_max(
    apply: Callable[[np.ndarray], np.ndarray],
    M,
    x0: np.ndarray,
    *,
    tol: float,
    max_iter: int,
) -> LanczosResult:
    """Upper estimate of the largest eigenvalue of an ``M``-self-adjoint operator.

    Plain three-term Lanczos from ``x0`` (left unchanged) in the inner
    product of the SPD operator ``M`` (anything with ``M @ v``).  It keeps
    ``M``'s images of its three stored vectors, so a step costs one
    ``apply`` and one product with ``M``; there is no reorthogonalisation
    (lost orthogonality only adds ghost copies of converged Ritz values).
    Every few steps the top Ritz value ``theta`` and its residual bound
    ``r = beta_j |s_j|`` are formed; the run stops once ``r <= tol * theta``
    or on breakdown.  Ritz values approach the top eigenvalue from below and
    an eigenvalue lies within ``r`` of ``theta``, so ``value = theta + r`` is
    an upper estimate, not a certificate.  Exhausting ``max_iter`` returns
    the last estimate with ``converged=False``.
    """
    # imported at its one use: scipy.linalg loads scipy's bundled OpenBLAS, about 8 MB of RSS
    import scipy.linalg

    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    Mq = M @ x0
    norm = float(np.sqrt(x0 @ Mq))
    if not 0.0 < norm < np.inf:
        raise ValueError("x0 must have a nonzero, finite M-norm")
    q, Mq = x0 / norm, Mq / norm
    q_prev, b = np.zeros_like(q), 0.0
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(1, max_iter + 1):
        w = apply(q)
        a = float(Mq @ w)
        w = w - a * q  # a new array: ``apply`` may return its argument
        w -= b * q_prev
        Mw = M @ w
        alpha.append(a)
        b_prev, b = b, float(np.sqrt(max(w @ Mw, 0.0)))
        breakdown = b <= _BREAKDOWN * (abs(a) + b_prev)
        if breakdown or j % _CHECK_EVERY == 0 or j == max_iter:
            theta, s = scipy.linalg.eigh_tridiagonal(
                alpha, beta, select="i", select_range=(j - 1, j - 1))
            r = b * abs(float(s[-1, 0]))
            converged = breakdown or r <= tol * abs(theta[0])
            if converged or j == max_iter:
                return LanczosResult(float(theta[0]) + r, bool(converged), j, r)
        beta.append(b)
        q_prev, q, Mq = q, w / b, Mw / b


"""Sparse and dense linear algebra shared by the solver stack.

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
import scipy.io
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "LanczosResult",
    "CholeskySolver",
    "as_csr",
    "validate_csr",
    "lanczos_max",
    "save_matrix_market",
    "load_matrix_market",
]


def as_csr(A) -> sp.csr_array:
    """Return ``A`` as a canonical CSR array (sorted indices, summed duplicates)."""
    A = sp.csr_array(A)
    A.sum_duplicates()
    A.sort_indices()
    return A


def validate_csr(A, symmetric: bool = False, tol: float = 0.0) -> None:
    """Check CSR structural invariants, raising ``ValueError`` on violation.

    Verifies monotone row offsets and strictly increasing column indices
    within each row (which also rules out duplicates).  With ``symmetric``,
    additionally requires ``max|A - A^T| <= tol``.
    """
    if not sp.issparse(A) or A.format != "csr":
        raise ValueError("expected a CSR matrix")
    n_rows, n_cols = A.shape
    indptr, indices = A.indptr, A.indices
    if len(indptr) != n_rows + 1 or indptr[0] != 0 or indptr[-1] != len(indices):
        raise ValueError("row offsets are inconsistent with the index array")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("row offsets must be nondecreasing")
    row_of = np.repeat(np.arange(n_rows), np.diff(indptr))
    bad = (indices < 0) | (indices >= n_cols)
    bad[1:] |= (np.diff(indices) <= 0) & (np.diff(row_of) == 0)
    if bad.any():
        row = row_of[np.argmax(bad)]
        raise ValueError(f"row {row}: column indices not strictly increasing in range")
    if symmetric:
        if n_rows != n_cols:
            raise ValueError("symmetry requires a square matrix")
        diff = (A - A.T).tocoo()
        err = np.max(np.abs(diff.data)) if diff.nnz else 0.0
        if err > tol:
            raise ValueError(f"matrix is not symmetric: max|A - A^T| = {err:.3e}")


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
    tol: float = 1e-10,
    max_iter: int = 5000,
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


class CholeskySolver:
    """Cached dense Cholesky factorization of an SPD matrix."""

    def __init__(self, M: np.ndarray):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("expected a square dense matrix")
        if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(M))))):
            raise ValueError("matrix is not symmetric")
        try:
            self._factor = scipy.linalg.cho_factor(M, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError("matrix is not SPD (non-positive pivot)") from exc
        self.n = M.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError("right-hand side length mismatch")
        return scipy.linalg.cho_solve(self._factor, b)


def save_matrix_market(path, A) -> None:
    """Export a symmetric sparse matrix in Matrix Market coordinate format.

    Writes 1-based indices with a
    ``%%MatrixMarket matrix coordinate real symmetric`` header (lower
    triangle stored).
    """
    A = as_csr(A)
    validate_csr(A, symmetric=True, tol=1e-12 * max(1.0, float(np.max(np.abs(A.data)))))
    scipy.io.mmwrite(str(path), sp.coo_matrix(A), field="real", symmetry="symmetric")


def load_matrix_market(path) -> sp.csr_array:
    """Import a Matrix Market file written by :func:`save_matrix_market`."""
    return as_csr(scipy.io.mmread(str(path)))

"""Optimal polynomial smoothers by equioscillation.

For degree ``k`` the optimal smoother polynomial minimizes
``sup_lam lam p(lam)^2 / (1 - p(lam)^2)`` over polynomials with
``p(0) = 1``.  At the optimum the function ``f = sqrt(w) p`` with
``w(lam) = lam / (1 - p(lam)^2)`` equioscillates: ``|f|`` attains its
value at ``lam -> 0`` again at the k-1 interior extrema between
consecutive roots and at ``lam = 1``.  A Newton iteration on the root
vector enforces those k equalities; each evaluation needs the interior
extrema, themselves located by a safeguarded inner Newton on
``g = (1 - p^2)/2 + lam p'/p``, whose zeros are the extrema of ``f``.

The resulting polynomial is realized as an iteration through its
expansion in fourth-kind Chebyshev polynomials: with
``p = sum_j alpha_j W_j(1 - 2 lam)``, the over-relaxation weights follow
the backward recursion ``beta_j = beta_{j-1} - (2j-1) alpha_{j-1}`` from
``beta_0 = 1``, and consistency requires ``beta_{k+1} = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import PolynomialSpec

__all__ = [
    "EquioscillationState",
    "find_extrema",
    "optimal_roots",
    "cheb4_expansion",
    "opt_betas",
    "optimal_polynomial",
    "quadrature_nodes_weights",
]

_MAX_DEGREE = 200  # initial guesses are validated for 1 <= k <= 200
_NEWTON_TOL = 1e-14  # equioscillation residual, and step size of the extremum search
_NEWTON_MAX_ITER = 100  # iteration cap of both Newton solves
_BETA_RESIDUAL_TOL = 1e-8  # largest accepted |beta_(k+1)|, which should vanish


def _p_eval(lam, roots):
    lam = np.asarray(lam, dtype=float)
    return np.prod(1.0 - lam[..., None] / roots, axis=-1)


def _g_and_slope(x, roots):
    """``g(x)`` and ``-g'(x)`` from one ``p(x)`` and one ``x - r`` array.

    ``-g'(x) = sum_i (1/(x - r_i)) [p(x)^2 + r_i/(x - r_i)]``.
    """
    d = x[..., None] - roots
    p = _p_eval(x, roots)
    g = 0.5 * (1.0 - p ** 2) + x * np.sum(1.0 / d, axis=-1)
    return g, np.sum((p[..., None] ** 2 + roots / d) / d, axis=-1)


def find_extrema(roots, guesses=None) -> np.ndarray:
    """Locate the k-1 extrema of ``f`` strictly between consecutive roots.

    Runs a bracket-safeguarded Newton iteration on ``g`` simultaneously for
    all gaps; ``g`` decreases from ``+inf`` to ``-inf`` across each gap, so
    the sign of ``g`` updates the brackets and any step leaving its bracket
    falls back to bisection.  A gap whose Newton step is within
    ``_NEWTON_TOL`` (relative to ``max(1, |x|)``) has converged: the step is
    taken as it is and never replaced by a bisection, even when it lands on
    the bracket end that its own iterate just set, as in ``rtsafe`` (Press
    et al., *Numerical Recipes*, section 9.4).  The search returns once
    every gap's step is that small.  Roots must be finite, positive and
    strictly increasing.
    """
    roots = np.asarray(roots, dtype=float)
    if not np.all(np.isfinite(roots)) or np.any(roots <= 0.0):
        raise ValueError("roots must be finite and positive")
    k = len(roots)
    if k < 2:
        return np.empty(0)
    if np.any(np.diff(roots) <= 0.0):
        raise ValueError("roots must be strictly increasing")
    lo = roots[:-1].copy()
    hi = roots[1:].copy()
    if guesses is None:
        x = 0.5 * (lo + hi)
    else:
        x = np.asarray(guesses, dtype=float).copy()
        if x.shape != (k - 1,) or not np.all(np.isfinite(x)):
            raise ValueError("need k-1 finite extremum guesses")
        margin = 1e-3 * (hi - lo)
        x = np.clip(x, lo + margin, hi - margin)
    for _ in range(_NEWTON_MAX_ITER):
        gx, neg_slope = _g_and_slope(x, roots)
        pos = gx > 0.0
        lo = np.where(pos, x, lo)
        hi = np.where(pos, hi, x)
        step = gx / neg_slope
        converged = np.abs(step) <= _NEWTON_TOL * np.maximum(1.0, np.abs(x))
        x_new = x + step
        if np.all(converged):
            return x_new
        outside = ~converged & ((x_new <= lo) | (x_new >= hi))
        x = np.where(outside, 0.5 * (lo + hi), x_new)
    raise RuntimeError(f"extremum search did not converge in {_NEWTON_MAX_ITER} iterations")


@dataclass(frozen=True)
class EquioscillationState:
    """Converged equioscillation data for the optimal degree-k polynomial."""

    degree: int
    roots: np.ndarray
    extrema: np.ndarray  # interior only; lam = 1 is the implicit last extremum
    f0: float            # equioscillation level, f(0) = (2 sum_i 1/r_i)^{-1/2}
    residual: float      # final max |f(0) - |f(x_i)||
    iterations: int

    @property
    def gamma_inv(self) -> float:
        return 2.0 * float(np.sum(1.0 / self.roots))


def optimal_roots(k: int) -> EquioscillationState:
    """Solve the equioscillation system for the optimal degree-k roots.

    Newton's method on the k residuals ``F_i = f(0) - |f(x_i)|`` (with
    ``x_k = 1`` fixed and interior extrema re-solved every step, warm
    started from the previous iterate).  Initial roots and extrema are
    Chebyshev points of the fourth-kind pattern, which converge for every
    ``k`` in the supported range.  Stagnation at the double-precision floor
    (residual below 1e-11 that stops improving) is accepted and recorded.
    """
    if not 1 <= k <= _MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {_MAX_DEGREE}]")
    i = np.arange(1, k + 1)
    r = 0.5 - 0.5 * np.cos(i * np.pi / (k + 0.5))
    x_int = (0.5 - 0.5 * np.cos((i + 0.5) * np.pi / (k + 0.5)))[: k - 1]
    best = np.inf
    stall = 0
    for outer in range(1, _NEWTON_MAX_ITER + 1):
        x_int = find_extrema(r, x_int)
        xs = np.concatenate([x_int, [1.0]])
        f0 = (2.0 * np.sum(1.0 / r)) ** -0.5
        p_xs = _p_eval(xs, r)
        w = xs / (1.0 - p_xs ** 2)
        f_abs = np.sqrt(w) * np.abs(p_xs)
        F = f0 - f_abs
        res = float(np.max(np.abs(F)))
        if res < _NEWTON_TOL:
            return EquioscillationState(k, r, x_int, float(f0), res, outer)
        if res >= 0.5 * best:
            stall += 1
            if stall >= 2:
                if best <= 1e-11:
                    return EquioscillationState(k, r, x_int, float(f0), res, outer)
                raise RuntimeError(
                    f"equioscillation Newton stalled at residual {res:.3e} for k={k}"
                )
        else:
            stall = 0
        best = min(best, res)
        # J_ij = f(0)^3 / r_j^2 + w(x_i) |f(x_i)| / (r_j (x_i - r_j))
        J = f0 ** 3 / r[None, :] ** 2 \
            + (w * f_abs)[:, None] / (r[None, :] * (xs[:, None] - r[None, :]))
        r = r + np.linalg.solve(J, -F)
        if np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0) or r[-1] >= 1.0:
            raise RuntimeError(f"Newton step left the feasible root region for k={k}")
    raise RuntimeError(f"equioscillation Newton did not converge in {_NEWTON_MAX_ITER} iterations")


def quadrature_nodes_weights(k: int):
    """Gauss nodes/weights for the fourth-kind Chebyshev weight on [-1, 1].

    ``(1/pi) int sqrt((1-x)/(1+x)) f(x) dx ~= sum_i w_i f(x_i)`` with
    ``x_i = cos(i pi / (k + 1/2))`` (the roots of ``W_k``) and
    ``w_i = (1 - x_i) / (k + 1/2)``; exact for polynomials of degree
    ``<= 2k - 1``.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    i = np.arange(1, k + 1)
    x = np.cos(i * np.pi / (k + 0.5))
    w = (1.0 - x) / (k + 0.5)
    return x, w


def cheb4_expansion(state: EquioscillationState) -> np.ndarray:
    """Expansion coefficients ``alpha_0..alpha_k`` of ``p`` in ``W_j(1-2 lam)``.

    The first k coefficients come from Gauss quadrature against the
    orthonormal ``W_j``.  The quadrature nodes are the roots of ``W_k``, so
    it returns 0 for ``alpha_k``; that coefficient instead comes from the
    leading monomial coefficient: ``alpha_k = 1 / (4^k prod_i r_i)``.
    """
    k = state.degree
    x, w = quadrature_nodes_weights(k)
    p_at_nodes = _p_eval(0.5 * (1.0 - x), state.roots)
    alphas = np.zeros(k + 1)
    basis_prev = np.ones_like(x)
    alphas[0] = np.sum(w * basis_prev * p_at_nodes)
    if k >= 2:
        basis_cur = 2.0 * x + 1.0
        alphas[1] = np.sum(w * basis_cur * p_at_nodes)
        for j in range(2, k):
            basis_prev, basis_cur = basis_cur, 2.0 * x * basis_cur - basis_prev
            alphas[j] = np.sum(w * basis_cur * p_at_nodes)
    alphas[k] = 1.0 / (4.0 ** k * np.prod(state.roots))
    return alphas


def opt_betas(state: EquioscillationState) -> np.ndarray:
    """Over-relaxation weights ``beta_1..beta_k`` realizing the optimal polynomial.

    ``beta_{j+1} = beta_j - (2j+1) alpha_j`` from ``beta_0 = 1``; the
    terminal value ``beta_{k+1}`` must vanish; ``|beta_{k+1}| <= 1e-8`` is
    checked as an internal consistency test of the expansion.
    """
    return _betas_from_expansion(cheb4_expansion(state))


def _betas_from_expansion(alphas: np.ndarray) -> np.ndarray:
    k = len(alphas) - 1
    betas = np.zeros(k + 2)
    betas[0] = 1.0
    for j in range(k + 1):
        betas[j + 1] = betas[j] - (2 * j + 1) * alphas[j]
    if abs(betas[k + 1]) > _BETA_RESIDUAL_TOL:
        raise ValueError(
            f"expansion inconsistent: beta_(k+1) = {betas[k + 1]:.3e}"
            f" exceeds {_BETA_RESIDUAL_TOL:.1e}"
        )
    return betas[1 : k + 1]


def optimal_polynomial(k: int) -> PolynomialSpec:
    """Optimal degree-k smoother polynomial with roots, expansion, and betas."""
    state = optimal_roots(k)
    alphas = cheb4_expansion(state)
    betas = _betas_from_expansion(alphas)
    return PolynomialSpec(
        degree=k, roots=state.roots, cheb4_coeffs=alphas, iteration_betas=betas
    )

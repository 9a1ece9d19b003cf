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
Newton starts from the asymptotic law of the optimal roots,
``arcsin(sqrt(r_i)) ~ (i pi/(2k+1)) sqrt(1 - 1/(4 i^2))``, whose sum
gives the leading term ``1/gamma ~ (4/pi^2)(2k+1)^2``.
:class:`~polymg.poly.PolynomialSpec` of the roots computes the expansion
and iteration betas that realize the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import PolynomialSpec, _check_degree, _check_roots, _signed_p

__all__ = [
    "EquioscillationState",
    "find_extrema",
    "optimal_roots",
    "optimal_polynomial",
]

_MAX_DEGREE = 200  # initial guesses are validated for 1 <= k <= 200
_NEWTON_TOL = 1e-14  # equioscillation residual, and step size of the extremum search
_NEWTON_MAX_ITER = 100  # iteration cap of both Newton solves


def _g_and_slope(x, roots):
    """``g(x)`` and ``-g'(x)`` from one array: ``p`` from ``q = x - r``, then ``q = 1/(x - r)``.

    ``g = (1 - p^2)/2 + x sum_i q_i`` and ``-g' = p^2 sum_i q_i + sum_i r_i q_i^2``;
    both sums are BLAS gemv, whose last bits depend on the BLAS thread count.
    """
    q = x[..., None] - roots
    p2 = _signed_p(q, roots) ** 2
    np.reciprocal(q, out=q)
    s = q @ np.ones(len(roots))
    np.square(q, out=q)
    return 0.5 * (1.0 - p2) + x * s, p2 * s + q @ roots


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
    strictly increasing, and their product a normal float (``g`` divides by it).
    """
    roots = np.asarray(roots, dtype=float)
    _check_roots(roots)
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


def _asymptotic_start(i, k):
    """``sin^2(theta sqrt(1 - 1/(4 i^2)))`` with ``theta = i pi/(2k+1)``.

    At integer ``i`` this is the optimal roots' asymptotic law (the angle
    is also ``sqrt(theta_i^2 - (theta_1/2)^2)``); at ``i + 1/2`` it places
    the interior extrema between those roots.
    """
    theta = i * np.pi / (2 * k + 1)
    return np.sin(theta * np.sqrt(1.0 - 0.25 / (i * i))) ** 2


@dataclass(frozen=True)
class EquioscillationState:
    """Converged equioscillation data for the optimal degree-k polynomial."""

    degree: int
    roots: np.ndarray
    extrema: np.ndarray  # interior only; lam = 1 is the implicit last extremum
    f0: float            # equioscillation level, f(0) = (2 sum_i 1/r_i)^{-1/2}
    residual: float      # max |f(0) - |f(x_i)|| at these roots
    iterations: int

    @property
    def gamma_inv(self) -> float:
        return 2.0 * float(np.sum(1.0 / self.roots))


def optimal_roots(k: int) -> EquioscillationState:
    """Solve the equioscillation system for the optimal degree-k roots.

    Newton's method on the k residuals ``F_i = f(0) - |f(x_i)|`` (with
    ``x_k = 1`` fixed and interior extrema re-solved every step, warm
    started from the previous iterate).  Initial roots and extrema come
    from the roots' asymptotic law (:func:`_asymptotic_start` at ``i`` and
    ``i + 1/2``), which converges for every ``k`` in the supported range,
    in 4 to 7 steps.  Stagnation at the double-precision floor
    (residual below 1e-11 that stops improving) is accepted: the iterate
    of least residual is returned, with ``iterations`` counting every step.
    """
    _check_degree(k)
    if k > _MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {_MAX_DEGREE}]")
    r = _asymptotic_start(np.arange(1, k + 1), k)
    x_int = _asymptotic_start(np.arange(1, k) + 0.5, k)
    best = None  # (residual, roots, extrema, f0) of the least-residual iterate so far
    stall = 0
    for outer in range(1, _NEWTON_MAX_ITER + 1):
        x_int = find_extrema(r, x_int)
        xs = np.concatenate([x_int, [1.0]])
        f0 = (2.0 * np.sum(1.0 / r)) ** -0.5
        diff = xs[:, None] - r
        p_xs = _signed_p(diff, r)
        w = xs / (1.0 - p_xs ** 2)
        f_abs = np.sqrt(w) * np.abs(p_xs)
        F = f0 - f_abs
        res = float(np.max(np.abs(F)))
        stall = stall + 1 if best is not None and res >= 0.5 * best[0] else 0
        if best is None or res < best[0]:
            best = res, r, x_int, float(f0)
        if res < _NEWTON_TOL or (stall >= 2 and best[0] <= 1e-11):
            res, r, x_int, f0 = best
            return EquioscillationState(k, r, x_int, f0, res, outer)
        if stall >= 2:
            raise RuntimeError(f"equioscillation Newton stalled at residual {res:.3e} for k={k}")
        # J_ij = f(0)^3 / r_j^2 + w(x_i) |f(x_i)| / (r_j (x_i - r_j))
        J = f0 ** 3 / r ** 2 + (w * f_abs)[:, None] / (r * diff)
        r = r + np.linalg.solve(J, -F)
        if np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0) or r[-1] >= 1.0:
            raise RuntimeError(f"Newton step left the feasible root region for k={k}")
    raise RuntimeError(f"equioscillation Newton did not converge in {_NEWTON_MAX_ITER} iterations")


def optimal_polynomial(k: int) -> PolynomialSpec:
    """Optimal degree-k smoother polynomial with roots, expansion, and betas."""
    return PolynomialSpec(optimal_roots(k).roots)

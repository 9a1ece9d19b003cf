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
The Newton Jacobian is a Cauchy matrix in the extrema and the roots,
scaled on both sides, plus a rank-one term, so each step is solved in
closed form in O(k^2), with no dense factorisation.
Newton starts from the asymptotic law of the optimal roots,
``arcsin(sqrt(r_i)) ~ (i pi/(2k+1)) sqrt(1 - 1/(4 i^2))``, whose sum
gives the leading term ``1/gamma ~ (4/pi^2)(2k+1)^2``, plus a measured
``O((2k+1)^-2)`` correction that brings the start within 1e-8 relative
of the roots at k=200.
:class:`~polymg.poly.PolynomialSpec` of the roots computes the expansion
and iteration betas that realize the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import PolynomialSpec, _check_degree, _check_roots, _signed_p

__all__ = ["EquioscillationState", "optimal_roots", "optimal_polynomial"]

_MAX_DEGREE = 200  # initial guesses are validated for 1 <= k <= 200
_NEWTON_TOL = 1e-14  # equioscillation residual, and step size of the extremum search
_NEWTON_MAX_ITER = 100  # iteration cap of both Newton solves
_TINY = np.finfo(float).tiny  # the least normal float


def _g_and_slope(x, roots):
    """``g(x)``, ``-g'(x)`` at 1-D ``x``: ``p`` from roots-major ``d = x - r``, then ``q = 1/d.T``.

    ``g = (1 - p^2)/2 + x sum_i q_i`` and ``-g' = p^2 sum_i q_i + sum_i r_i q_i^2``; both
    sums are gemv on points-major ``q``, whose last bits depend on the BLAS thread count.
    """
    d = x - roots[:, None]
    p2 = _signed_p(d, roots) ** 2
    q = np.reciprocal(d.T, order="C")
    s = q @ np.ones(len(roots))
    np.square(q, out=q)
    return 0.5 * (1.0 - p2) + x * s, p2 * s + q @ roots


def find_extrema(roots, guesses=None) -> np.ndarray:
    """Locate the k-1 extrema of ``f`` strictly between consecutive roots.

    Checks its input, then runs the search that :func:`optimal_roots` calls
    directly on its own iterates, :func:`_search`.  Roots must be finite,
    positive and strictly increasing, and their product a normal float
    (``g`` divides by it); the k-1 guesses, when given, must be finite.
    The search starts from the gap midpoints, or from the guesses, each
    clipped to the inner 99.8% of its gap.
    """
    roots = np.asarray(roots, dtype=float)
    _check_roots(roots)
    k = len(roots)
    if k < 2:
        return np.empty(0)
    if np.any(np.diff(roots) <= 0.0):
        raise ValueError("roots must be strictly increasing")
    if guesses is None:
        return _search(roots, 0.5 * (roots[:-1] + roots[1:]))
    x = np.asarray(guesses, dtype=float)
    if x.shape != (k - 1,) or not np.all(np.isfinite(x)):
        raise ValueError("need k-1 finite extremum guesses")
    return _search(roots, x)


def _search(roots, x):
    """The extrema of ``f`` from checked, increasing ``roots`` and one start point per gap.

    Runs a bracket-safeguarded Newton iteration on ``g`` simultaneously for
    all gaps; ``g`` decreases from ``+inf`` to ``-inf`` across each gap, so
    the sign of ``g`` updates the brackets and any step leaving its bracket
    falls back to bisection.  A gap whose Newton step is within
    ``_NEWTON_TOL`` (relative to ``max(1, |x|)``) has converged: the step is
    taken as it is and never replaced by a bisection, even when it lands on
    the bracket end that its own iterate just set, as in ``rtsafe`` (Press
    et al., *Numerical Recipes*, section 9.4).  The search returns once
    every gap's step is that small.  No input is checked here.
    """
    if len(roots) < 2:
        return np.empty(0)
    lo, hi = roots[:-1], roots[1:]
    margin = 1e-3 * (hi - lo)
    x = np.minimum(np.maximum(x, lo + margin), hi - margin)
    for _ in range(_NEWTON_MAX_ITER):
        gx, neg_slope = _g_and_slope(x, roots)
        pos = gx > 0.0
        lo = np.where(pos, x, lo)
        hi = np.where(pos, hi, x)
        step = gx / neg_slope
        converged = np.abs(step) <= _NEWTON_TOL * np.maximum(1.0, np.abs(x))
        x_new = x + step
        if converged.all():
            return x_new
        outside = ~converged & ((x_new <= lo) | (x_new >= hi))
        x = np.where(outside, 0.5 * (lo + hi), x_new)
    raise RuntimeError(f"extremum search did not converge in {_NEWTON_MAX_ITER} iterations")


def _asymptotic_start(i, k):
    """``sin^2(theta (sqrt(1 - 1/(4 i^2)) + g/(2k+1)^2))`` with ``theta = i pi/(2k+1)``.

    At integer ``i`` this is the optimal roots' asymptotic law; at ``i + 1/2``
    it places the interior extrema between those roots.  The leading angle
    ``theta sqrt(1 - 1/(4 i^2))`` is also ``sqrt(theta_i^2 - (theta_1/2)^2)``.
    The correction, with ``t = 2 theta/pi``, is
    ``g = (pi^2/24)(1 - 2/(15 i^2)) + (1/2 - pi^2/24 - b) t^2 + b t^4``,
    ``b = 0.024``; its coefficients are measured, not derived.  The ratio
    ``(arcsin(sqrt(r_i)) - theta sqrt(1 - 1/(4 i^2))) (2k+1)^2 / theta`` of
    the converged roots reads 0.356 at i=1 and tends to 0.4112 ~ pi^2/24 at
    small t, to 3 digits at k = 50, 100 and 200, and rises to 0.4994 at
    i=k=200; ``b`` is its least-squares t^4 term at k=200.  The start is
    then within 1.4e-7 relative of the roots at k=50 and 8.4e-9 at k=200.
    """
    n = 2 * k + 1
    theta = i * np.pi / n
    t2 = (2.0 * i / n) ** 2
    c, b = np.pi ** 2 / 24, 0.024
    g = c * (1.0 - 2.0 / (15.0 * i * i)) + (0.5 - c - b) * t2 + b * t2 * t2
    return np.sin(theta * (np.sqrt(1.0 - 0.25 / (i * i)) + g / (n * n))) ** 2


def _newton_step(r, xs, diff, F, a, f0):
    """The Newton step ``d`` of the roots, ``J d = -F``, in O(k^2); overwrites ``diff``.

    ``J_ij = f0^3/r_j^2 + a_i/(r_j (x_i - r_j))`` is ``1 u^T + D_a C D_{1/r}``
    with the Cauchy matrix ``C_ij = 1/(x_i - r_j)`` and ``u = f0^3/r^2``.
    ``C`` has the closed-form inverse ``C^-1_ji = -beta_j alpha_i/(x_i - r_j)``
    (Schechter, *MTAC* 13, 1959), with
    ``alpha_i = prod_l (x_i - r_l) / prod_{l != i} (x_i - x_l)`` and
    ``beta_j = prod_l (r_j - x_l) / prod_{l != j} (r_j - r_l)``, each taken
    termwise over ratios, which the interlacing of roots and extrema keeps
    of order 1, so that nothing under- or overflows (the products of the
    differences alone reach 1e-300 at k=500).  ``D_{1/r}^-1 C^-1 D_a^-1``
    is applied to ``-F`` and ``1`` as one k x k by k x 2 product on
    ``1/diff`` (roots-major, ``diff[j, i] = x_i - r_j``); Sherman-Morrison
    then adds the rank-one term ``1 u^T``.
    """
    k = len(r)
    work = xs - xs[:, None]  # work[l, i] = x_i - x_l, set to 1 at l = i
    work.flat[::k + 1] = 1.0
    alpha = np.divide(diff, work, out=work).prod(axis=0)
    # (r_j - x_l)/(r_j - r_l) = diff[j, l]/(r_l - r_j); at l = j, r_j - x_j = diff[j, j]/-1
    np.subtract(r[:, None], r, out=work)
    work.flat[::k + 1] = -1.0
    beta = np.divide(diff.T, work, out=work).prod(axis=0)
    np.reciprocal(diff, out=diff)
    rhs = np.empty((k, 2))
    np.negative(F, out=rhs[:, 0])
    rhs[:, 1] = 1.0
    rhs *= (alpha / a)[:, None]
    z = (diff @ rhs) * (-beta * r)[:, None]  # (D_a C D_{1/r})^-1 applied to -F and 1
    uz = (f0 ** 3 / r ** 2) @ z
    return z[:, 0] - z[:, 1] * (uz[0] / (1.0 + uz[1]))


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
    ``x_k = 1`` fixed and interior extrema re-solved every step), each step
    solved from the Jacobian's Cauchy structure by :func:`_newton_step`.
    Each iterate is checked once, here: roots increasing in ``(0, 1)``,
    NaN-free, with a product in the normal range, else ``RuntimeError``;
    the extrema then come from :func:`_search`, the loop that
    :func:`find_extrema` runs after checking its input again.
    The extremum search of the next step is warm started from the previous
    extrema, each moved by the mean step of its two neighbouring roots
    (1042 evaluations of ``g`` over k = 1..200; 1129 without the move).
    Initial roots and extrema come
    from the roots' asymptotic law (:func:`_asymptotic_start` at ``i`` and
    ``i + 1/2``), which converges for every ``k`` in the supported range,
    in 2 to 4 steps (587 over k = 1..200).  Stagnation at the
    double-precision floor (residual below 1e-11 that stops improving) is
    accepted: the iterate of least residual is returned, with ``iterations``
    counting every step.
    """
    _check_degree(k)
    if k > _MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {_MAX_DEGREE}]")
    r = _asymptotic_start(np.arange(1, k + 1), k)
    x_int = _asymptotic_start(np.arange(1, k) + 0.5, k)
    xs = np.ones(k)  # the interior extrema, then x_k = 1
    best = None  # (residual, roots, extrema, f0) of the least-residual iterate so far
    stall = 0
    for outer in range(1, _NEWTON_MAX_ITER + 1):
        # roots increasing in (0, 1), where a NaN fails every comparison, whose
        # product, the divisor of p, is a normal float
        prod_r = r.prod() if r[0] > 0.0 and r[-1] < 1.0 and (r[:-1] < r[1:]).all() else 0.0
        if prod_r < _TINY:
            raise RuntimeError(f"Newton step left the feasible root region for k={k}")
        x_int = _search(r, x_int)
        xs[:-1] = x_int
        f0 = (2.0 * (1.0 / r).sum()) ** -0.5
        diff = xs - r[:, None]  # roots-major: diff[j, i] = x_i - r_j
        p_xs = diff.prod(axis=0) / prod_r  # _signed_p(diff, r) on this step's product
        w = xs / (1.0 - p_xs ** 2)
        f_abs = np.sqrt(w) * np.abs(p_xs)
        F = f0 - f_abs
        res = float(np.abs(F).max())
        stall = stall + 1 if best is not None and res >= 0.5 * best[0] else 0
        if best is None or res < best[0]:
            best = res, r, x_int, float(f0)
        if res < _NEWTON_TOL or (stall >= 2 and best[0] <= 1e-11):
            res, r, x_int, f0 = best
            return EquioscillationState(k, r, x_int, f0, res, outer)
        if stall >= 2:
            raise RuntimeError(f"equioscillation Newton stalled at residual {res:.3e} for k={k}")
        step = _newton_step(r, xs, diff, F, w * f_abs, f0)
        r = r + step
        x_int = x_int + 0.5 * (step[:-1] + step[1:])  # each extremum moves with its two roots
    raise RuntimeError(f"equioscillation Newton did not converge in {_NEWTON_MAX_ITER} iterations")


def optimal_polynomial(k: int) -> PolynomialSpec:
    """Optimal degree-k smoother polynomial with roots, expansion, and betas."""
    return PolynomialSpec(optimal_roots(k).roots)

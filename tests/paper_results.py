"""Side results of the paper's derivations that ``polymg`` prints none of.

The source paper (arXiv 2202.08830) derives the sharpened Chebyshev bound
``C' / (C' + (4/3) k (k+1))`` with ``C' = C - beta f(C, k)`` from spectrum-split
constants, and the range of dampings for which the damped-Jacobi bound holds.
The library keeps only the closed-form results, ``polymg.bounds.beta_constant``
and ``omega_condition_holds``; the derivations' numbers live here, as oracles:

* ``SharpConstants``, ``sharp_constants(k)`` and ``limit_constants()``: the
  constants ``(w, phi*, lambda*, y)`` at degree k and at k -> infinity, where
  ``beta = 1 - y``.  Read by acceptance check 04 and ``test_bounds.py``, which
  ties ``beta_constant()`` to ``1 - limit_constants().y`` bit for bit.
* ``cheb_sharp_exact_discount(C, k)`` and its factor ``sharp_g_factor(C)``: the
  exact discount ``C - C'`` that the closed-form ``beta f`` underestimates.
  Read by acceptance check 10 and ``test_bounds.py``.
* ``crossover_C()``: the ``C ~ 3.67`` below which the sharp Chebyshev bound
  beats the optimal-polynomial conjecture at large k.  Read by acceptance
  check 09 and ``test_bounds.py``.
* ``omega_max_exact(k)`` and ``omega_max_asymptotic(k)``: the largest damping
  that satisfies the validity condition, by bisection, and its asymptotic law
  ``2 - log(4k)/(2k)``.  Read by acceptance check 11 and ``test_bounds.py``.
* ``bisect_root``: the bisection behind them, also a reference for the
  interior extrema of ``polymg.optpoly`` in ``test_optpoly.py``.
* ``gamma_mu(p)``: the smoothing functional ``sup lam p^2 / (1 - p^2)`` of a
  polynomial by grid search and golden section, with ``one_minus(p, lam)``,
  ``1 - p`` free of cancellation near 0.  The library reads gamma only in
  closed form and as ``optimal_roots(k).gamma_inv``; check 08,
  ``test_poly.py``, ``test_optpoly.py`` and ``test_multigrid.py`` tie those
  to this sup.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from polymg.bounds import _check_c, beta_constant, golden_section_min
from polymg.poly import PolynomialSpec, _check_degree

_GAMMA_GRID_PER_DEGREE = 64  # gamma_mu scans 64 (k + 1) Chebyshev-spaced points


def bisect_root(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-14
) -> float:
    """Find a root of ``f`` on ``[a, b]`` by bisection.

    Requires a sign change over the bracket; raises ``ValueError`` with the
    endpoint values otherwise.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa:.6e}, f(b)={fb:.6e}")
    while (b - a) > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def omega_max_asymptotic(k: int) -> float:
    """Asymptotic largest valid damping, ``2 - log(4k)/(2k)`` (up to o(1/k)).

    With ``L = log(4k)``, the exact value (:func:`omega_max_exact`) exceeds
    this one by ``(L**2 + L - 1) / (8 k**2) - (4 L**3 + 15 L**2 - 9) / (192 k**3)``
    up to ``O(L**4 / k**4)``: 1.8e-2, 1.6e-3 and 5.0e-4 at k = 10, 50 and
    100. The remainder is o(1/k) but, for moderate k, larger than a fixed
    ``c/k`` budget such as 0.05/k.
    """
    _check_degree(k)
    return 2.0 - math.log(4.0 * k) / (2.0 * k)


def omega_max_exact(k: int) -> float:
    """Largest omega satisfying the validity condition, by bisection."""
    _check_degree(k)
    return bisect_root(
        lambda om: (1.0 - om) ** (2 * k) * (1.0 + 2.0 * om * k) - 1.0,
        1.0 + 1e-9,
        2.0 - 1e-12,
        tol=1e-14,
    )


class SharpConstants(NamedTuple):
    """Spectrum-split constants of the sharp Chebyshev bound at degree k (n = 2k+1)."""

    w: float            # inf over (4, 3 pi/2] of csc^2(phi) - n^{-2} csc^2(phi/n)
    phi_star: float     # the level-w crossing closest to 2
    lambda_star: float  # sin^2(phi*/n)
    y: float            # (n^2 - 1) / (3 n^2 w)


def _level_and_crossing(h) -> tuple[float, float]:
    """``w = inf h`` on ``(4, 3 pi/2]`` (golden section) and the level-w
    crossing ``phi*`` closest to 2 (bisection on [1.5, 2], where ``h`` increases)."""
    w = h(golden_section_min(h, 4.0, 1.5 * math.pi, tol=1e-14))
    return w, bisect_root(lambda p: h(p) - w, 1.5, 2.0, tol=1e-14)


@lru_cache(maxsize=1)
def limit_constants() -> SharpConstants:
    """The k -> infinity limit of :func:`sharp_constants`, where ``lambda* = 0``
    and ``y = 1/(3w)``."""
    w, phi_star = _level_and_crossing(lambda phi: 1.0 / math.sin(phi) ** 2 - 1.0 / phi ** 2)
    return SharpConstants(w=w, phi_star=phi_star, lambda_star=0.0, y=1.0 / (3.0 * w))


@lru_cache(maxsize=None, typed=True)  # typed: True or 2.0 must not hit a cached 1 or 2
def sharp_constants(k: int) -> SharpConstants:
    """Numerically solve for ``(w, phi*, lambda*, y)`` at degree k, ``n = 2k+1``.

    ``w`` minimizes ``csc^2(phi) - n^{-2} csc^2(phi/n)`` on ``(4, 3 pi/2]``
    and ``phi*`` is the level-w crossing closest to 2;
    ``lambda* = sin^2(phi*/n)`` and ``y = (n^2 - 1)/(3 n^2 w)``.
    """
    _check_degree(k)
    n = 2 * k + 1
    w, phi_star = _level_and_crossing(
        lambda phi: 1.0 / math.sin(phi) ** 2 - (1.0 / n ** 2) / math.sin(phi / n) ** 2)
    lambda_star = math.sin(phi_star / n) ** 2
    y = (n * n - 1.0) / (3.0 * n * n * w)
    return SharpConstants(w=w, phi_star=phi_star, lambda_star=lambda_star, y=y)


def sharp_g_factor(C: float) -> float:
    """Factor ``g(C) = 1 + 2 (C-1)(1 - 1/sqrt(1 - 1/C)) = 1 / (C (1 + sqrt(1 - 1/C))^2)``.

    The closed form on the right is what is evaluated: the left one cancels
    ``1 - 1 + O(1/C)`` and loses all its digits by ``C ~ 1e8``.  It gives
    ``g(1) = 1`` and is bounded below by ``(2 + 4C)/(16 C^2 - 5)``, which
    yields the closed-form branch of the discount.
    """
    _check_c(C)
    return 1.0 / (C * (1.0 + math.sqrt(1.0 - 1.0 / C)) ** 2)


def cheb_sharp_exact_discount(C: float, k: int) -> float:
    """Exact discount ``C - C'`` proved by the spectrum-split argument.

    Dominates the closed-form ``beta * sharp_f_factor(C, k)`` everywhere
    and tends to ``beta`` as ``k -> infinity`` at fixed ``C``.
    """
    _check_c(C)
    sc = sharp_constants(k)
    if 1.0 / C <= sc.lambda_star * (2.0 - sc.lambda_star):
        return (1.0 - sc.y) / sc.lambda_star * sharp_g_factor(C)
    return (1.0 - sc.lambda_star * C) / (1.0 - sc.lambda_star) * (1.0 - sc.y)


def crossover_C() -> float:
    """C below which the sharp Chebyshev bound beats the optimal conjecture
    asymptotically: ``beta / (1 - pi^2/12) ~= 3.67``."""
    return beta_constant() / (1.0 - math.pi ** 2 / 12.0)


def one_minus(p: PolynomialSpec, lam):
    """``1 - p(lam)`` without cancellation near 0; roots on the last axis, for pairwise sums."""
    lam = np.asarray(lam, dtype=float)
    # up to half the smallest root, -expm1(sum_i log1p(-lam/r_i)) has no
    # cancellation; degree 0 (no roots, p = 1) takes that branch everywhere
    s = np.minimum(lam[..., None] / p.roots, 0.5)
    out = np.where(lam <= 0.5 * np.min(p.roots, initial=np.inf),
                   -np.expm1(np.sum(np.log1p(-s), axis=-1)), 1.0 - p.evaluate(lam))
    return out if out.ndim else float(out)


def _gamma_objective(p: PolynomialSpec, lam):
    pv = p.evaluate(lam)
    return lam * pv * pv / (one_minus(p, lam) * (1.0 + pv))


def gamma_mu(p: PolynomialSpec) -> float:
    """Evaluate ``sup_{0 < lam <= 1} lam p(lam)^2 / (1 - p(lam)^2)``.

    A Chebyshev-spaced grid on ``[eps^2, 1]`` locates candidate maxima,
    each refined by golden section.  ``1 - p`` comes from
    :func:`one_minus`, so the left end gives the limit
    ``1 / (-2 p'(0))`` at 0 to rounding.  Raises ``ValueError`` when the
    polynomial is not a contraction on ``(0, 1]``.
    """
    lo = np.finfo(float).eps ** 2  # keeps lam / r_i clear of underflow
    n_grid = _GAMMA_GRID_PER_DEGREE * (p.degree + 1)
    j = np.arange(n_grid + 1)
    xs = lo + (1.0 - lo) * 0.5 * (1.0 - np.cos(np.pi * j / n_grid))
    pv, dv = p.evaluate(xs), one_minus(p, xs)
    if np.any(dv <= 0.0) or np.any(pv <= -1.0):
        raise ValueError("|p| >= 1 inside (0, 1]: not a valid smoother polynomial")
    h = xs * pv * pv / (dv * (1.0 + pv))
    best = float(np.max(h))
    # golden-section refinement around each interior local maximum
    for t in range(1, len(xs) - 1):
        if h[t] >= h[t - 1] and h[t] >= h[t + 1]:
            xm = golden_section_min(
                lambda x: -_gamma_objective(p, x), xs[t - 1], xs[t + 1], tol=1e-13
            )
            best = max(best, float(_gamma_objective(p, xm)))
    return best

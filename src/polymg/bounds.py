"""Closed-form V-cycle contraction bounds and their sharp refinements.

All bounds estimate ``||E||_A^2`` in terms of the smoothing constant
``C >= 1`` and the polynomial degree ``k``.  The V-cycle bounds, for the
half V-cycle error propagator, have the form ``C / (C + 1/gamma)`` with
the smoother polynomial's ``gamma`` functional or a lower estimate of
``1/gamma``:

* damped Jacobi (degree k, damping omega): ``C / (C + 2 omega k)``,
  valid iff ``(1 - omega)^{2k} <= 1/(1 + 2 omega k)``;
* fourth-kind Chebyshev: ``C / (C + (4/3) k (k+1))``;
* optimal polynomial (conjectured): ``C / (C + (4/pi^2)(2k+1)^2 - 2/3)``.

The two-level fourth-kind Chebyshev bound ``min(1, C / (2k+1)^2)`` has no
such form: it bounds the two-grid factor ``||(I - Pi) p_k(B A)||_A^2`` of the
fourth-kind polynomial ``p_k`` and the A-orthogonal coarse projection ``Pi``,
which 1 bounds too, as ``|p_k| <= 1`` on the spectrum.

The sharp refinement replaces ``C`` by ``C' = C - beta f(C, k)`` in the
Chebyshev bound, where ``beta = 1 - (1/3) / inf_{4 < phi <= 3 pi/2}
(csc^2 phi - phi^{-2}) = 0.650914713503148...`` and ``f`` is an explicit
piecewise rational factor with ``0 <= f <= (2/3)/beta``.  The discount
``beta f`` underestimates the exact one proved through the spectrum-split
constants ``(w, phi*, lambda*, y)``, computed here numerically.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .poly import _check_degree
from .scalar import bisect_root, golden_section_min

__all__ = [
    "omega_condition_holds",
    "SimpleBound",
    "bound_simple",
    "omega_max_asymptotic",
    "omega_max_exact",
    "bound_cheb",
    "bound_cheb_two_level",
    "sharp_f_factor",
    "bound_cheb_sharp",
    "bound_opt_conjecture",
    "opt_gamma_inv_estimate",
    "beta_constant",
    "limit_constants",
    "SharpConstants",
    "sharp_constants",
    "sharp_g_factor",
    "cheb_sharp_exact_discount",
    "crossover_C",
]


def _check_c(C: float) -> None:
    if not (C >= 1.0 and math.isfinite(C)):
        raise ValueError("smoothing constant C must be finite and >= 1")


def omega_condition_holds(omega: float, k: int) -> bool:
    """Whether ``(1-omega)^{2k} <= 1/(1 + 2 omega k)``.

    Under this condition the damped-Jacobi gamma is ``1/(2 omega k)`` and
    :func:`bound_simple` is valid.  Holds for ``omega <= 3/2`` at every k
    (with equality at ``omega = 3/2``, ``k = 1``).
    """
    if not 0.0 < omega < 2.0:
        raise ValueError("need 0 < omega < 2")
    _check_degree(k)
    return (1.0 - omega) ** (2 * k) <= 1.0 / (1.0 + 2.0 * omega * k)


class SimpleBound(NamedTuple):
    value: float
    valid: bool


def bound_simple(C: float, omega: float, k: int) -> SimpleBound:
    """Damped-Jacobi V-cycle bound ``C / (C + 2 omega k)`` with validity flag."""
    _check_c(C)
    valid = omega_condition_holds(omega, k)  # checks omega and k before dividing
    return SimpleBound(C / (C + 2.0 * omega * k), valid)


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


def bound_cheb(C: float, k: int) -> float:
    """Fourth-kind Chebyshev V-cycle bound ``C / (C + (4/3) k (k+1))``."""
    _check_c(C)
    _check_degree(k)
    return C / (C + (4.0 / 3.0) * k * (k + 1))


def bound_cheb_two_level(C: float, k: int) -> float:
    """Two-level fourth-kind Chebyshev bound ``C / (2k+1)^2``, capped at the trivial bound 1."""
    _check_c(C)
    _check_degree(k)
    return min(1.0, C / (2 * k + 1) ** 2)


def bound_opt_conjecture(C: float, k: int) -> float:
    """Conjectured optimal-polynomial bound ``C / (C + (4/pi^2)(2k+1)^2 - 2/3)``.

    The denominator term is a lower estimate of the optimal ``1/gamma``,
    so this slightly over-estimates the true optimal-polynomial bound.
    """
    _check_c(C)
    return C / (C + opt_gamma_inv_estimate(k))


def opt_gamma_inv_estimate(k: int) -> float:
    """Leading terms ``(4/pi^2)(2k+1)^2 - 2/3`` of the optimal ``1/gamma``."""
    _check_degree(k)
    n = 2 * k + 1
    return (4.0 / math.pi ** 2) * n * n - 2.0 / 3.0


# ---------------------------------------------------------------------------
# sharp refinement of the Chebyshev bound


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


def beta_constant() -> float:
    """The sharp-bound discount constant ``beta = 1 - y = 0.650914713503148...`` at
    k -> infinity."""
    return 1.0 - limit_constants().y


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


def sharp_f_factor(C: float, k: int) -> float:
    """Piecewise factor ``f`` of the sharp-bound discount ``beta f``.

    With ``n = 2k+1``: below the switch point ``C < n^2/7.97 + 0.512`` the
    factor is ``(1 + 65/(15 n^2 - 33)) (1 - 40 C/(10 n^2 - n + 19))``,
    above it ``((1 + 2C)/(32 C^2 - 10)) (n^2 + 1.79 + n^{-2})``, evaluated as
    ``(0.5 + C)/(16 C^2 - 5)``: the same float wherever ``32 C^2`` is finite,
    and no ``inf/inf`` above that.  Satisfies ``0 <= f <= (2/3)/beta`` and
    ``f -> 1`` as ``k -> infinity``.
    """
    _check_c(C)
    _check_degree(k)
    n = 2 * k + 1
    if C < n * n / 7.97 + 0.512:
        return (1.0 + 65.0 / (15.0 * n * n - 33.0)) * (
            1.0 - 40.0 * C / (10.0 * n * n - n + 19.0)
        )
    return (0.5 + C) / (16.0 * C * C - 5.0) * (n * n + 1.79 + 1.0 / (n * n))


def bound_cheb_sharp(C: float, k: int) -> float:
    """Sharp Chebyshev bound ``C' / (C' + (4/3) k (k+1))`` with ``C' = C - beta f``.

    ``C' >= C - 2/3 > 0``, because ``C >= 1`` and ``0 <= f <= (2/3)/beta``.
    """
    c_prime = C - beta_constant() * sharp_f_factor(C, k)
    return c_prime / (c_prime + (4.0 / 3.0) * k * (k + 1))


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

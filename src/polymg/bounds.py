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
constants ``(w, phi*, lambda*, y)``.  Those constants, the exact discount,
the crossover ``C`` and the largest valid Jacobi damping are side results of
the derivation that no printed curve needs: they live with the tests that
check them, in ``tests/paper_results.py``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .poly import _check_degree, golden_section_min

__all__ = [
    "omega_condition_holds",
    "SimpleBound",
    "bound_simple",
    "bound_cheb",
    "bound_cheb_two_level",
    "sharp_f_factor",
    "bound_cheb_sharp",
    "bound_opt_conjecture",
    "opt_gamma_inv_estimate",
    "beta_constant",
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


@lru_cache(maxsize=1)
def beta_constant() -> float:
    """The sharp-bound discount constant ``beta = 1 - 1/(3w) = 0.650914713503148...``,
    with ``w = inf (csc^2 phi - phi^{-2})`` on ``(4, 3 pi/2]`` by golden section."""
    def h(phi):
        return 1.0 / math.sin(phi) ** 2 - 1.0 / phi ** 2
    return 1.0 - 1.0 / (3.0 * h(golden_section_min(h, 4.0, 1.5 * math.pi, tol=1e-14)))


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

"""Derivative-free scalar minimization and root bracketing.

Small, deterministic routines used for the spectral-bound constants and
for refining suprema of smooth one-dimensional functions.
"""

from __future__ import annotations

import math
from typing import Callable

__all__: list[str] = []

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-14
) -> float:
    """Locate the minimizer of a unimodal ``f`` on ``[a, b]``.

    Shrinks the bracket by the golden ratio until its width is below
    ``tol`` (endpoints are never evaluated).  Returns the bracket midpoint.
    """
    if not b > a:
        raise ValueError("need a < b")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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

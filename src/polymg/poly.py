"""Chebyshev polynomials of the fourth kind and smoother-polynomial analysis.

A smoother polynomial ``p`` of degree ``k`` satisfies ``p(0) = 1`` and
``|p| < 1`` on ``(0, 1]``; its error-damping quality is measured by

    gamma = sup_{0 < lam <= 1}  lam p(lam)^2 / (1 - p(lam)^2),

smaller being better.  The fourth-kind Chebyshev smoother is
``p_k(lam) = W_k(1 - 2 lam) / (2k + 1)`` with ``W_k`` the fourth-kind
Chebyshev polynomial; it equioscillates ``sqrt(lam) |p_k|`` at the level
``1/(2k+1)`` and gives ``gamma = 3 / ((2k+1)^2 - 1)``.

Every smoother polynomial is realized as an iteration through its
expansion in fourth-kind Chebyshev polynomials: with
``p = sum_j alpha_j W_j(1 - 2 lam)``, the over-relaxation weights follow
the recursion ``beta_{j+1} = beta_j - (2j+1) alpha_j`` from
``beta_0 = 1``, and consistency requires ``beta_{k+1} = 1 - p(0) = 0``.
A :class:`PolynomialSpec` stores only its roots: it is evaluated in product
form, and the expansion that gives its betas is computed from them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["PolynomialSpec", "gamma_mu"]

_GAMMA_GRID_PER_DEGREE = 64  # gamma_mu scans 64 (k + 1) Chebyshev-spaced points
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _signed_p(diff, roots):
    """``(-1)^k p(x) = prod_i (x - r_i) / prod_i r_i`` from ``diff[i] = x - r_i``.

    Each factor ``x - r_i`` is exact near a root, where ``1 - x/r_i`` is not.  The roots
    lie on axis 0: numpy multiplies whole rows in root order, as vector ops, to the same bits.
    """
    return diff.prod(axis=0) / roots.prod()


def _product_form(lam, roots):
    """``p(lam) = prod_i (r_i - lam) / prod_i r_i`` at any ``lam``, with the roots on axis 0."""
    lam = np.asarray(lam, dtype=float)
    return _signed_p(roots.reshape((-1,) + (1,) * lam.ndim) - lam, roots)


def _check_degree(k, lowest: int = 1) -> None:
    """Raise ``ValueError`` unless the polynomial degree ``k`` is an integer ``>= lowest``."""
    if type(k) is int and k >= lowest:  # the common case, without the ABC check below
        return
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < lowest:
        raise ValueError(f"polynomial degree k must be an integer >= {lowest}, got {k!r}")


def _check_roots(r):
    """Raise ``ValueError`` unless ``p`` can divide by the product of the roots ``r``."""
    if not np.all(np.isfinite(r)):
        raise ValueError("roots must be finite")
    if np.any(r <= 0.0):
        raise ValueError("roots must be positive")
    with np.errstate(over="ignore", under="ignore"):  # the check below names the fault
        prod = np.prod(r)
    if not np.finfo(float).tiny <= prod < np.inf:  # p divides by it
        raise ValueError("the product of the roots must be a normal float")


@dataclass(frozen=True)
class PolynomialSpec:
    """A smoother polynomial ``p(lam) = prod_i (r_i - lam) / prod_i r_i``, so ``p(0) = 1``.

    ``roots`` is the one stored form, and evaluation uses it; the expansion
    ``cheb4_coeffs`` and the iteration betas are computed from the roots.
    """

    roots: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.roots, dtype=float)
        if r.ndim != 1:
            raise ValueError("roots must be a 1-D array")
        _check_roots(r)
        object.__setattr__(self, "roots", r)

    @property
    def degree(self) -> int:
        return self.roots.size

    @property
    def cheb4_coeffs(self) -> np.ndarray:
        """The expansion ``p = sum_i alpha_i W_i(1 - 2 lam)``, ``i = 0..k``.

        ``alpha_0..alpha_{k-1}`` come from the k-node Gauss rule for the
        fourth-kind weight against the orthonormal ``W_j`` (exact for degree
        ``<= 2k - 1``) at the roots ``lam_i = sin^2(t_i)``, ``t_i = i pi/(2k+1)``,
        of ``W_k(1 - 2 lam)``; ``W_j(cos 2t) = sin((2j+1) t) / sin t`` folds
        weight and basis into ``alpha_j = (4/(2k+1)) sum_i sin((2j+1) t_i)
        sin(t_i) p(lam_i)``.  That sum over ``i`` is a sine transform: minus
        the imaginary part, at the odd frequencies ``2j+1``, of one real FFT
        of length ``2(2k+1)`` of ``sin(t_i) p(lam_i)`` placed at ``i = 1..k``.
        The rule returns 0 for ``alpha_k``, the leading monomial coefficient
        ``1 / (4^k prod_i r_i)``, formed as ``2^(-2k) / prod_i r_i`` so that
        ``4^k`` cannot overflow.
        """
        k = self.degree
        n = 2 * k + 1
        sines = np.sin(np.arange(1, k + 1) * (np.pi / n))  # sin(t_i)
        weighted = np.zeros(2 * n)
        weighted[1:k + 1] = sines * _product_form(sines ** 2, self.roots)
        spectrum = np.fft.rfft(weighted)  # spectrum[m] = sum_i weighted[i] exp(-1j m t_i)
        return np.append(spectrum.imag[1:2 * k:2] * (-4.0 / n),
                         np.ldexp(1.0 / np.prod(self.roots), -2 * k))

    @property
    def iteration_betas(self) -> np.ndarray:
        """Over-relaxation weights ``beta_1..beta_k`` of the iteration realizing ``p``."""
        # beta_{j+1} = beta_j - (2j+1) alpha_j from beta_0 = 1, one subtraction at a time
        steps = (2.0 * np.arange(self.degree + 1) + 1.0) * self.cheb4_coeffs
        return np.subtract.accumulate(np.append(1.0, steps))[1:-1]

    @classmethod
    def fourth_kind(cls, k: int) -> "PolynomialSpec":
        """The smoother ``W_k(1-2 lam)/(2k+1)``; roots ``sin^2(i pi/(2k+1))``.

        The roots are the Gauss nodes of :attr:`cheb4_coeffs` to the bit, so
        ``alpha_0..alpha_{k-1}`` are exactly 0 and every beta exactly 1.
        """
        _check_degree(k)
        return cls(np.sin(np.arange(1, k + 1) * (np.pi / (2 * k + 1))) ** 2)

    def evaluate(self, lam):
        """Evaluate ``p`` at scalar or array ``lam``."""
        out = _product_form(lam, self.roots)
        return out if out.ndim else float(out)

    def one_minus(self, lam):
        """``1 - p(lam)`` without cancellation near 0; roots on the last axis, for pairwise sums."""
        lam = np.asarray(lam, dtype=float)
        # up to half the smallest root, -expm1(sum_i log1p(-lam/r_i)) has no
        # cancellation; degree 0 (no roots, p = 1) takes that branch everywhere
        s = np.minimum(lam[..., None] / self.roots, 0.5)
        out = np.where(lam <= 0.5 * np.min(self.roots, initial=np.inf),
                       -np.expm1(np.sum(np.log1p(-s), axis=-1)), 1.0 - self.evaluate(lam))
        return out if out.ndim else float(out)


def _gamma_objective(p: PolynomialSpec, lam):
    pv = p.evaluate(lam)
    return lam * pv * pv / (p.one_minus(lam) * (1.0 + pv))


def golden_section_min(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
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


def gamma_mu(p: PolynomialSpec) -> float:
    """Evaluate ``sup_{0 < lam <= 1} lam p(lam)^2 / (1 - p(lam)^2)``.

    A Chebyshev-spaced grid on ``[eps^2, 1]`` locates candidate maxima,
    each refined by golden section.  ``1 - p`` comes from
    :meth:`PolynomialSpec.one_minus`, so the left end gives the limit
    ``1 / (-2 p'(0))`` at 0 to rounding.  Raises ``ValueError`` when the
    polynomial is not a contraction on ``(0, 1]``.
    """
    lo = np.finfo(float).eps ** 2  # keeps lam / r_i clear of underflow
    n_grid = _GAMMA_GRID_PER_DEGREE * (p.degree + 1)
    j = np.arange(n_grid + 1)
    xs = lo + (1.0 - lo) * 0.5 * (1.0 - np.cos(np.pi * j / n_grid))
    pv, dv = p.evaluate(xs), p.one_minus(xs)
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

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
A :class:`PolynomialSpec` is known by its roots: it is evaluated in product
form, and it carries the expansion only for the betas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalar import golden_section_min

__all__ = [
    "cheb_w",
    "PolynomialSpec",
    "gamma_mu",
]

_GAMMA_GRID_PER_DEGREE = 64  # gamma_mu scans 64 (k + 1) Chebyshev-spaced points


def _signed_p(diff, roots):
    """``(-1)^k p(x) = prod_i (x - r_i) / prod_i r_i`` from ``diff = x - r``.

    Each factor ``x - r_i`` is exact near a root, where ``1 - x/r_i`` is not.
    """
    return np.prod(diff, axis=-1) / np.prod(roots)


def _product_form(lam, roots):
    """``p(lam) = prod_i (r_i - lam) / prod_i r_i`` at scalar or array ``lam``."""
    lam = np.asarray(lam, dtype=float)
    return _signed_p(roots - lam[..., None], roots)


def cheb_w(n: int, x):
    """Fourth-kind Chebyshev polynomial ``W_n`` evaluated by recurrence.

    Uses ``W_0 = 1``, ``W_1 = 2x + 1``, ``W_n = 2x W_{n-1} - W_{n-2}``,
    which is stable on ``[-1, 1]``.  ``x`` may be a scalar or array.
    """
    if n < 0 or n != int(n):
        raise ValueError("degree must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    w_prev, w = -np.ones_like(x), np.ones_like(x)  # W_{-1} = -1 gives W_1 = 2x + 1
    for _ in range(int(n)):
        w_prev, w = w, 2.0 * x * w - w_prev
    return w if w.ndim else float(w)


def _check_roots(r):
    """Raise ``ValueError`` unless ``p`` can divide by the product of the roots ``r``."""
    if not np.all(np.isfinite(r)):
        raise ValueError("roots must be finite")
    if np.any(r <= 0.0):
        raise ValueError("roots must be positive")
    if not np.finfo(float).tiny <= np.prod(r) < np.inf:  # p divides by it
        raise ValueError("the product of the roots must be a normal float")


@dataclass(frozen=True)
class PolynomialSpec:
    """A smoother polynomial with ``p(0) = 1``, known by its roots.

    ``roots`` gives the product form ``p(lam) = prod_i (r_i - lam) / prod_i r_i``,
    the one form evaluation uses; ``cheb4_coeffs`` holds the expansion
    ``p = sum_i alpha_i W_i(1-2 lam)``, ``i = 0..k``, that the iteration
    betas are read from.
    """

    cheb4_coeffs: np.ndarray
    roots: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.cheb4_coeffs, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        # p(0) = sum alpha_i W_i(1) = sum alpha_i (2i+1), a sum that rounds
        # relative to sum |alpha_i| (2i+1), which is huge when the roots are small
        orders = 2.0 * np.arange(a.size) + 1.0
        p0 = float(a @ orders)
        if abs(p0 - 1.0) > 1e-8 * max(1.0, float(np.abs(a) @ orders)):
            raise ValueError(f"coefficients give p(0) = {p0!r}, expected 1")
        r = np.asarray(self.roots, dtype=float)
        if r.shape != (a.size - 1,):
            raise ValueError("need exactly `degree` roots")
        _check_roots(r)
        object.__setattr__(self, "cheb4_coeffs", a)
        object.__setattr__(self, "roots", r)

    @property
    def degree(self) -> int:
        return self.cheb4_coeffs.size - 1

    @property
    def iteration_betas(self) -> np.ndarray:
        """Over-relaxation weights ``beta_1..beta_k`` of the iteration realizing ``p``."""
        k = self.degree
        betas = np.zeros(k + 2)
        betas[0] = 1.0
        for j in range(k + 1):
            betas[j + 1] = betas[j] - (2 * j + 1) * self.cheb4_coeffs[j]
        return betas[1 : k + 1]

    @classmethod
    def fourth_kind(cls, k: int) -> "PolynomialSpec":
        """The smoother ``W_k(1-2 lam)/(2k+1)``; roots ``sin^2(i pi/(2k+1))``."""
        if k < 1:
            raise ValueError("degree must be >= 1")
        i = np.arange(1, k + 1)
        roots = 0.5 - 0.5 * np.cos(i * np.pi / (k + 0.5))
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0 / (2 * k + 1)
        return cls(cheb4_coeffs=coeffs, roots=roots)

    @classmethod
    def from_roots(cls, roots) -> "PolynomialSpec":
        """``prod_i (1 - lam / r_i)`` with its fourth-kind expansion.

        ``alpha_0..alpha_{k-1}`` come from the k-node Gauss rule for the
        fourth-kind weight against the orthonormal ``W_j`` (exact for degree
        ``<= 2k - 1``) at the roots ``lam_i = sin^2(t_i)``, ``t_i = i pi/(2k+1)``,
        of ``W_k(1 - 2 lam)``; ``W_j(cos 2t) = sin((2j+1) t) / sin t`` folds
        weight and basis into ``alpha_j = (4/(2k+1)) sum_i sin((2j+1) t_i)
        sin(t_i) p(lam_i)``.  The rule returns 0 for ``alpha_k``, the leading
        monomial coefficient ``1 / (4^k prod_i r_i)``.
        """
        roots = np.asarray(roots, dtype=float)
        _check_roots(roots)  # before p is evaluated at them
        k = len(roots)
        n = 2 * k + 1
        sines = np.sin(np.arange(2 * n) * (np.pi / n))  # sin(m pi / n), period 2n in m
        i = np.arange(1, k + 1)
        weighted = sines[i] * _product_form(sines[i] ** 2, roots)
        alphas = np.append(sines[np.outer(2 * i - 1, i) % (2 * n)] @ weighted * (4.0 / n),
                           1.0 / (4.0 ** k * np.prod(roots)))
        return cls(cheb4_coeffs=alphas, roots=roots)

    def evaluate(self, lam):
        """Evaluate ``p`` at scalar or array ``lam``."""
        out = _product_form(lam, self.roots)
        return out if out.ndim else float(out)

    __call__ = evaluate

    def one_minus(self, lam):
        """``1 - p(lam)``, without the cancellation of ``1 - evaluate(lam)`` near 0."""
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


def gamma_mu(p: PolynomialSpec, mu: float = 0.0) -> float:
    """Evaluate ``sup_{mu < lam <= 1} lam p(lam)^2 / (1 - p(lam)^2)``.

    A Chebyshev-spaced grid on ``[max(mu, eps^2), 1]`` locates candidate
    maxima, each refined by golden section.  ``1 - p`` comes from
    :meth:`PolynomialSpec.one_minus`, so the left end gives the limit at
    ``mu`` (``1 / (-2 p'(0))`` for ``mu = 0``) to rounding.  Raises
    ``ValueError`` when the polynomial is not a contraction on ``(mu, 1]``.
    """
    if not 0.0 <= mu < 1.0:
        raise ValueError("need 0 <= mu < 1")
    lo = max(mu, np.finfo(float).eps ** 2)  # keeps lam / r_i clear of underflow
    n_grid = _GAMMA_GRID_PER_DEGREE * (p.degree + 1)
    j = np.arange(n_grid + 1)
    xs = lo + (1.0 - lo) * 0.5 * (1.0 - np.cos(np.pi * j / n_grid))
    pv, dv = p.evaluate(xs), p.one_minus(xs)
    if np.any(dv <= 0.0) or np.any(pv <= -1.0):
        raise ValueError(f"|p| >= 1 inside ({mu}, 1]: not a valid smoother polynomial")
    h = xs * pv * pv / (dv * (1.0 + pv))
    best = float(np.max(h))
    # golden-section refinement around each interior local maximum; for mu
    # within a few ulps of 1 the grid points coincide and there is nothing to refine
    for t in range(1, len(xs) - 1):
        if h[t] >= h[t - 1] and h[t] >= h[t + 1] and xs[t + 1] > xs[t - 1]:
            xm = golden_section_min(
                lambda x: -_gamma_objective(p, x), xs[t - 1], xs[t + 1], tol=1e-13
            )
            best = max(best, float(_gamma_objective(p, xm)))
    return best

"""Chebyshev polynomials of the fourth kind and smoother-polynomial analysis.

A smoother polynomial ``p`` of degree ``k`` satisfies ``p(0) = 1`` and
``|p| < 1`` on ``(0, 1]``; its error-damping quality is measured by

    gamma = sup_{0 < lam <= 1}  lam p(lam)^2 / (1 - p(lam)^2),

smaller being better.  The fourth-kind Chebyshev smoother is
``p_k(lam) = W_k(1 - 2 lam) / (2k + 1)`` with ``W_k`` the fourth-kind
Chebyshev polynomial; it equioscillates ``sqrt(lam) |p_k|`` at the level
``1/(2k+1)`` and gives ``gamma = 3 / ((2k+1)^2 - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalar import golden_section_min

__all__ = [
    "cheb_w",
    "cheb4_coefficients",
    "PolynomialSpec",
    "gamma_mu",
]

_GAMMA_GRID_PER_DEGREE = 64  # gamma_mu scans 64 (k + 1) Chebyshev-spaced points


def cheb_w(n: int, x):
    """Fourth-kind Chebyshev polynomial ``W_n`` evaluated by recurrence.

    Uses ``W_0 = 1``, ``W_1 = 2x + 1``, ``W_n = 2x W_{n-1} - W_{n-2}``,
    which is stable on ``[-1, 1]``.  ``x`` may be a scalar or array.
    """
    if n < 0 or n != int(n):
        raise ValueError("degree must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    w_prev = np.ones_like(x)
    if n == 0:
        return w_prev if w_prev.ndim else float(w_prev)
    w = 2.0 * x + 1.0
    for _ in range(2, int(n) + 1):
        w_prev, w = w, 2.0 * x * w - w_prev
    return w if w.ndim else float(w)


def cheb4_coefficients(k: int) -> np.ndarray:
    """Monomial coefficients of ``W_k(1-2 lam)/(2k+1)``, lowest degree first.

    The recurrence is carried out in exact integer arithmetic (the
    coefficients of ``W_k(1-2 lam)`` are integers), so the returned floats
    are correct to one rounding each.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    w_prev = [1]
    if k == 0:
        return np.array([1.0])
    w = [3, -4]  # 2(1-2 lam) + 1
    for _ in range(2, k + 1):
        # 2(1-2 lam) * w - w_prev
        nxt = [0] * (len(w) + 1)
        for i, c in enumerate(w):
            nxt[i] += 2 * c
            nxt[i + 1] -= 4 * c
        for i, c in enumerate(w_prev):
            nxt[i] -= c
        w_prev, w = w, nxt
    return np.array([c / (2 * k + 1) for c in w])


@dataclass(frozen=True)
class PolynomialSpec:
    """A smoother polynomial with ``p(0) = 1`` in one of two representations.

    ``roots`` gives the product form ``p(lam) = prod_i (1 - lam / r_i)``;
    ``cheb4_coeffs`` gives the expansion ``p = sum_i alpha_i W_i(1-2 lam)``.
    Either may be present; evaluation prefers the product form.
    ``iteration_betas`` optionally carries the over-relaxation parameters
    of the iteration realizing ``p``.
    """

    degree: int
    roots: np.ndarray | None = None
    cheb4_coeffs: np.ndarray | None = None
    iteration_betas: np.ndarray | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.roots is not None:
            r = np.asarray(self.roots, dtype=float)
            if r.shape != (self.degree,):
                raise ValueError("need exactly `degree` roots")
            if np.any(r <= 0.0):
                raise ValueError("roots must be positive")
            object.__setattr__(self, "roots", r)
        if self.cheb4_coeffs is not None:
            a = np.asarray(self.cheb4_coeffs, dtype=float)
            if a.shape != (self.degree + 1,):
                raise ValueError("need `degree`+1 expansion coefficients")
            # p(0) = sum alpha_i W_i(1) = sum alpha_i (2i+1)
            p0 = float(a @ (2.0 * np.arange(self.degree + 1) + 1.0))
            if abs(p0 - 1.0) > 1e-8:
                raise ValueError(f"coefficients give p(0) = {p0!r}, expected 1")
            object.__setattr__(self, "cheb4_coeffs", a)
        if self.roots is None and self.cheb4_coeffs is None and self.degree > 0:
            raise ValueError("need roots or expansion coefficients")
        if self.iteration_betas is not None:
            b = np.asarray(self.iteration_betas, dtype=float)
            if b.shape != (self.degree,):
                raise ValueError("need exactly `degree` iteration betas")
            object.__setattr__(self, "iteration_betas", b)

    @classmethod
    def fourth_kind(cls, k: int) -> "PolynomialSpec":
        """The smoother ``W_k(1-2 lam)/(2k+1)``; roots ``sin^2(i pi/(2k+1))``."""
        if k < 1:
            raise ValueError("degree must be >= 1")
        i = np.arange(1, k + 1)
        roots = 0.5 - 0.5 * np.cos(i * np.pi / (k + 0.5))
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0 / (2 * k + 1)
        return cls(degree=k, roots=roots, cheb4_coeffs=coeffs)

    @classmethod
    def simple(cls, omega: float, k: int) -> "PolynomialSpec":
        """The damped-iteration polynomial ``(1 - omega lam)^k``."""
        if not 0.0 < omega < 2.0:
            raise ValueError("need 0 < omega < 2")
        if k < 0:
            raise ValueError("degree must be nonnegative")
        return cls(degree=k, roots=np.full(k, 1.0 / omega)) if k else cls(degree=0)

    @classmethod
    def from_roots(cls, roots) -> "PolynomialSpec":
        roots = np.asarray(roots, dtype=float)
        return cls(degree=len(roots), roots=roots)

    @classmethod
    def from_betas(cls, betas) -> "PolynomialSpec":
        """Polynomial realized by the over-relaxed iteration with these betas.

        ``p = sum_i ((beta_i - beta_{i+1}) / (2i+1)) W_i(1-2 lam)`` with
        ``beta_0 = 1`` and ``beta_{k+1} = 0``.
        """
        betas = np.asarray(betas, dtype=float)
        k = len(betas)
        ext = np.concatenate([[1.0], betas, [0.0]])
        coeffs = (ext[:-1] - ext[1:]) / (2.0 * np.arange(k + 1) + 1.0)
        return cls(degree=k, cheb4_coeffs=coeffs, iteration_betas=betas)

    def evaluate(self, lam):
        """Evaluate ``p`` at scalar or array ``lam``."""
        lam = np.asarray(lam, dtype=float)
        if self.degree == 0:
            out = np.ones_like(lam)
        elif self.roots is not None:
            out = np.prod(1.0 - lam[..., None] / self.roots, axis=-1)
        else:
            x = 1.0 - 2.0 * lam
            w_prev = np.ones_like(x)
            w = 2.0 * x + 1.0
            out = self.cheb4_coeffs[0] * w_prev + self.cheb4_coeffs[1] * w
            for i in range(2, self.degree + 1):
                w_prev, w = w, 2.0 * x * w - w_prev
                out = out + self.cheb4_coeffs[i] * w
        return out if out.ndim else float(out)

    __call__ = evaluate

    def one_minus(self, lam):
        """``1 - p(lam)``, without the cancellation of ``1 - evaluate(lam)`` near 0."""
        lam = np.asarray(lam, dtype=float)
        if self.degree == 0:
            out = np.zeros_like(lam)
        elif self.roots is not None:
            # up to half the smallest root, -expm1(sum_i log1p(-lam/r_i)) has no cancellation
            s = np.minimum(lam[..., None] / self.roots, 0.5)
            out = np.where(lam <= 0.5 * np.min(self.roots),
                           -np.expm1(np.sum(np.log1p(-s), axis=-1)), 1.0 - self.evaluate(lam))
        else:
            # p(0) = 1 gives 1 - p = sum_i alpha_i D_i with D_i = W_i(1) - W_i(1-2 lam)
            # = 2 D_{i-1} - D_{i-2} + 4 lam W_{i-1}(1-2 lam), from D_0 = D_{-1} = 0
            x = 1.0 - 2.0 * lam
            w_prev, w, d_prev, d = -np.ones_like(x), np.ones_like(x), 0.0, 0.0
            out = np.zeros_like(x)
            for alpha in self.cheb4_coeffs[1:]:
                d_prev, d = d, 2.0 * d - d_prev + 4.0 * lam * w
                w_prev, w = w, 2.0 * x * w - w_prev
                out = out + alpha * d
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

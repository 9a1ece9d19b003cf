"""Shared fixtures: model-problem hierarchies reused across test modules.

Also the fourth-kind Chebyshev polynomials ``W_n`` by their recurrence and
the reference sums of fourth-kind expansions, which the library keeps only
as betas: ``PolynomialSpec`` evaluates its polynomial from its roots.
"""

import numpy as np
import pytest

from polymg import GridSpec, build_hierarchy
from polymg.optpoly import optimal_roots
from polymg.poly import _check_degree


def cheb_w(n: int, x):
    """Fourth-kind Chebyshev polynomial ``W_n`` evaluated by recurrence.

    Uses ``W_0 = 1``, ``W_1 = 2x + 1``, ``W_n = 2x W_{n-1} - W_{n-2}``,
    which is stable on ``[-1, 1]``.  ``x`` may be a scalar or array.
    """
    _check_degree(n, lowest=0)
    x = np.asarray(x, dtype=float)
    w_prev, w = -np.ones_like(x), np.ones_like(x)  # W_{-1} = -1 gives W_1 = 2x + 1
    for _ in range(n):
        w_prev, w = w, 2.0 * x * w - w_prev
    return w if w.ndim else float(w)


def fourth_kind_sum(alphas, lam):
    """``sum_i alpha_i W_i(1 - 2 lam)``, each ``W_i`` by its recurrence."""
    x = 1.0 - 2.0 * np.asarray(lam, dtype=float)
    return sum(a * cheb_w(i, x) for i, a in enumerate(alphas))


def beta_polynomial(betas, lam):
    """The polynomial realized by the over-relaxed iteration with these betas.

    ``p = sum_i ((beta_i - beta_{i+1}) / (2i+1)) W_i(1-2 lam)`` with
    ``beta_0 = 1`` and ``beta_{k+1} = 0``.
    """
    ext = np.concatenate([[1.0], np.asarray(betas, dtype=float), [0.0]])
    return fourth_kind_sum((ext[:-1] - ext[1:]) / (2.0 * np.arange(ext.size - 1) + 1.0), lam)


@pytest.fixture(scope="session")
def hierarchy_m4_a2():
    """Three-level hierarchy on a 15x15 interior grid, aspect ratio 2."""
    return build_hierarchy(GridSpec(m=4, aspect=2.0))


@pytest.fixture(scope="session")
def two_level_m5_a2():
    """Two-level 31x31 hierarchy, aspect ratio 2, for dense operator analysis."""
    return build_hierarchy(GridSpec(m=5, aspect=2.0), min_interior=15)


@pytest.fixture(scope="session")
def optimal_states():
    """``optimal_roots(k)`` for every supported degree, k = 1..200, in order."""
    return [optimal_roots(k) for k in range(1, 201)]

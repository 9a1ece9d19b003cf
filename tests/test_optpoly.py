"""Equioscillation-optimal smoother polynomials and their expansions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymg.optpoly import (
    cheb4_expansion,
    find_extrema,
    opt_betas,
    optimal_polynomial,
    optimal_roots,
    quadrature_nodes_weights,
)
from polymg.poly import PolynomialSpec, cheb_w, gamma_mu
from polymg.scalar import golden_section_min

# printed reference values for the optimal 1/gamma (last column digit exact)
GAMMA_INV_TABLE = {
    1: (3.0, 1e-10),
    2: (9.4721, 6e-5),
    3: (19.1957, 6e-5),
    4: (32.1634, 6e-5),
    5: (48.3742, 6e-5),
    10: (178.0643, 6e-5),
    100: (16373.241899, 1e-5),
}


def _quadrature(fn, k):
    """The k-node fourth-kind Gauss rule applied to ``fn`` on [-1, 1]."""
    x, w = quadrature_nodes_weights(k)
    return float(np.sum(w * fn(x)))


def test_k1_closed_form():
    state = optimal_roots(1)
    assert state.roots[0] == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert state.gamma_inv == pytest.approx(3.0, abs=1e-12)
    # no interior extrema at degree 1; the level is set at the endpoint:
    # p(1) = -1/2, f(1) = (1/2) sqrt(1/(1 - 1/4)) = 1/sqrt(3) = f0
    assert state.extrema.shape == (0,)
    assert state.f0 == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def test_k2_closed_form():
    state = optimal_roots(2)
    expected = np.sort([2.0 / (5.0 + math.sqrt(5.0)), 2.0 / math.sqrt(5.0)])
    assert np.allclose(np.sort(state.roots), expected, atol=1e-11)
    assert state.gamma_inv == pytest.approx(5.0 + 2.0 * math.sqrt(5.0), abs=1e-10)


def test_gamma_inv_reference_table():
    for k, (expected, tol) in GAMMA_INV_TABLE.items():
        assert optimal_roots(k).gamma_inv == pytest.approx(expected, abs=tol), f"k={k}"


def test_equioscillation_at_optimum():
    for k in (3, 7):
        state = optimal_roots(k)
        p = PolynomialSpec.from_roots(state.roots)
        # the level is attained at the k-1 interior extrema and at x = 1
        x = np.append(state.extrema, 1.0)
        pv = p(x)
        f = np.sqrt(x / (1.0 - pv * pv)) * np.abs(pv)
        assert np.allclose(f, state.f0, atol=1e-10)
        assert state.residual < 1e-11
        # roots and extrema interlace: r_1 < e_1 < ... < e_{k-1} < r_k < 1
        merged = np.empty(2 * k)
        merged[0::2] = state.roots
        merged[1::2] = x
        assert np.all(np.diff(merged) > 0.0)


def test_extremum_against_grid_search():
    # independent check of the k=2 interior extremum: maximize the gamma
    # objective between the two known roots by grid + golden section
    roots = np.array([2.0 / (5.0 + math.sqrt(5.0)), 2.0 / math.sqrt(5.0)])

    def neg_objective(x):
        p = (1.0 - x / roots[0]) * (1.0 - x / roots[1])
        return -(x * p * p / (1.0 - p * p))

    grid = np.linspace(roots[0] + 1e-4, roots[1] - 1e-4, 2000)
    t = int(np.argmin([neg_objective(x) for x in grid]))
    x_star = golden_section_min(neg_objective, grid[t - 1], grid[t + 1], tol=1e-13)
    found = find_extrema(roots)
    assert found.shape == (1,)
    assert found[0] == pytest.approx(x_star, abs=1e-8)


def test_gamma_matches_functional():
    for k in (1, 2, 4, 6):
        state = optimal_roots(k)
        assert gamma_mu(PolynomialSpec.from_roots(state.roots)) == pytest.approx(
            state.f0 ** 2, rel=1e-9)
        assert state.gamma_inv == pytest.approx(2.0 * np.sum(1.0 / state.roots), rel=1e-12)
        assert state.gamma_inv == pytest.approx(1.0 / state.f0 ** 2, rel=1e-10)


def test_optimal_beats_fourth_kind():
    for k in range(1, 21):
        cheb_gamma = 3.0 / ((2 * k + 1) ** 2 - 1)
        assert optimal_roots(k).f0 ** 2 < cheb_gamma


def test_gamma_inv_asymptotic_bracket():
    # 1/gamma = (4/pi^2)(2k+1)^2 - 2/3 + (pi^2/60)(2k+1)^{-2} + smaller
    diffs = []
    for k in (1, 2, 3, 5, 8, 13, 21, 50):
        n = 2 * k + 1
        estimate = (4.0 / math.pi ** 2) * n * n - 2.0 / 3.0
        next_term = math.pi ** 2 / (60.0 * n * n)
        diff = optimal_roots(k).gamma_inv - estimate
        assert 0.9 * next_term < diff < 1.1 * next_term, f"k={k}"
        diffs.append(diff)
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_quadrature_moments():
    for k in (1, 2, 3, 6):
        assert _quadrature(lambda x: np.ones_like(x), k) == pytest.approx(1.0, abs=1e-13)
        assert _quadrature(lambda x: x, k) == pytest.approx(-0.5, abs=1e-13)
    assert _quadrature(lambda x: cheb_w(1, x) ** 2, 3) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_nodes_weights():
    for k in (1, 4, 9):
        nodes, weights = quadrature_nodes_weights(k)
        assert nodes.shape == weights.shape == (k,)
        assert np.all(weights > 0.0)
        assert np.all((nodes > -1.0) & (nodes < 1.0))
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-13)


def test_quadrature_exact_to_degree():
    # k nodes integrate degree <= 2k-1 exactly: compare against more nodes
    for k in (2, 4, 7):
        fn = lambda x: x ** (2 * k - 1) - 0.3 * x ** (k - 1) + 0.1
        assert _quadrature(fn, k) == pytest.approx(_quadrature(fn, k + 5), abs=1e-12)


def test_k1_expansion_and_betas():
    state = optimal_roots(1)
    alphas = cheb4_expansion(state)
    assert np.allclose(alphas, [-0.125, 0.375], atol=1e-12)
    betas = opt_betas(state)
    assert betas[0] == pytest.approx(9.0 / 8.0, abs=1e-12)


def test_beta_sample_range_and_consistency():
    lam = np.linspace(0.0, 1.0, 257)
    for k in (1, 2, 3, 5, 10, 25, 60):
        state = optimal_roots(k)
        betas = opt_betas(state)
        assert betas.shape == (k,)
        assert np.all(betas >= 1.0 - 1e-12)
        assert np.all(betas < 1.6)
        realized = PolynomialSpec.from_betas(betas)
        direct = PolynomialSpec.from_roots(state.roots)
        assert np.max(np.abs(realized(lam) - direct(lam))) < 1e-10


@settings(max_examples=50, deadline=None)
@given(k=st.integers(min_value=1, max_value=40))
def test_roots_betas_polynomial_round_trip(k):
    state = optimal_roots(k)
    lam = np.linspace(0.0, 1.0, 257)
    realized = PolynomialSpec.from_betas(opt_betas(state))
    assert np.max(np.abs(realized(lam) - PolynomialSpec.from_roots(state.roots)(lam))) < 1e-10


def test_optimal_polynomial_bundles_representations():
    spec = optimal_polynomial(3)
    assert spec.roots is not None
    assert spec.cheb4_coeffs is not None
    assert spec.iteration_betas is not None
    lam = np.linspace(0.0, 1.0, 129)
    by_roots = PolynomialSpec.from_roots(spec.roots)(lam)
    by_coeffs = PolynomialSpec(degree=3, cheb4_coeffs=spec.cheb4_coeffs)(lam)
    assert np.max(np.abs(by_roots - by_coeffs)) < 1e-12


def test_degree_validation():
    with pytest.raises(ValueError):
        optimal_roots(0)
    with pytest.raises(ValueError):
        optimal_roots(201)

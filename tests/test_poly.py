"""Fourth-kind Chebyshev identities and the gamma functional."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cheb_w, fourth_kind_sum
from paper_results import gamma_mu, one_minus
from polymg.optpoly import optimal_polynomial
from polymg.poly import PolynomialSpec, _product_form


def _damped(omega, k):
    """The damped-iteration polynomial ``(1 - omega lam)^k``."""
    return PolynomialSpec(np.full(k, 1.0 / omega))


def _gauss_rule_alphas(roots):
    """Reference expansion: the Gauss rule with ``W_j`` at the nodes by recurrence."""
    k = len(roots)
    x = np.cos(np.arange(1, k + 1) * np.pi / (k + 0.5))
    w = (1.0 - x) / (k + 0.5)
    p = np.prod(1.0 - 0.5 * (1.0 - x)[:, None] / roots, axis=1)
    alphas = np.zeros(k + 1)
    w_prev, basis = -np.ones(k), np.ones(k)
    for j in range(k):
        alphas[j] = np.sum(w * basis * p)
        w_prev, basis = basis, 2.0 * x * basis - w_prev
    alphas[k] = 1.0 / (4.0 ** k * np.prod(roots))
    return alphas


def _beta_error(roots):
    """Largest |beta - reference beta| of the spec, over ``max(1, max |beta|)``."""
    betas = PolynomialSpec(roots).iteration_betas
    # beta_{j+1} = beta_j - (2j+1) alpha_j from beta_0 = 1, on the reference expansion
    alphas = _gauss_rule_alphas(roots)[:-1]
    reference = 1.0 - np.cumsum((2.0 * np.arange(len(alphas)) + 1.0) * alphas)
    return np.max(np.abs(betas - reference)) / max(1.0, np.max(np.abs(reference)))


def _fourth_kind(k, lam):
    """Reference ``W_k(1 - 2 lam) / (2k + 1)`` straight from the W recurrence."""
    return cheb_w(k, 1.0 - 2.0 * lam) / (2 * k + 1)


def test_cheb_w_low_degrees():
    x = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(cheb_w(0, x), 1.0)
    assert np.allclose(cheb_w(1, x), 2.0 * x + 1.0, atol=1e-15)
    assert np.allclose(cheb_w(2, x), 4.0 * x * x + 2.0 * x - 1.0, atol=1e-14)


def test_cheb_w_matches_trigonometric_form():
    # W_n(cos t) = sin((n + 1/2) t) / sin(t/2)
    t = np.linspace(0.05, np.pi - 0.05, 200)
    for n in range(11):
        closed = np.sin((n + 0.5) * t) / np.sin(0.5 * t)
        assert np.allclose(cheb_w(n, np.cos(t)), closed, atol=1e-11)


def test_cheb_w_endpoint_value():
    for n in range(30):
        assert cheb_w(n, 1.0) == pytest.approx(2 * n + 1, abs=1e-10)


def test_cheb_w_rejects_negative_degree():
    # and any degree that is not an integer: True is no degree 1, 2.0 no degree 2
    for n in (-1, 2.5, True, float("nan"), 2.0):
        with pytest.raises(ValueError, match="integer >= 0"):
            cheb_w(n, 0.3)


def test_cheb4_smoother_consistency():
    lam = np.linspace(0.0, 1.0, 101)
    for k in (1, 2, 3, 6, 11):
        spec = PolynomialSpec.fourth_kind(k)
        assert np.allclose(spec.evaluate(lam), _fourth_kind(k, lam), atol=1e-12)


def test_fourth_kind_roots_are_zeros():
    for k in (1, 2, 5, 9):
        spec = PolynomialSpec.fourth_kind(k)
        assert np.max(np.abs(_fourth_kind(k, spec.roots))) < 1e-12
        i = np.arange(1, k + 1)
        assert np.allclose(spec.roots, np.sin(i * np.pi / (2 * k + 1)) ** 2, atol=1e-14)


def test_weighted_equioscillation():
    # sqrt(lam) |p_k| attains 1/(2k+1) at the k+1 points where the shifted
    # sine hits +-1, with alternating signs
    for k in (1, 2, 3, 8, 15):
        j = np.arange(k + 1)
        theta = (2 * j + 1) * np.pi / (2 * k + 1)
        lam = np.sin(theta / 2.0) ** 2
        vals = np.sqrt(lam) * _fourth_kind(k, lam)
        assert np.allclose(np.abs(vals), 1.0 / (2 * k + 1), atol=1e-12)
        assert np.all(vals[:-1] * vals[1:] < 0.0)
        grid = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 4001)))
        sup = np.max(np.sqrt(grid) * np.abs(_fourth_kind(k, grid)))
        assert sup <= 1.0 / (2 * k + 1) + 1e-12


def test_spec_validation():
    with pytest.raises(ValueError, match="roots must be positive"):
        PolynomialSpec(np.array([-0.5]))
    with pytest.raises(ValueError, match="1-D"):
        PolynomialSpec(np.full((2, 2), 0.5))
    with pytest.raises(TypeError):  # the roots are required
        PolynomialSpec()
    with pytest.raises(TypeError):  # the expansion is computed from the roots, never given
        PolynomialSpec(cheb4_coeffs=np.array([0.0, 1.0 / 3.0]), roots=np.array([0.75]))
    # np.arange(1, 3.5) would silently give a degree-3 polynomial for k = 2.5
    for k in (0, 2.5, np.nan, np.inf, True):
        with pytest.raises(ValueError, match="integer >= 1"):
            PolynomialSpec.fourth_kind(k)


@pytest.mark.parametrize("build, match", [
    (lambda: PolynomialSpec([np.nan, 0.5]), "roots must be finite"),
    (lambda: PolynomialSpec([np.inf, 0.5]), "roots must be finite"),
    (lambda: PolynomialSpec([np.nan]), "roots must be finite"),
], ids=["nan-root", "inf-root", "nan-root-given"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spec_rejects_non_finite_input(build, match):
    # NaN passes `r <= 0` as False; the roots are checked before p is
    # evaluated at them, so nothing warns
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("root", [1e-3, 1e-2, 1e3], ids=["underflow", "subnormal", "overflow"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spec_rejects_roots_whose_product_is_not_a_normal_float(root):
    # p = prod_i (r_i - lam) / prod_i r_i divides by the product: 1e-450,
    # 1e-320 and 1e450 at k = 150 and 160; the check names it before numpy warns
    k = 160 if root == 1e-2 else 150
    with pytest.raises(ValueError, match="product of the roots"):
        PolynomialSpec(np.full(k, root))


def test_simple_polynomial_evaluates():
    lam = np.linspace(0.0, 1.0, 33)
    spec = _damped(1.5, 3)
    assert np.allclose(spec.evaluate(lam), (1.0 - 1.5 * lam) ** 3, atol=1e-14)
    assert _damped(1.0, 0).evaluate(0.7) == 1.0


@pytest.mark.parametrize("k", [1, 50, 200])
def test_product_form_multiplies_in_root_order(k, optimal_states):
    # pins the order of the product: r_0 - lam, r_1 - lam, ... left to right
    roots = optimal_states[k - 1].roots
    lam = np.linspace(0.0, 1.0, 35).reshape(5, 7)

    def in_order(x):
        return functools.reduce(operator.mul, (r - x for r in roots)) / np.prod(roots)

    for x in (lam[2, 3], lam[1], lam):
        assert np.array_equal(_product_form(x, roots), in_order(x))
    # equal floats in rows and at once
    assert np.array_equal(_product_form(lam, roots), [_product_form(row, roots) for row in lam])


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.floats(1.0, 3.0), min_size=1, max_size=40),
       top=st.floats(0.05, 1.5))
def test_expansion_of_roots_matches_product_form(gaps, top):
    # the Gauss rule gives alpha_0..alpha_{k-1} and the leading coefficient
    # alpha_k; a wrong node, weight or basis shows up as a mismatch
    roots = np.cumsum(gaps) / np.sum(gaps) * top
    spec = PolynomialSpec(roots)
    lam = np.linspace(0.0, 1.0, 257)
    by_roots = spec.evaluate(lam)
    by_coeffs = fourth_kind_sum(spec.cheb4_coeffs, lam)
    scale = max(1.0, float(np.max(np.abs(by_roots))))
    assert np.max(np.abs(by_coeffs - by_roots)) <= 1e-10 * scale
    assert _beta_error(roots) <= 1e-12


def test_expansion_of_roots_matches_gauss_rule_recurrence(optimal_states):
    # the optimal betas lie in [1, 1.6), so this error is absolute
    for state in optimal_states:
        assert _beta_error(state.roots) <= 1e-12, state.degree


def _gathered_sine_alphas(roots):
    """``alpha_0..alpha_{k-1}`` as the gathered k x k sine matrix times the weighted values."""
    k = len(roots)
    n = 2 * k + 1
    sines = np.sin(np.arange(2 * n) * (np.pi / n))  # sin(m pi / n), period 2n in m
    i = np.arange(1, k + 1)
    weighted = sines[i] * _product_form(sines[i] ** 2, roots)
    return sines[np.outer(2 * i - 1, i) % (2 * n)] @ weighted * (4.0 / n)


def test_fft_expansion_matches_the_gathered_sine_sum(optimal_states):
    # one real FFT of length 2(2k+1) against the sum it replaces; measured: 2.0e-15
    for state in optimal_states:
        reference = _gathered_sine_alphas(state.roots)
        alphas = PolynomialSpec(state.roots).cheb4_coeffs[:-1]
        assert np.max(np.abs(alphas - reference)) <= 1e-14 * np.max(np.abs(reference)), state.degree


def test_derivative_at_zero_representations_agree():
    # (1 - p(lam)) / lam tends to -p'(0) = sum_i 1/r_i = (2/3) k (k+1); one_minus keeps
    # it accurate at tiny lam, and the roots sin^2(i pi/(2k+1)) are accurate to the last bits
    lam = 1e-20
    for k in range(1, 201):
        slope = one_minus(PolynomialSpec.fourth_kind(k), lam) / lam
        assert slope == pytest.approx((2.0 / 3.0) * k * (k + 1), rel=1e-14), k


def test_one_minus_matches_direct_form():
    lam = np.linspace(0.0, 1.0, 101)
    for spec in (PolynomialSpec.fourth_kind(5), optimal_polynomial(3),
                 _damped(1.5, 3), _damped(1.0, 0)):
        assert np.allclose(one_minus(spec, lam), 1.0 - spec.evaluate(lam), rtol=0.0, atol=1e-13)


def test_gamma_examples():
    # classic values: damped Jacobi at omega = 1 and 3/2, fourth kind at k = 1; at omega = 1,
    # p = 1 - lam gives lam p^2 / (1 - p^2) = (1 - lam)^2 / (2 - lam), decreasing on (0, 1]
    assert gamma_mu(_damped(1.0, 1)) == pytest.approx(0.5, rel=1e-12)
    assert gamma_mu(_damped(1.5, 1)) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert gamma_mu(PolynomialSpec.fourth_kind(1)) == pytest.approx(3.0 / 8.0, abs=1e-10)


def test_gamma_fourth_kind_closed_form():
    for k in range(1, 11):
        expected = 3.0 / ((2 * k + 1) ** 2 - 1)
        assert gamma_mu(PolynomialSpec.fourth_kind(k)) == pytest.approx(expected, rel=1e-9)


def test_gamma_dominates_pointwise():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        roots = rng.uniform(0.6, 3.0, size=k)
        spec = PolynomialSpec(roots)
        g = gamma_mu(spec)
        lam = rng.uniform(1e-6, 1.0, size=50)
        pv = spec.evaluate(lam)
        assert np.all(lam * pv * pv / (1.0 - pv * pv) <= g + 1e-12)


def test_gamma_rejects_invalid_polynomial():
    # p = 1 - 2 lam hits |p| = 1 at lam = 1
    with pytest.raises(ValueError, match="not a valid smoother"):
        gamma_mu(PolynomialSpec(np.array([0.5])))

"""Polynomial smoother iterations against eigendecomposition oracles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import beta_polynomial, cheb_w
from polymg.linalg import as_csr
from polymg.optpoly import optimal_polynomial
from polymg.poly import PolynomialSpec
from polymg.smoothers import DiagonalSmoother, SmootherConfig, apply_smoother


def _setup(n, seed):
    """Random sparse-format SPD system with exact Jacobi spectral data."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A_dense = M @ M.T + n * np.eye(n)
    A = as_csr(sp.csr_array(A_dense))
    invd = 1.0 / np.diag(A_dense)
    s = np.sqrt(invd)
    evals, U = scipy.linalg.eigh(s[:, None] * A_dense * s[None, :])
    rho = float(evals[-1])
    B = DiagonalSmoother(inverse_diagonal=invd, rho_BA=rho)
    return A, B, s, evals / rho, U


def _simple(A, B, x, b, omega, k):
    return apply_smoother(A, B, x.copy(), b, SmootherConfig.simple(omega, k))


def _cheb4(A, B, x, b, k):
    return apply_smoother(A, B, x.copy(), b, SmootherConfig.cheb4(k))


def _opt(A, B, x, b, betas):
    return apply_smoother(A, B, x.copy(), b, SmootherConfig.optimized(betas))


def _apply_poly(p_vals, s, U, e):
    # p(BA) e through the eigendecomposition of the symmetrized operator
    return s * (U @ (p_vals * (U.T @ (e / s))))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_simple_realizes_damped_polynomial(k):
    A, B, s, lam, U = _setup(25, seed=40 + k)
    rng = np.random.default_rng(k)
    x_star = rng.standard_normal(25)
    b = A @ x_star
    x0 = rng.standard_normal(25)
    for omega in (1.0, 4.0 / 3.0, 1.5):
        out = _simple(A, B, x0, b, omega, k)
        expected = x_star + _apply_poly((1.0 - omega * lam) ** k, s, U, x0 - x_star)
        assert np.max(np.abs(out - expected)) < 1e-10 * np.linalg.norm(x0 - x_star)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_cheb4_realizes_shifted_chebyshev(k):
    A, B, s, lam, U = _setup(25, seed=60 + k)
    rng = np.random.default_rng(k)
    x_star = rng.standard_normal(25)
    b = A @ x_star
    x0 = rng.standard_normal(25)
    out = _cheb4(A, B, x0, b, k)
    p_vals = cheb_w(k, 1.0 - 2.0 * lam) / (2 * k + 1)
    expected = x_star + _apply_poly(p_vals, s, U, x0 - x_star)
    assert np.max(np.abs(out - expected)) < 1e-10 * np.linalg.norm(x0 - x_star)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_opt_realizes_beta_polynomial(k):
    A, B, s, lam, U = _setup(22, seed=80 + k)
    betas = optimal_polynomial(k).iteration_betas
    rng = np.random.default_rng(k + 7)
    x_star = rng.standard_normal(22)
    b = A @ x_star
    x0 = rng.standard_normal(22)
    out = _opt(A, B, x0, b, betas)
    expected = x_star + _apply_poly(beta_polynomial(betas, lam), s, U, x0 - x_star)
    assert np.max(np.abs(out - expected)) < 1e-10 * np.linalg.norm(x0 - x_star)


@pytest.mark.parametrize("k", [6, 50, 100, 200])
def test_iteration_realizes_its_polynomial_at_large_degree(k):
    # on diag(lam) with B = I and rho = 1, k steps from x = 1 with b = 0 leave p(lam)
    lam = np.arange(1, 2401) / 2400.0
    A = as_csr(sp.diags_array(lam))
    B = DiagonalSmoother(inverse_diagonal=np.ones(lam.size), rho_BA=1.0)
    x, b = np.ones(lam.size), np.zeros(lam.size)
    cheb = _cheb4(A, B, x, b, k)
    assert np.max(np.abs(cheb - PolynomialSpec.fourth_kind(k).evaluate(lam))) <= 1e-13
    spec = optimal_polynomial(k)
    opt = _opt(A, B, x, b, spec.iteration_betas)
    assert np.max(np.abs(opt - spec.evaluate(lam))) <= 1e-13


def test_fixed_point_is_preserved():
    A, B, _, _, _ = _setup(18, seed=5)
    rng = np.random.default_rng(9)
    x_star = rng.standard_normal(18)
    b = A @ x_star
    assert np.array_equal(_simple(A, B, x_star, b, 1.2, 3), x_star)
    assert np.array_equal(_cheb4(A, B, x_star, b, 4), x_star)
    assert np.array_equal(_opt(A, B, x_star, b, np.array([1.1, 1.2])), x_star)


def test_simple_zero_steps_copies():
    A, B, _, _, _ = _setup(10, seed=6)
    x = np.arange(10, dtype=float)
    out = _simple(A, B, x, np.zeros(10), 1.0, 0)
    assert np.array_equal(out, x)
    assert out is not x


def test_cheb4_k1_matches_simple_four_thirds():
    A, B, _, _, _ = _setup(20, seed=12)
    rng = np.random.default_rng(13)
    x, b = rng.standard_normal(20), rng.standard_normal(20)
    assert np.allclose(_cheb4(A, B, x, b, 1),
                       _simple(A, B, x, b, 4.0 / 3.0, 1), rtol=1e-13, atol=0)


def test_opt_k1_matches_simple_three_halves():
    A, B, _, _, _ = _setup(20, seed=14)
    rng = np.random.default_rng(15)
    x, b = rng.standard_normal(20), rng.standard_normal(20)
    assert np.allclose(_opt(A, B, x, b, np.array([9.0 / 8.0])),
                       _simple(A, B, x, b, 1.5, 1), rtol=1e-13, atol=0)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_unit_betas_reproduce_cheb4_exactly(k):
    A, B, _, _, _ = _setup(24, seed=20 + k)
    rng = np.random.default_rng(k)
    x, b = rng.standard_normal(24), rng.standard_normal(24)
    assert np.array_equal(_opt(A, B, x, b, np.ones(k)),
                          _cheb4(A, B, x, b, k))


def test_error_propagator_is_a_self_adjoint():
    A, B, _, _, _ = _setup(16, seed=30)
    rng = np.random.default_rng(31)
    u, v = rng.standard_normal(16), rng.standard_normal(16)
    zero = np.zeros(16)
    for smoothed in (
        lambda w: _cheb4(A, B, w, zero, 3),
        lambda w: _simple(A, B, w, zero, 1.4, 2),
        lambda w: _opt(A, B, w, zero, optimal_polynomial(2).iteration_betas),
    ):
        lhs = (A @ smoothed(u)) @ v
        rhs = u @ (A @ smoothed(v))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_smoothing_contracts_energy_norm():
    A, B, _, _, _ = _setup(16, seed=33)
    rng = np.random.default_rng(34)
    u = rng.standard_normal(16)
    zero = np.zeros(16)
    norm0 = u @ (A @ u)
    for out in (
        _cheb4(A, B, u, zero, 2),
        _simple(A, B, u, zero, 1.0, 1),
        _opt(A, B, u, zero, optimal_polynomial(3).iteration_betas),
    ):
        assert out @ (A @ out) < norm0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    betas=st.lists(st.floats(min_value=1.0, max_value=1.6, exclude_max=True),
                   min_size=1, max_size=8),
)
def test_apply_smoother_realizes_random_beta_polynomial(n, seed, betas):
    A, B, s, lam, U = _setup(n, seed)
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(n)
    b = A @ x_star
    x0 = rng.standard_normal(n)
    out = _opt(A, B, x0, b, betas)
    expected = x_star + _apply_poly(beta_polynomial(betas, lam), s, U, x0 - x_star)
    assert np.max(np.abs(out - expected)) < 1e-10 * np.linalg.norm(x0 - x_star)
    k = len(betas)
    assert np.array_equal(_opt(A, B, x0, b, np.ones(k)), _cheb4(A, B, x0, b, k))


def test_apply_smoother_updates_x_in_place():
    A, B, _, _, _ = _setup(12, seed=38)
    rng = np.random.default_rng(39)
    x, b = rng.standard_normal(12), rng.standard_normal(12)
    b_before = b.copy()
    for cfg in (SmootherConfig.simple(1.3, 2), SmootherConfig.cheb4(3),
                SmootherConfig.optimized(optimal_polynomial(2).iteration_betas)):
        y = x.copy()
        assert apply_smoother(A, B, y, b, cfg) is y
        assert not np.array_equal(y, x)
        assert np.array_equal(b, b_before)


def test_smoother_config_steps():
    assert SmootherConfig.simple(1.25, 3).steps == ((0.0, 1.25, 1.0),) * 3
    # a_1 = -1/3 multiplies z_0 = 0, so it is stored as 0
    assert SmootherConfig.cheb4(2).steps == ((0.0, 4 / 3, 1.0), (1 / 5, 12 / 5, 1.0))
    opt = SmootherConfig.optimized([1.5, 1.25])
    assert [step[2] for step in opt.steps] == [1.5, 1.25]
    assert [step[:2] for step in opt.steps] == [step[:2] for step in SmootherConfig.cheb4(2).steps]


def test_configs_of_one_cycle_are_equal():
    # at k = 1 both run z = (4/3)(1/rho) B r once; from k = 2 on a_2 = 1/5 differs
    assert SmootherConfig.cheb4(1) == SmootherConfig.simple(4 / 3, 1)
    assert hash(SmootherConfig.cheb4(1)) == hash(SmootherConfig.simple(4 / 3, 1))
    for k in range(2, 7):
        assert SmootherConfig.cheb4(k) != SmootherConfig.simple(4 / 3, k)


@pytest.mark.parametrize("start", ["zero", "given"])
def test_the_first_step_never_reads_a(start):
    # the premise of storing a_1 as 0: the recurrence's a_1 = -1/3 gives the same bits
    A, B, _, _, _ = _setup(30, seed=3)
    rng = np.random.default_rng(4)
    b, x0 = rng.standard_normal(30), rng.standard_normal(30)
    for cfg in (SmootherConfig.cheb4(3), SmootherConfig.optimized([1.25, 1.5, 1.125])):
        full = SmootherConfig(((-1 / 3, *cfg.steps[0][1:]),) + cfg.steps[1:])
        runs = [apply_smoother(A, B, None if start == "zero" else x0.copy(), b, c)
                for c in (cfg, full)]
        assert np.array_equal(*runs)


def test_fourth_kind_betas_give_cheb4_steps():
    # the roots are the Gauss nodes to the bit, so the expansion is alpha_k e_k
    # and every beta is exactly one; from k = 512 4^k overflows, alpha_k does not
    for k in (*range(1, 201), *range(512, 517)):
        spec = PolynomialSpec.fourth_kind(k)
        assert np.array_equal(spec.cheb4_coeffs[:k], np.zeros(k))
        betas = spec.iteration_betas
        assert np.array_equal(betas, np.ones(k))
        assert SmootherConfig.optimized(betas).steps == SmootherConfig.cheb4(k).steps


def test_smoother_config_validation():
    with pytest.raises(ValueError):
        SmootherConfig.simple(2.0, 1)
    with pytest.raises(ValueError):
        SmootherConfig.cheb4(0)
    with pytest.raises(ValueError):
        SmootherConfig.simple(1.0, -1)
    with pytest.raises(ValueError):
        SmootherConfig.simple(float("nan"), 1)
    # a degree is an integer: True is not one step, 2.5 and nan are no degree
    for k in (2.5, True, float("nan")):
        with pytest.raises(ValueError, match="integer >= 0"):
            SmootherConfig.simple(1.0, k)
        with pytest.raises(ValueError, match="integer >= 1"):
            SmootherConfig.cheb4(k)
    with pytest.raises(ValueError):
        SmootherConfig.optimized(np.ones((2, 2)))
    with pytest.raises(ValueError):
        SmootherConfig.optimized([])
    # a non-finite beta would otherwise surface as NaN in the cycle
    for betas in ([np.nan, 1.2], [np.inf], [1.1, -np.inf]):
        with pytest.raises(ValueError, match="finite betas"):
            SmootherConfig.optimized(betas)


def test_diagonal_smoother_validation():
    with pytest.raises(ValueError):
        DiagonalSmoother(inverse_diagonal=np.array([1.0, -1.0]), rho_BA=1.0)
    with pytest.raises(ValueError):
        DiagonalSmoother(inverse_diagonal=np.ones(3), rho_BA=0.0)
    with pytest.raises(ValueError, match="positive 1-D"):
        DiagonalSmoother(inverse_diagonal=[np.nan, 1.0], rho_BA=1.0)
    for d, rho in (([np.inf, 1.0], np.inf), (np.ones(2), np.nan), (np.ones(2), np.inf)):
        with pytest.raises(ValueError, match="rho"):
            DiagonalSmoother(inverse_diagonal=d, rho_BA=rho)
    B = DiagonalSmoother(inverse_diagonal=[1, 2, 3, 4], rho_BA=1.5)
    assert B.inverse_diagonal.dtype == np.float64 and B.inverse_diagonal.shape == (4,)

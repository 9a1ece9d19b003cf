"""Closed-form contraction bounds, sharp refinements, and their constants."""

import math

import numpy as np
import pytest

from polymg.bounds import (
    beta_constant,
    bound_cheb,
    bound_cheb_sharp,
    bound_cheb_two_level,
    bound_opt_conjecture,
    bound_simple,
    cheb_sharp_exact_discount,
    crossover_C,
    limit_constants,
    omega_condition_holds,
    omega_max_asymptotic,
    omega_max_exact,
    opt_gamma_inv_estimate,
    sharp_constants,
    sharp_f_factor,
    sharp_g_factor,
)

C_GRID = np.concatenate([np.linspace(1.0, 10.0, 19), [20.0, 50.0, 120.0, 200.0]])
C_GEOMETRIC = np.geomspace(1.0, 1e12, 97)  # 8 points per decade


def test_bound_simple_examples():
    value, valid = bound_simple(2.0, 4.0 / 3.0, 1)
    assert value == pytest.approx(3.0 / 7.0, abs=1e-15)
    assert valid
    assert not bound_simple(2.0, 1.9, 1).valid
    for k in (0, 2.5, math.nan, math.inf, True):
        with pytest.raises(ValueError):
            bound_simple(2.0, 4.0 / 3.0, k)


def test_omega_condition_boundary_exact_at_k1():
    # (1 - 3/2)^2 = 1/4 = 1/(1 + 3) holds with equality, exactly in floats
    assert omega_condition_holds(1.5, 1)
    assert not omega_condition_holds(1.5 + 1e-9, 1)
    assert all(omega_condition_holds(1.5, k) for k in range(1, 101))
    assert omega_condition_holds(1.0, 50)


def test_omega_max_exact_reference_values():
    assert omega_max_exact(1) == pytest.approx(1.5, abs=1e-12)
    assert omega_max_exact(10) == pytest.approx(1.83405337, abs=1e-7)
    assert omega_max_exact(50) == pytest.approx(1.94859440, abs=1e-7)
    assert omega_max_exact(100) == pytest.approx(1.97054665, abs=1e-7)


def test_omega_max_properties():
    for k in (1, 3, 10, 40):
        w = omega_max_exact(k)
        assert omega_condition_holds(w - 1e-9, k)
        assert not omega_condition_holds(w + 1e-9, k)
    assert omega_max_asymptotic(1) == pytest.approx(2.0 - math.log(4.0) / 2.0, abs=1e-15)
    gaps = [abs(omega_max_exact(k) - omega_max_asymptotic(k)) for k in (1, 10, 50, 100)]
    assert gaps[0] == pytest.approx(1.931472e-01, abs=1e-6)
    assert gaps[1] == pytest.approx(1.849734e-02, abs=1e-6)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_omega_max_remainder_follows_its_expansion():
    # omega = 2 - delta in (omega - 1)^{2k} (1 + 2 omega k) = 1, expanded in 1/k with
    # L = log 4k, gives exact - asymptotic = T2 - T3 + T4 - T5 + ..., where
    #   T2 = (L^2 + L - 1) / (8 k^2),             T3 = (4 L^3 + 15 L^2 - 9) / (192 k^3),
    #   T4 = (2 L^4 + 18 L^3 + 27 L^2 - 12 L - 11) / (768 k^4),
    #   T5 = (8 L^5 + 135 L^4 + 530 L^3 + 360 L^2 - 370 L - 125) / (30720 k^5).
    # For k >= 10 the terms are positive and shrink, so the alternating rest after T3
    # lies in [0, T4].  omega_max_exact bisects to a width of 1e-14, which bounds its
    # error and the rounding of the values subtracted here.
    allowed = 1e-14
    for k in (10, 50, 100, 200, 1000, 10000):
        L = math.log(4.0 * k)
        t2 = (L * L + L - 1.0) / (8.0 * k ** 2)
        t3 = (4.0 * L ** 3 + 15.0 * L * L - 9.0) / (192.0 * k ** 3)
        t4 = (2.0 * L ** 4 + 18.0 * L ** 3 + 27.0 * L * L - 12.0 * L - 11.0) / (768.0 * k ** 4)
        t5 = (8.0 * L ** 5 + 135.0 * L ** 4 + 530.0 * L ** 3 + 360.0 * L * L
              - 370.0 * L - 125.0) / (30720.0 * k ** 5)
        assert t2 > t3 > t4 > t5 > 0.0, k
        rest = omega_max_exact(k) - omega_max_asymptotic(k) - (t2 - t3)
        assert -allowed <= rest <= t4 + allowed, (k, rest, t4)


def test_cheb_and_two_level_arithmetic():
    assert bound_cheb(2.0, 3) == pytest.approx(2.0 / 18.0, abs=1e-15)
    assert bound_cheb_two_level(2.0, 3) == pytest.approx(2.0 / 49.0, abs=1e-15)
    assert bound_cheb_two_level(8.0, 4) <= bound_cheb(8.0, 4)
    assert bound_opt_conjecture(2.0, 1) == pytest.approx(0.4015, abs=1e-4)
    assert opt_gamma_inv_estimate(1) == pytest.approx(36.0 / math.pi ** 2 - 2.0 / 3.0, abs=1e-13)


def test_opt_conjecture_asymptotic_gain():
    # denominator growth beats the plain Chebyshev bound by pi^2/12
    k = 4000
    ratio = ((4.0 / math.pi ** 2) * (2 * k + 1) ** 2 - 2.0 / 3.0) / ((4.0 / 3.0) * k * (k + 1))
    assert ratio == pytest.approx(12.0 / math.pi ** 2, abs=1e-3)


def test_limit_constants_frozen():
    lc = limit_constants()
    assert beta_constant() == pytest.approx(0.650914713503148, abs=1e-12)
    assert lc.w == pytest.approx(0.9548764907235335, abs=1e-12)
    assert lc.y == pytest.approx(0.349085286496852, abs=1e-12)
    assert lc.phi_star == pytest.approx(1.996614447282192, abs=1e-12)
    assert lc.lambda_star == 0.0
    assert beta_constant() == 1.0 - lc.y
    assert lc.y == pytest.approx(1.0 / (3.0 * lc.w), rel=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 10, 50], ids=lambda k: str(2 * k + 1))  # id: n = 2k+1
def test_sharp_constants_invariants(k):
    sc = sharp_constants(k)
    assert 0.0 < sc.w < limit_constants().w
    assert 0.0 < sc.y < 0.35
    assert 0.0 < sc.lambda_star < 1.0
    assert 1.5 < sc.phi_star < 2.0


def test_sharp_constants_approach_limits():
    sc = sharp_constants(5000)
    lc = limit_constants()
    assert sc.w == pytest.approx(lc.w, abs=1e-8)
    assert sc.y == pytest.approx(lc.y, abs=1e-8)
    assert sc.phi_star == pytest.approx(lc.phi_star, abs=1e-10)
    with pytest.raises(ValueError):
        sharp_constants(0)


def test_sharp_f_factor_example():
    # n = 7 branch point: f = (1 + 65/702)(1 - 80/502)
    expected = (1.0 + 65.0 / 702.0) * (1.0 - 80.0 / 502.0)
    assert sharp_f_factor(2.0, 3) == pytest.approx(expected, abs=1e-15)
    assert sharp_f_factor(2.0, 3) == pytest.approx(0.9184742511435738, abs=1e-12)


def test_sharp_f_factor_range_and_limit():
    cap = (2.0 / 3.0) / beta_constant()
    for C in C_GRID:
        for k in range(1, 51):
            f = sharp_f_factor(float(C), k)
            assert -1e-12 <= f <= cap + 1e-12
    assert sharp_f_factor(2.0, 5000) == pytest.approx(1.0, abs=1e-4)


def test_bound_cheb_sharp_example_and_dominance():
    assert bound_cheb_sharp(2.0, 3) == pytest.approx(0.08057346174841001, abs=1e-12)
    for C in C_GRID:
        for k in range(1, 51):
            assert bound_cheb_sharp(float(C), k) <= bound_cheb(float(C), k)


def test_bound_cheb_sharp_is_finite_up_to_the_float_range():
    # the large-C factor (1 + 2C)/(32 C^2 - 10) was inf/inf, so nan, from C ~ 9e307
    for C in (1e153, 1e300, 1.7e308):
        for k in (1, 6, 200):
            assert 0.0 < bound_cheb_sharp(C, k) <= 1.0, (C, k)


def test_sharp_g_factor():
    assert sharp_g_factor(1.0) == 1.0
    # g and its lower bound agree to O(1/C^2) relative, so the check is relative
    for C in np.concatenate([C_GRID, C_GEOMETRIC]):
        lower = (2.0 + 4.0 * C) / (16.0 * C * C - 5.0)
        assert sharp_g_factor(float(C)) >= lower * (1.0 - 1e-12), C


def test_exact_discount_branches():
    for k in (1, 2, 5, 20):
        sc = sharp_constants(k)
        # C = 1 falls in the non-explicit branch and simplifies to 1 - y
        assert cheb_sharp_exact_discount(1.0, k) == pytest.approx(1.0 - sc.y, rel=1e-13)
        C = 2.0 / (sc.lambda_star * (2.0 - sc.lambda_star))  # explicit branch
        expected = (1.0 - sc.y) / sc.lambda_star * sharp_g_factor(C)
        assert cheb_sharp_exact_discount(C, k) == pytest.approx(expected, rel=1e-13)


def test_exact_discount_dominates_estimate():
    beta = beta_constant()
    # the discounts fall like 1/C, so the comparison is relative
    for C in np.concatenate([np.linspace(1.0, 200.0, 25), C_GEOMETRIC]):
        for k in (1, 2, 3, 5, 10, 30, 50):
            discount = cheb_sharp_exact_discount(float(C), k)
            assert discount >= beta * sharp_f_factor(float(C), k) * (1.0 - 1e-12), (C, k)


def test_exact_discount_tends_to_beta():
    beta = beta_constant()
    d500 = cheb_sharp_exact_discount(2.0, 500)
    d2000 = cheb_sharp_exact_discount(2.0, 2000)
    assert d500 < beta and d2000 < beta
    assert abs(d500 - beta) < 3e-6
    assert abs(d2000 - beta) < abs(d500 - beta)


def test_bounds_monotone_and_in_unit_interval():
    cs = np.linspace(1.0, 150.0, 40)
    variants = [
        lambda C, k: bound_simple(C, 4.0 / 3.0, k).value,
        lambda C, k: bound_simple(C, 1.5, k).value,
        bound_cheb,
        bound_cheb_sharp,
        bound_opt_conjecture,
    ]
    for fn in variants:
        for k in (1, 2, 4, 8):
            vals = np.array([fn(float(C), k) for C in cs])
            assert np.all(np.diff(vals) >= -1e-15)  # nondecreasing in C
            assert np.all((vals > 0.0) & (vals <= 1.0))
        for C in (1.0, 2.0, 30.0):
            vals = np.array([fn(C, k) for k in range(1, 12)])
            assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing in k
    # the two-level bound is linear in C up to (2k+1)^2 and the trivial bound 1 above it
    for k in (1, 2, 4, 8):
        vals = np.array([bound_cheb_two_level(float(C), k) for C in cs])
        assert np.array_equal(vals, np.minimum(1.0, cs / (2 * k + 1) ** 2))


def test_simple_tradeoff_prefers_fewer_steps():
    # (C/(C+2wk))^2 <= C/(C+2w(2k)): two cheap cycles beat one doubled cycle
    for C in C_GRID:
        for omega in (0.5, 1.0, 4.0 / 3.0, 1.5):
            for k in range(0, 11):
                two_cycles = (C / (C + 2.0 * omega * k)) ** 2
                one_doubled = C / (C + 2.0 * omega * (2 * k))
                assert two_cycles <= one_doubled + 1e-15


def test_cheb_tradeoff_threshold():
    # with the degree-2k coefficient (4/3)(2k)(2k+1), doubling the degree
    # beats squaring the bound exactly when (2/3)(k+1)^2 <= C; the stated
    # sufficient condition also covers the looser printed coefficient
    for k in range(1, 7):
        threshold = (2.0 / 3.0) * (k + 1) ** 2
        for C in np.linspace(1.0, 60.0, 119):
            one_doubled = C / (C + (4.0 / 3.0) * (2 * k) * (2 * k + 1))
            two_cycles = (C / (C + (4.0 / 3.0) * k * (k + 1))) ** 2
            if C >= threshold + 1e-9:
                assert one_doubled <= two_cycles
            elif C <= threshold - 1e-9:
                assert one_doubled > two_cycles
            loose = C / (C + (4.0 / 3.0) * (2 * k) * (4 * k + 1))
            if C >= threshold:
                assert loose <= two_cycles


def test_crossover_constant():
    c = crossover_C()
    assert c == pytest.approx(3.666444188127241, abs=1e-9)
    assert c == pytest.approx(beta_constant() / (1.0 - math.pi ** 2 / 12.0), rel=1e-15)
    # below the crossover the sharp bound wins at large degree, above it loses
    for k in (50, 100, 200):
        assert bound_cheb_sharp(2.0, k) < bound_opt_conjecture(2.0, k)
        assert bound_cheb_sharp(8.0, k) > bound_opt_conjecture(8.0, k)


def test_input_validation():
    with pytest.raises(ValueError):
        bound_cheb(0.9, 1)
    for C in (math.inf, math.nan):  # each would give a nan bound
        with pytest.raises(ValueError, match="finite"):
            bound_cheb(C, 3)
    # each would give nan (nan), 0.0 (inf) or a bound for no polynomial (2.5, True)
    sharp_constants(np.int64(1))  # a cached key that True equals: True must still be rejected
    for k in (0, 2.5, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="integer >= 1"):
            sharp_constants(k)
        for bound in (bound_cheb, bound_opt_conjecture, bound_cheb_sharp,
                      cheb_sharp_exact_discount):
            with pytest.raises(ValueError, match="integer >= 1"):
                bound(2.0, k)
    with pytest.raises(ValueError):
        omega_condition_holds(2.5, 1)
    for omega in (-1.0, math.nan):  # -1 makes C + 2 omega k zero: omega is checked first
        with pytest.raises(ValueError, match="omega"):
            bound_simple(2.0, omega, 1)
    with pytest.raises(ValueError):
        sharp_g_factor(0.5)
    with pytest.raises(ValueError):
        cheb_sharp_exact_discount(0.99, 3)

"""Equioscillation-optimal smoother polynomials and their expansions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import beta_polynomial, fourth_kind_sum
from polymg import optpoly
from polymg.optpoly import find_extrema, optimal_polynomial, optimal_roots
from polymg.poly import PolynomialSpec, _product_form, _signed_p, gamma_mu
from polymg.scalar import bisect_root, golden_section_min

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
        p = PolynomialSpec(state.roots)
        # the level is attained at the k-1 interior extrema and at x = 1
        x = np.append(state.extrema, 1.0)
        pv = p.evaluate(x)
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


@pytest.mark.parametrize("roots", [
    [0.0, 0.5, 0.9],
    [-0.3, 0.5, 0.9],
    [0.2, math.nan, 0.9],
    [0.2, 0.5, math.inf],
])
def test_find_extrema_rejects_bad_roots(roots):
    message = "roots must be positive" if np.all(np.isfinite(roots)) else "roots must be finite"
    with pytest.raises(ValueError, match=message):
        find_extrema(roots)


@pytest.mark.parametrize("roots", [np.linspace(1e-3, 2e-3, 150), np.linspace(0.5, 600.0, 150)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_find_extrema_rejects_roots_whose_product_leaves_the_float_range(roots):
    # g forms p = prod(x - r) / prod(r), which needs prod(r) in the normal range
    with pytest.raises(ValueError, match="normal float"):
        find_extrema(roots)


def test_find_extrema_rejects_bad_guesses():
    roots = [0.2, 0.5, 0.9]
    for guesses in ([0.3], [math.nan, 0.7], [0.3, math.inf]):
        with pytest.raises(ValueError, match="k-1 finite extremum guesses"):
            find_extrema(roots, guesses)


@pytest.mark.parametrize("k", [5, 50, 200])
def test_find_extrema_keeps_converged_newton_steps(k, monkeypatch):
    # a gap whose Newton step is below tolerance is done and must not be
    # bisected: from converged extrema one evaluation suffices, from the
    # gap midpoints Newton needs a few
    state = optimal_roots(k)
    fused = optpoly._g_and_slope
    calls = []

    def counted(x, roots):
        calls.append(1)
        return fused(x, roots)

    monkeypatch.setattr(optpoly, "_g_and_slope", counted)
    find_extrema(state.roots, state.extrema)
    assert len(calls) <= 3
    calls.clear()
    find_extrema(state.roots)
    assert len(calls) <= 10


def _newton_system(roots, extrema):
    """``xs``, roots-major ``x - r``, ``F``, the row scale ``a = w |f|`` and ``f(0)``."""
    xs = np.append(extrema, 1.0)
    diff = xs - roots[:, None]
    p = _signed_p(diff, roots)
    w = xs / (1.0 - p * p)
    f_abs = np.sqrt(w) * np.abs(p)
    f0 = (2.0 * np.sum(1.0 / roots)) ** -0.5
    return xs, diff, f0 - f_abs, w * f_abs, f0


@pytest.mark.parametrize("k", [167, 168, 174, 175, 184, 187])
def test_stall_returns_the_best_iterate(k, monkeypatch):
    # at these degrees Newton stalls at the rounding floor; the iterate of
    # least residual is returned, the last one included (with one or two
    # BLAS threads it is the last at 175 and 184, an earlier one at 167, 168, 174 and 187)
    search = optpoly._search
    seen = []

    def spy(roots, x):
        extrema = search(roots, x)
        seen.append((roots, extrema))
        return extrema

    monkeypatch.setattr(optpoly, "_search", spy)
    state = optimal_roots(k)
    residuals = [np.max(np.abs(_newton_system(roots, extrema)[2])) for roots, extrema in seen]
    best = int(np.argmin(residuals))
    assert state.iterations == len(seen)
    if k in (167, 168, 174, 187):
        assert best < len(seen) - 1
    else:
        assert best == len(seen) - 1
    assert state.residual == min(residuals) == residuals[best]
    assert np.array_equal(state.roots, seen[best][0])
    assert np.array_equal(state.extrema, seen[best][1])


def _reference_newton_step(r, xs, diff, F, a, f0):
    """``optpoly._newton_step`` as it was before its lean rewrite, verbatim."""
    k = len(r)
    work = xs - xs[:, None]
    np.fill_diagonal(work, 1.0)
    alpha = np.prod(np.divide(diff, work, out=work), axis=0)
    np.subtract(r[:, None], r, out=work)
    np.fill_diagonal(work, -1.0)
    beta = np.prod(np.divide(diff.T, work, out=work), axis=0)
    np.reciprocal(diff, out=diff)
    rhs = np.stack([-F, np.ones(k)], axis=1) * (alpha / a)[:, None]
    z = (diff @ rhs) * (-beta * r)[:, None]
    uz = (f0 ** 3 / r ** 2) @ z
    return z[:, 0] - z[:, 1] * (uz[0] / (1.0 + uz[1]))


def _reference_optimal_roots(k):
    """``optimal_roots``' outer loop as it was before its lean rewrite, verbatim,
    on the public, input-checking ``find_extrema``."""
    r = optpoly._asymptotic_start(np.arange(1, k + 1), k)
    x_int = optpoly._asymptotic_start(np.arange(1, k) + 0.5, k)
    best = None
    stall = 0
    for outer in range(1, optpoly._NEWTON_MAX_ITER + 1):
        x_int = find_extrema(r, x_int)
        xs = np.concatenate([x_int, [1.0]])
        f0 = (2.0 * np.sum(1.0 / r)) ** -0.5
        diff = xs - r[:, None]
        p_xs = _signed_p(diff, r)
        w = xs / (1.0 - p_xs ** 2)
        f_abs = np.sqrt(w) * np.abs(p_xs)
        F = f0 - f_abs
        res = float(np.max(np.abs(F)))
        stall = stall + 1 if best is not None and res >= 0.5 * best[0] else 0
        if best is None or res < best[0]:
            best = res, r, x_int, float(f0)
        if res < optpoly._NEWTON_TOL or (stall >= 2 and best[0] <= 1e-11):
            res, r, x_int, f0 = best
            return optpoly.EquioscillationState(k, r, x_int, f0, res, outer)
        if stall >= 2:
            raise RuntimeError(f"equioscillation Newton stalled at residual {res:.3e} for k={k}")
        step = _reference_newton_step(r, xs, diff, F, w * f_abs, f0)
        r = r + step
        x_int = x_int + 0.5 * (step[:-1] + step[1:])
        if np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0) or r[-1] >= 1.0:
            raise RuntimeError(f"Newton step left the feasible root region for k={k}")
    raise RuntimeError("equioscillation Newton did not converge")


@pytest.mark.parametrize("k", [1, 2, 3, 6, 50, 167, 175, 200])
def test_optimal_roots_keeps_the_bits_of_the_checked_loop(k):
    # the lean loop checks each iterate once and searches without find_extrema's
    # checks; 167 and 175 stall, returning an earlier and the last iterate
    state, oracle = optimal_roots(k), _reference_optimal_roots(k)
    assert np.array_equal(state.roots, oracle.roots)
    assert np.array_equal(state.extrema, oracle.extrema)
    assert (state.degree, state.f0, state.residual, state.iterations) == (
        oracle.degree, oracle.f0, oracle.residual, oracle.iterations)


def test_nan_newton_step_leaves_the_feasible_region(monkeypatch):
    # a NaN root passes r <= 0, diff(r) <= 0 and r[-1] >= 1 alike; the guard must not
    monkeypatch.setattr(optpoly, "_newton_step", lambda r, *args: np.full(len(r), np.nan))
    for k in (1, 6):
        with pytest.raises(RuntimeError, match="left the feasible root region"):
            optimal_roots(k)


def test_optimal_roots_does_not_recheck_its_iterates(monkeypatch):
    # the loop checks its own iterates; find_extrema's _check_roots is for outside input
    calls = []
    monkeypatch.setattr(optpoly, "_check_roots", lambda r: calls.append(1))
    assert optimal_roots(50).residual <= 1e-11
    assert calls == []


def test_roots_follow_their_asymptotic_law():
    # arcsin(sqrt(r_i)) = theta_i sqrt(1 - 1/(4 i^2)) with theta_i = i pi/(2k+1)
    k = 200
    i = np.arange(1, 5)
    theta = i * np.pi / (2 * k + 1)
    ratio = np.arcsin(np.sqrt(optimal_roots(k).roots[:4])) / theta
    assert np.all(np.abs(ratio - np.sqrt(1.0 - 1.0 / (4.0 * i * i))) < 1e-4)


@pytest.mark.parametrize("k, bound", [(50, 3e-7), (100, 7e-8), (200, 2e-8)])
def test_newton_start_is_close_to_the_roots(k, bound, optimal_states):
    # measured: 1.4e-7, 3.4e-8 and 8.4e-9; without the correction g/(2k+1)^2 the
    # leading law alone is 8.1e-5, 2.0e-5 and 5.1e-6 away
    start = optpoly._asymptotic_start(np.arange(1, k + 1), k)
    assert np.max(np.abs(start / optimal_states[k - 1].roots - 1.0)) <= bound


def test_newton_steps_over_the_supported_degrees(optimal_states):
    # 587 from the two-term start law (2 to 4 per degree), 832 from the leading term alone
    assert sum(state.iterations for state in optimal_states) <= 680


@pytest.mark.parametrize("k", [1, 2, 3, 6, 50, 200])
@pytest.mark.parametrize("start", ["law", "perturbed"])
def test_newton_step_matches_the_dense_solve(k, start, optimal_states):
    # the closed-form Cauchy solve against LAPACK on the assembled Jacobian
    # J_ij = f0^3/r_j^2 + a_i/(r_j (x_i - r_j)); measured: at most 4.6e-15
    if start == "law":
        roots = optpoly._asymptotic_start(np.arange(1, k + 1), k)
        guesses = optpoly._asymptotic_start(np.arange(1, k) + 0.5, k)
    else:
        state = optimal_states[k - 1]
        roots = state.roots * (1.0 + 1e-9 * np.cos(np.arange(k)))
        guesses = state.extrema
    xs, diff, F, a, f0 = _newton_system(roots, find_extrema(roots, guesses))
    jacobian = f0 ** 3 / roots ** 2 + a[:, None] / (roots * (xs[:, None] - roots))
    dense = np.linalg.solve(jacobian, -F)
    step = optpoly._newton_step(roots, xs, diff, F, a, f0)
    assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_newton_needs_no_dense_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    assert optimal_roots(50).residual <= 1e-11


def test_extremum_evaluations_over_the_supported_degrees(monkeypatch):
    # 1042 with each interior extremum started from its last position moved by
    # the mean step of its two roots, 1129 from its last position alone
    fused = optpoly._g_and_slope
    calls = []

    def counted(x, roots):
        calls.append(1)
        return fused(x, roots)

    monkeypatch.setattr(optpoly, "_g_and_slope", counted)
    for k in range(1, 201):
        optimal_roots(k)
    assert len(calls) <= 1080


@pytest.mark.parametrize("k", [5, 50])
def test_g_slope_matches_central_difference(k):
    roots = optimal_roots(k).roots
    gap = np.diff(roots)
    step = 1e-6 * gap
    for t in (0.2, 0.5, 0.8):
        x = roots[:-1] + t * gap
        _, neg_slope = optpoly._g_and_slope(x, roots)
        g_hi, _ = optpoly._g_and_slope(x + step, roots)
        g_lo, _ = optpoly._g_and_slope(x - step, roots)
        assert np.allclose(neg_slope, (g_lo - g_hi) / (2.0 * step), rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("k", [2, 50, 200])
def test_g_and_slope_keeps_the_points_major_bits(k, optimal_states):
    # the points-major body that the roots-major one replaced, written out:
    # the same products in root order and the same gemv operands give the same bits
    state = optimal_states[k - 1]
    x, roots = state.extrema, state.roots
    q = x[:, None] - roots
    p2 = (np.prod(q, axis=-1) / np.prod(roots)) ** 2
    np.reciprocal(q, out=q)
    s = q @ np.ones(k)
    np.square(q, out=q)
    g, neg_slope = optpoly._g_and_slope(x, roots)
    assert np.array_equal(g, 0.5 * (1.0 - p2) + x * s)
    assert np.array_equal(neg_slope, p2 * s + q @ roots)


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.floats(1.0, 3.0), min_size=2, max_size=16),
       top=st.floats(0.5, 2.0))
def test_extrema_match_bisection(gaps, top):
    roots = np.cumsum(gaps) / np.sum(gaps) * top

    def g(x):
        """(1 - p^2)/2 + x p'/p, whose zero in each gap is the extremum of f."""
        p = 1.0
        for r in roots:
            p *= 1.0 - x / r
        return 0.5 * (1.0 - p * p) + x * sum(1.0 / (x - r) for r in roots)

    for a, b, x in zip(roots[:-1], roots[1:], find_extrema(roots)):
        assert a < x < b
        ref = bisect_root(g, np.nextafter(a, b), np.nextafter(b, a), tol=1e-13 * (b - a))
        assert abs(x - ref) <= 1e-12 * (b - a)


def test_every_supported_degree_converges(optimal_states):
    # acceptance check 06 takes the betas of the same degrees to [1, 1.6)
    for k, state in enumerate(optimal_states, start=1):
        assert state.degree == k and state.residual <= 1e-11, k


@pytest.mark.parametrize("k", [2, 50, 200])
def test_signed_p_matches_exact_product(k, optimal_states):
    # the one product kernel, from x - r as g and the equioscillation
    # residual take it and from r - x as _product_form does, against rational
    # arithmetic at extrema down from x = 1, where factors 1 - x/r_i would
    # lose up to 5e-12 relative at k = 200
    state = optimal_states[k - 1]
    xs = np.append(state.extrema, 1.0)[::-(k // 20 + 1)]
    roots = [Fraction(r) for r in state.roots]
    exact = np.array([float((math.prod(Fraction(x) - r for r in roots) / math.prod(roots)) ** 2)
                      for x in xs])
    p2 = _signed_p(xs - state.roots[:, None], state.roots) ** 2
    assert np.max(np.abs(p2 / exact - 1.0)) <= 1e-13
    assert np.max(np.abs(_product_form(xs, state.roots) ** 2 / exact - 1.0)) <= 1e-13


def test_gamma_matches_functional():
    for k in (1, 2, 4, 6):
        state = optimal_roots(k)
        assert gamma_mu(PolynomialSpec(state.roots)) == pytest.approx(
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


def test_k1_expansion_and_betas():
    spec = optimal_polynomial(1)
    alphas = spec.cheb4_coeffs
    assert np.allclose(alphas, [-0.125, 0.375], atol=1e-12)
    betas = spec.iteration_betas
    assert betas[0] == pytest.approx(9.0 / 8.0, abs=1e-12)


def test_beta_sample_range_and_consistency():
    lam = np.linspace(0.0, 1.0, 257)
    for k in (1, 2, 3, 5, 10, 25, 60):
        state = optimal_roots(k)
        betas = PolynomialSpec(state.roots).iteration_betas
        assert betas.shape == (k,)
        assert np.all(betas >= 1.0 - 1e-12)
        assert np.all(betas < 1.6)
        direct = PolynomialSpec(state.roots)
        assert np.max(np.abs(beta_polynomial(betas, lam) - direct.evaluate(lam))) < 1e-10


@settings(max_examples=50, deadline=None)
@given(k=st.integers(min_value=1, max_value=40))
def test_roots_betas_polynomial_round_trip(k):
    state = optimal_roots(k)
    lam = np.linspace(0.0, 1.0, 257)
    realized = beta_polynomial(PolynomialSpec(state.roots).iteration_betas, lam)
    assert np.max(np.abs(realized - PolynomialSpec(state.roots).evaluate(lam))) < 1e-10


def test_optimal_polynomial_bundles_representations():
    spec = optimal_polynomial(3)
    assert spec.roots is not None
    assert spec.cheb4_coeffs is not None
    assert spec.iteration_betas is not None
    lam = np.linspace(0.0, 1.0, 129)
    by_roots = PolynomialSpec(spec.roots).evaluate(lam)
    by_coeffs = fourth_kind_sum(spec.cheb4_coeffs, lam)
    assert np.max(np.abs(by_roots - by_coeffs)) < 1e-12


def test_degree_validation():
    with pytest.raises(ValueError):
        optimal_roots(0)
    with pytest.raises(ValueError):
        optimal_roots(201)
    # k = 2.5 would take the sqrt of a negative number in the starting roots
    for k in (2.5, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="integer >= 1"):
            optimal_roots(k)

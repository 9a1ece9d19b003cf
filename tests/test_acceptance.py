"""Acceptance gate: end-to-end checks of the headline quantitative claims.

Each test prints a single PASS/FAIL scorecard line directly to the real
stdout (bypassing capture) so a full run shows the verdict per criterion.
The line wraps the test's deciding assertions, so its verdict is theirs;
they carry the diagnostic detail.
"""

import contextlib
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import smoother_work
from paper_results import (
    cheb_sharp_exact_discount,
    crossover_C,
    gamma_mu,
    limit_constants,
    omega_max_asymptotic,
    omega_max_exact,
    sharp_constants,
)
from polymg import (
    GridSpec,
    PolynomialSpec,
    SmootherConfig,
    build_hierarchy,
    measure_contraction,
    optimal_polynomial,
    two_level_C,
)
from polymg.bounds import (
    beta_constant,
    bound_cheb,
    bound_cheb_sharp,
    bound_cheb_two_level,
    bound_opt_conjecture,
    bound_simple,
    omega_condition_holds,
    sharp_f_factor,
)
from polymg.cli import COLUMNS, emit_gamma_table
from polymg.optpoly import optimal_roots
from polymg.smoothers import DiagonalSmoother, apply_smoother

ASPECTS = (1.0, 2.0, 4.0, 8.0)
DEGREES = tuple(range(1, 7))


@pytest.fixture
def scorecard(capsys):
    """``with scorecard(line):`` prints ``[acceptance] line: PASS``, or ``FAIL`` if the block raises."""
    @contextlib.contextmanager
    def card(line: str):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"\n[acceptance] {line}: {verdict}", flush=True)
    return card


@pytest.fixture(scope="session")
def contraction_sweep():
    """Symmetric V-cycle contraction factors over (m, aspect, smoother, k).

    Each cell is one Lanczos estimate from the seed-0 start; the elapsed
    wall time of the m=8 portion is recorded for the runtime criterion.
    Each distinct cycle (an equal ``SmootherConfig``) is measured once per
    grid: w43 and cheb at k = 1 run one cycle.
    """
    factors = {}
    elapsed_m8 = 0.0
    for m in (5, 8):
        t0 = time.time()
        for aspect in ASPECTS:
            hier = build_hierarchy(GridSpec(m=m, aspect=aspect))
            measured = {}

            def factor(sm):
                if sm not in measured:
                    measured[sm] = measure_contraction(hier, sm, tol=1e-6, max_cycles=300).factor
                return measured[sm]

            factors[(m, aspect)] = {name: [factor(COLUMNS[name].smoother(k)) for k in DEGREES]
                                    for name in COLUMNS}
        if m == 8:
            elapsed_m8 = time.time() - t0
    return factors, elapsed_m8


def test_gamma_table_reference_values(tmp_path, scorecard):
    expected = {
        1: (3.0, 1e-12),
        2: (9.4721, 1e-4),
        3: (19.1957, 1e-4),
        4: (32.1634, 1e-4),
        5: (48.3742, 1e-4),
        10: (178.0643, 1e-4),
        100: (16373.241899, 1e-6),
    }
    t0 = time.time()
    text = emit_gamma_table(tuple(expected), out=tmp_path / "gamma.tsv")
    elapsed = time.time() - t0
    rows = {int(r.split("\t")[0]): float(r.split("\t")[1])
            for r in text.strip().split("\n")[1:]}
    errs = {k: abs(rows[k] - val) for k, (val, _) in expected.items()}
    with scorecard(f"01 optimal gamma table, 7 degrees in {elapsed:.1f}s"):
        for k, (val, tol) in expected.items():
            assert errs[k] <= tol, f"k={k}: got {rows[k]}, want {val} +- {tol}"
        assert elapsed < 60.0


def test_closed_form_optimal_roots(scorecard):
    r1 = optimal_roots(1).roots
    r2 = np.sort(optimal_roots(2).roots)
    want2 = np.sort([2.0 / (5.0 + math.sqrt(5.0)), 2.0 / math.sqrt(5.0)])
    with scorecard("02 closed-form optimal roots at degrees 1 and 2"):
        assert abs(r1[0] - 2.0 / 3.0) <= 1e-12
        assert np.all(np.abs(r2 - want2) <= 1e-10)


def test_fourth_kind_identities(scorecard):
    # W_k(1 - 2 lambda)/(2k + 1) written out in monomials, against the smoother
    explicit = {
        1: [1.0, -4.0 / 3.0],
        2: [1.0, -4.0, 16.0 / 5.0],
        3: [1.0, -8.0, 16.0, -64.0 / 7.0],
    }
    lam = np.linspace(0.0, 1.0, 101)
    coeff_err = max(
        float(np.max(np.abs(PolynomialSpec.fourth_kind(k).evaluate(lam)
                            - sum(c * lam ** i for i, c in enumerate(explicit[k])))))
        for k in explicit)
    # sup of sqrt(lambda)|p_k| over (0, 1]: check the analytic alternation
    # points and a fine grid against the claimed level 1/(2k+1)
    level_err = 0.0
    for k in range(1, 21):
        p = PolynomialSpec.fourth_kind(k)
        theta = (2.0 * np.arange(k + 1) + 1.0) * math.pi / (2 * k + 1)
        pts = np.sin(theta / 2.0) ** 2
        grid = np.concatenate([pts, np.linspace(1e-9, 1.0, 4001)])
        sup = float(np.max(np.sqrt(grid) * np.abs(p.evaluate(grid))))
        level_err = max(level_err, abs(sup - 1.0 / (2 * k + 1)))
    with scorecard("03 fourth-kind coefficients and weighted minimax level"):
        assert coeff_err <= 1e-12
        assert level_err <= 1e-10


def test_limit_constants_values(scorecard):
    lc = limit_constants()
    w_tail = sharp_constants(100000).w
    checks = [
        abs(beta_constant() - 0.650914713503148) <= 1e-12,
        abs(lc.w - 0.95487649) <= 1e-7,
        abs(w_tail - 0.95487649) <= 1e-7,
        abs(lc.y - 0.349085) <= 1e-5,
        abs(lc.phi_star - 1.99661) <= 1e-4,
    ]
    with scorecard("04 spectrum-split limit constants"):
        assert all(checks), (beta_constant(), lc, w_tail)


def test_iteration_realizes_polynomial(scorecard):
    worst = 0.0
    exact_ties = True
    for n, seed in ((12, 0), (24, 1), (30, 2)):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        A = sp.csr_matrix(M @ M.T + n * np.eye(n))
        invd = 1.0 / A.diagonal()
        s = np.sqrt(invd)
        lam, U = np.linalg.eigh(s[:, None] * A.toarray() * s[None, :])
        rho = float(lam[-1])
        B = DiagonalSmoother(inverse_diagonal=invd, rho_BA=rho)
        s_hat = s / math.sqrt(rho)
        lam_hat = lam / rho
        x_star = rng.standard_normal(n)
        b = A @ x_star
        x0 = rng.standard_normal(n)
        e0 = x0 - x_star

        def realized_error(p_vals, e=e0):
            return s_hat * (U @ (p_vals * (U.T @ (e / s_hat))))

        for k in (1, 2, 3, 5):
            out = apply_smoother(A, B, x0.copy(), b, SmootherConfig.cheb4(k), smoother_work(b))
            want = x_star + realized_error(
                PolynomialSpec.fourth_kind(k).evaluate(lam_hat))
            worst = max(worst, float(np.max(np.abs(out - want))
                                     / np.linalg.norm(e0)))
        for k in (1, 2, 4):
            spec = optimal_polynomial(k)
            out = apply_smoother(A, B, x0.copy(), b,
                                 SmootherConfig.optimized(spec.iteration_betas),
                                 smoother_work(b))
            want = x_star + realized_error(spec.evaluate(lam_hat))
            worst = max(worst, float(np.max(np.abs(out - want))
                                     / np.linalg.norm(e0)))
        for k in (1, 3, 6):
            ones = apply_smoother(A, B, x0.copy(), b, SmootherConfig.optimized(np.ones(k)),
                                  smoother_work(b))
            ref = apply_smoother(A, B, x0.copy(), b, SmootherConfig.cheb4(k), smoother_work(b))
            exact_ties = exact_ties and bool(np.array_equal(ones, ref))
    with scorecard(f"05 smoothing realizes claimed polynomials (worst {worst:.2e})"):
        assert worst <= 1e-10
        assert exact_ties


def test_beta_coefficients_range(optimal_states, scorecard):
    lo, hi, worst_res = np.inf, -np.inf, 0.0
    for state in optimal_states:  # k = 1..200
        spec = PolynomialSpec(state.roots)  # optimal_polynomial(k)
        alphas = spec.cheb4_coeffs
        orders = 2.0 * np.arange(alphas.size) + 1.0
        worst_res = max(worst_res, abs(1.0 - float(orders @ alphas)))
        betas = spec.iteration_betas
        lo = min(lo, float(betas.min()))
        hi = max(hi, float(betas.max()))
    with scorecard(f"06 iteration betas in [1, 1.6) through degree 200 "
                   f"(range [{lo:.6f}, {hi:.6f}])"):
        assert 1.0 <= lo and hi < 1.6, (lo, hi)
        assert worst_res < 1e-8


@pytest.mark.slow
def test_measured_contraction_below_bounds(contraction_sweep, scorecard):
    factors, elapsed_m8 = contraction_sweep
    worst_ratio = 0.0
    violations = []
    for (m, aspect), per in factors.items():
        C = 2.0 * aspect * aspect
        for name in COLUMNS:
            for i, k in enumerate(DEGREES):
                measured = per[name][i]
                bound = COLUMNS[name].bound(C, k)
                if not (math.isfinite(measured) and 0.0 < measured < 1.0):
                    violations.append((m, aspect, name, k, measured, bound))
                    continue
                worst_ratio = max(worst_ratio, measured / bound)
                if measured > bound * 1.02:
                    violations.append((m, aspect, name, k, measured, bound))
    with scorecard(f"07 measured contraction below analytic bounds, 192 cells, "
                   f"worst measured/bound {worst_ratio:.4f}, m=8 sweep {elapsed_m8:.0f}s"):
        assert not violations, violations
        assert elapsed_m8 < 600.0


def test_two_level_chain_inequality(scorecard):
    # measured <= 1 - 1/C_N within the estimate's tolerance; the two analytic links
    # (McCormick below the generic bound, C_N <= 1 + gamma C) hold to rounding
    slacks, C_N_min = {}, math.inf
    for aspect in (1.0, 2.0):
        grid = GridSpec(m=5, aspect=aspect)
        hier = build_hierarchy(grid, min_interior=15)
        C = two_level_C(grid)
        for k in (1, 2, 3):
            p = PolynomialSpec.fourth_kind(k)
            gamma = gamma_mu(p)
            C_N = two_level_C(grid, p)
            C_N_min = min(C_N_min, C_N)
            measured = measure_contraction(hier, SmootherConfig.cheb4(k)).factor
            mccormick = 1.0 - 1.0 / C_N
            generic = C / (C + 1.0 / gamma)
            slacks[aspect, k] = (measured - mccormick, mccormick - generic,
                                 C_N - (1.0 + gamma * C))
    worst_slack = max(max(links) for links in slacks.values())
    with scorecard(f"08 two-level chain inequality (worst slack {worst_slack:.2e})"):
        assert C_N_min >= 1.0
        for key, links in slacks.items():
            assert links[0] <= 1e-6 and max(links[1:]) <= 1e-9, (key, links)


@pytest.mark.slow
def test_figure_trends(contraction_sweep, scorecard):
    factors, _ = contraction_sweep
    ordered = True
    for per in factors.values():
        for i, k in enumerate(DEGREES):
            if k < 2:
                continue
            ordered = ordered and per["cheb"][i] < per["w43"][i]
            ordered = ordered and per["cheb"][i] < per["w32"][i]
    cross = crossover_C()
    sharp_wins_low = all(
        bound_cheb_sharp(2.0, k) < bound_opt_conjecture(2.0, k)
        for k in (30, 60, 120, 200))
    sharp_loses_high = all(
        bound_cheb_sharp(8.0, k) > bound_opt_conjecture(8.0, k)
        for k in (30, 60, 120, 200))
    with scorecard(f"09 qualitative trends (crossover C = {cross:.4f})"):
        assert ordered
        assert sharp_wins_low and sharp_loses_high
        assert abs(cross - 3.67) < 0.01


def test_exact_discount_dominates_closed_form(scorecard):
    beta = beta_constant()
    margin = np.inf
    for C in np.linspace(1.0, 200.0, 50):
        for k in range(1, 51):
            margin = min(margin, cheb_sharp_exact_discount(float(C), k)
                         - beta * sharp_f_factor(float(C), k))
    with scorecard(f"10 exact discount dominates closed form (min margin {margin:.2e})"):
        assert margin >= 0.0


def test_omega_condition_and_asymptotic_gap(scorecard):
    holds_32 = all(omega_condition_holds(1.5, k) for k in range(1, 101))
    fails_19 = not omega_condition_holds(1.9, 1)
    gaps = {k: abs(omega_max_exact(k) - omega_max_asymptotic(k))
            for k in (10, 50, 100)}
    within = all(gap < 0.05 / k for k, gap in gaps.items())
    with scorecard("11 omega validity condition and asymptotic gap"):
        assert holds_32
        assert fails_19
        assert within, (
            "exact-vs-asymptotic omega_max gap exceeds 0.05/k: "
            + ", ".join(f"k={k}: |diff| = {gaps[k]:.6e} vs allowed {0.05 / k:.1e}"
                        for k in sorted(gaps)))


def _two_grid_factor(level, A_c, p):
    """Dense ``||(I - Pi) p(B_hat A)||_A^2``, ``Pi = P A_c^{-1} P^T A`` the A-orthogonal
    coarse projection and ``B_hat = B / rho(BA)``."""
    A, P, A_c = level.A.toarray(), level.P.toarray(), A_c.toarray()
    BA = (level.smoother.inverse_diagonal / level.smoother.rho_BA)[:, None] * A
    E = np.eye(A.shape[0]) - P @ np.linalg.solve(A_c, P.T @ A)
    for r in p.roots:
        E = E - (E @ BA) / r
    L = np.linalg.cholesky(A)  # ||X||_A = ||L^T X L^{-T}||_2
    return float(np.linalg.norm(L.T @ np.linalg.solve(L, E.T).T, 2) ** 2)


def test_printed_bounds_above_exact_counterparts(scorecard):
    # V-cycle side: McCormick's U = 1 - 1/max_l C_N(l) over every level pair is
    # exact for each smoother polynomial; each printed V-cycle bound lies above it,
    # at the finest pair's exact C and at 2 aspect^2.  Two-grid side: the dense
    # cheb4 factor lies below C/(2k+1)^2 at the grid's exact C.  Allowances:
    # 1e-12 absolute on U (eigvalsh rounding), 1e-9 relative on the dense factor.
    t0 = time.time()
    degrees = (1, 2, 3, 4, 6, 12, 25)
    worst = {}
    violations = []

    def check(name, exact, bound, allowed):
        worst[name] = max(worst.get(name, 0.0), exact / bound)
        if not exact <= bound + allowed:
            violations.append((name, exact, bound))

    for aspect in ASPECTS:
        fine_grids = [GridSpec(m=m, aspect=aspect) for m in range(8, 2, -1)]  # smoothed at m=8
        C_values = (two_level_C(fine_grids[0]), 2.0 * aspect * aspect)

        def U(p):
            return 1.0 - 1.0 / max(two_level_C(grid, p) for grid in fine_grids)

        for k in degrees:
            u_cheb = U(PolynomialSpec.fourth_kind(k))
            u_opt = U(optimal_polynomial(k))
            u_simple = {omega: U(PolynomialSpec(np.full(k, 1.0 / omega)))
                        for omega in (4.0 / 3.0, 1.5)}
            for C in C_values:
                sharp = bound_cheb_sharp(C, k)
                check("cheb_sharp", u_cheb, sharp, 1e-12)
                if not sharp <= bound_cheb(C, k):
                    violations.append(("cheb_sharp above cheb", C, k))
                check("opt", u_opt, bound_opt_conjecture(C, k), 1e-12)
                for omega, u in u_simple.items():
                    value, valid = bound_simple(C, omega, k)
                    if valid:
                        check("simple", u, value, 1e-12)
    for aspect in (1.0, 2.0, 8.0):
        hier = build_hierarchy(GridSpec(m=4, aspect=aspect), min_interior=7)
        top, A_c = hier.levels[0], hier.levels[1].A
        C = two_level_C(top.grid)
        for k in degrees:
            bound = bound_cheb_two_level(C, k)
            check("cheb_2l", _two_grid_factor(top, A_c, PolynomialSpec.fourth_kind(k)),
                  bound, 1e-9 * bound)
    elapsed = time.time() - t0
    ratios = ", ".join(f"{name} {r:.6f}" for name, r in worst.items())
    with scorecard(f"12 printed bounds above exact counterparts (worst exact/bound: {ratios}; "
                   f"{elapsed:.1f}s)"):
        assert not violations, violations

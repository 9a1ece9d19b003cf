"""V-cycle behavior, contraction measurement, and the model-problem constants."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import polymg
from conftest import smoother_work
from paper_results import gamma_mu
from polymg.cli import COLUMNS
from polymg.fem import (GridSpec, Q1Operator, assemble_poisson_q1, build_prolongation,
                        jacobi_smoother, measure_C, measure_CN, sine_symbol, two_level_C)
from polymg.linalg import as_csr, lanczos_max
from polymg.multigrid import Level, build_hierarchy, measure_contraction, v_cycle
from polymg.optpoly import optimal_polynomial
from polymg.poly import PolynomialSpec
from polymg.smoothers import DiagonalSmoother, SmootherConfig, apply_smoother

# dense measurements of C on the m=4 model problem, by aspect ratio
C_M4 = {1.0: 1.9621, 2.0: 7.5408, 4.0: 26.2785}


def _error_operator(h, cfg):
    n = h.finest.A.shape[0]
    zero = np.zeros(n)
    cols = [v_cycle(h, cfg, e, zero) for e in np.eye(n)]
    return np.array(cols).T


def _fine_space_projector(A, P, A_c):
    """Dense A-orthogonal projector ``pi_f = I - P A_c^{-1} P^T A``."""
    Ad, Pd = A.toarray(), P.toarray()
    X = scipy.linalg.solve(A_c.toarray(), Pd.T @ Ad, assume_a="pos")
    return np.eye(Ad.shape[0]) - Pd @ X


def _dense_sup(A, P, A_c, M):
    """Reference ``sup_{u in range(pi_f)} u^T M u / u^T A u`` by a generalized eigh."""
    pif = _fine_space_projector(A, P, A_c)
    G = pif.T @ M @ pif
    return float(scipy.linalg.eigh(0.5 * (G + G.T), A.toarray(), eigvals_only=True)[-1])


def _a_norm(M, A):
    Ad = A.toarray()
    G = M.T @ Ad @ M
    vals = scipy.linalg.eigh(0.5 * (G + G.T), Ad, eigvals_only=True)
    return float(np.sqrt(max(vals[-1], 0.0)))


def test_hierarchy_structure(hierarchy_m4_a2):
    h = hierarchy_m4_a2
    assert len(h.levels) == 3
    assert [lvl.grid.n_side for lvl in h.levels] == [15, 7, 3]
    assert all(lvl.grid.aspect == 2.0 for lvl in h.levels)
    for lvl in h.levels[:-1]:
        assert lvl.P is not None and lvl.smoother is not None
        assert lvl.smoother.rho_BA > 1.0
    assert h.levels[-1].P is None and h.levels[-1].smoother is None


def _exact_spectrum(grid):
    """Eigenvalues Kx_i My_j + Mx_i Ky_j of the Q1 operator Kx(x)My + Mx(x)Ky.

    The 1-D stiffness (1/h) tridiag(-1, 2, -1) and mass (h/6) tridiag(1, 4, 1)
    share the sine eigenvectors, with eigenvalues (2 - 2c)/h and h(4 + 2c)/6
    for c = cos(i pi / (n + 1)).
    """
    n = grid.n_side
    c = np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    cx, cy = c[:, None], c[None, :]
    hx, hy = grid.hx, grid.hy
    return ((2 - 2 * cx) / hx * hy * (4 + 2 * cy) / 6
            + hx * (4 + 2 * cx) / 6 * (2 - 2 * cy) / hy)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("aspect", [1.0, 2.0, 8.0])
def test_assembled_spectrum_matches_closed_form(m, aspect):
    grid = GridSpec(m=m, aspect=aspect)
    computed = scipy.linalg.eigh(assemble_poisson_q1(grid).toarray(), eigvals_only=True)
    exact = np.sort(_exact_spectrum(grid), axis=None)
    assert np.max(np.abs(computed - exact)) <= 1e-14 * exact[-1]


def test_exact_rho_reference_value():
    B = jacobi_smoother(GridSpec(m=8, aspect=2.0))
    assert B.rho_BA == pytest.approx(2.3998569363292814, rel=1e-15)


@pytest.mark.parametrize("m, aspect", [(7, 1.0), (7, 2.0), (7, 4.0), (8, 2.0)])
def test_rho_matches_closed_form_on_every_level(m, aspect):
    # Lanczos on BA = D^-1 A in the D inner product brackets the top eigenvalue:
    # its Ritz value lies below it and its upper estimate above it, up to rounding
    h = build_hierarchy(GridSpec(m=m, aspect=aspect))
    for lvl in h.levels[:-1]:
        inv = lvl.smoother.inverse_diagonal
        n = lvl.op.shape[0]
        res = lanczos_max(lambda v: inv * (lvl.op @ v), sp.diags_array(1.0 / inv),
                          np.random.default_rng(0).standard_normal(n),
                          tol=1e-10, max_iter=5000)
        assert res.converged, lvl.grid
        rho = lvl.smoother.rho_BA
        assert res.value - res.residual <= rho * (1 + 1e-14), lvl.grid
        assert res.value >= rho * (1 - 1e-14), lvl.grid


@pytest.mark.parametrize("aspect", [1.0, 2.0, 8.0])
def test_rho_matches_dense_spectrum_on_every_level(aspect):
    # the Galerkin coarse levels get the symbol of the rediscretised grid
    h = build_hierarchy(GridSpec(m=5, aspect=aspect))
    for lvl in h.levels[:-1]:
        s = np.sqrt(lvl.smoother.inverse_diagonal)
        top = scipy.linalg.eigvalsh(s[:, None] * lvl.A.toarray() * s[None, :])[-1]
        assert abs(lvl.smoother.rho_BA - top) <= 1e-14 * top, lvl.grid


@pytest.mark.parametrize("aspect", [1.0, 1.5, 2.0, 8.0, 1e3, 1e150, 1e300])
def test_symbol_maximum_lies_on_a_corner_mode(aspect):
    for m in range(2, 12):
        grid = GridSpec(m=m, aspect=aspect)
        n = grid.n_side
        corner = sine_symbol(grid, [1, n]).max()
        assert np.isfinite(corner)
        assert sine_symbol(grid, np.arange(1, n + 1)).max() == corner, grid


@pytest.mark.parametrize("aspect", [1e150, 1e300])
def test_symbol_rho_at_extreme_aspect(aspect):
    # reference: an upper Lanczos estimate (tol 1e-10) of the same rho(BA)
    B = jacobi_smoother(GridSpec(m=3, aspect=aspect))
    assert B.rho_BA == pytest.approx(2.812595994072848, abs=1e-10)


@pytest.mark.parametrize("aspect", [1.0, 2.0, 4.0])
def test_level_operators_are_nine_point_bands(aspect):
    # each level applies its grid's 9-point band, which no level stores
    h = build_hierarchy(GridSpec(m=6, aspect=aspect))
    x = np.random.default_rng(6).standard_normal(h.finest.A.shape[0])
    for lvl in h.levels[:-1]:
        n_side = lvl.grid.n_side
        band = assemble_poisson_q1(lvl.grid)
        assert isinstance(lvl.op, Q1Operator) and not sp.issparse(lvl.op)
        assert sorted(band.offsets) == [d + e for d in (-n_side, 0, n_side) for e in (-1, 0, 1)]
        v = x[: lvl.A.shape[0]]
        assert np.array_equal(band @ v, lvl.A @ v)
        err = np.abs(lvl.op @ v - band @ v)
        assert np.all(err <= 8 * np.finfo(float).eps * (abs(band) @ np.abs(v)))
        assert (lvl.R != lvl.P.T).nnz == 0


def _kron_prolongation(n_coarse):
    """Reference bilinear prolongation: ``kron(p, p)`` of the 1-D linear interpolation ``p``."""
    c = np.arange(n_coarse)
    # 0-based coarse node c sits at fine node 2c + 1, with weight 1/2 on each neighbour
    rows = np.concatenate([2 * c, 2 * c + 1, 2 * c + 2])
    vals = np.repeat([0.5, 1.0, 0.5], n_coarse)
    p = sp.csr_array((vals, (rows, np.tile(c, 3))), shape=(2 * n_coarse + 1, n_coarse))
    return as_csr(sp.kron(p, p, format="csr"))


@pytest.mark.parametrize("aspect", [1.0, 2.0, 8.0, math.sqrt(2.0), 1e150, 3.0])
@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_hierarchy_matches_kronecker_and_csr_galerkin_bit_for_bit(m, aspect):
    # P and R are the Kronecker reference and each level's stencil the grid's
    # assembled band, bit for bit; P is R's transpose view, stored once, and
    # prolongs with the reference's bits.  The Galerkin chain A_c = P^T A P by scipy's sparse
    # product from the finest band equals the bands up to its rounding, which
    # grows about fourfold per product: at most 8.6e-14 of the largest entry
    # (m=8, aspect 1e150; 7.2e-14 at aspect 2), and 0 at aspect 8
    h = build_hierarchy(GridSpec(m=m, aspect=aspect))
    galerkin = as_csr(assemble_poisson_q1(h.finest.grid))
    for lvl in h.levels:
        op = assemble_poisson_q1(lvl.grid)
        assert not sp.issparse(lvl.op) and lvl.op.shape == op.shape
        # a, b, g, d: offsets 0, -1, -n_side and -n_side - 1 at the middle node
        rows = [list(op.offsets).index(k) for k in (0, -1, -lvl.grid.n_side, -lvl.grid.n_side - 1)]
        stored = op.data[rows, op.shape[0] // 2]
        coefficients = np.array([lvl.op.a, lvl.op.b, lvl.op.g, lvl.op.d])
        assert coefficients.tobytes() == stored.tobytes()
        assert set(op.data.ravel()) == set(coefficients) | {0.0}
        diff = (galerkin - as_csr(op)).tocsr()
        assert np.max(np.abs(diff.data), initial=0.0) <= 2e-13 * np.max(np.abs(op.data))
        if lvl.P is None:
            break
        P = _kron_prolongation(lvl.grid.coarsen().n_side)
        for got, ref in ((as_csr(lvl.P), P), (lvl.R, as_csr(P.T))):
            assert got.data.tobytes() == ref.data.tobytes()
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.indptr, ref.indptr)
        assert np.shares_memory(lvl.P.data, lvl.R.data)
        e = np.random.default_rng(m).standard_normal(P.shape[1])
        assert (lvl.P @ e).tobytes() == (P @ e).tobytes()
        galerkin = as_csr(P.T @ galerkin @ P)
    assert len(h.levels) > 1


def test_build_peak_memory_is_a_few_fine_operators():
    grid = GridSpec(m=7, aspect=2.0)
    build_hierarchy(grid)  # so lazy imports and first-call caches are not traced
    tracemalloc.start()
    try:
        h = build_hierarchy(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10.7 fine vectors: R on every level (4.8; P is its transpose view), the
    # cycle's four work vectors and the stencils' two shared scratch vectors.
    # Scratch per level (+0.67), an inverse diagonal stored per entry (+1.33),
    # a stored copy of P (+4.8) or any level's band (+9 on the finest) would
    # exceed 11; the DIA hierarchy took 25.6
    assert peak <= 11 * h.finest.grid.n_interior * 8


@pytest.mark.parametrize("smoother, vectors", [("w43k1", 2.5), ("cheb6", 3.5), ("opt6", 3.5)])
def test_v_cycle_peak_memory_is_a_few_fine_vectors(smoother, vectors):
    # the hierarchy owns the smoother's r, z, t and the zero-start iterates, so
    # a cycle allocates only its copy of x and the products with its matrices
    cfg = {"w43k1": SmootherConfig.simple(4.0 / 3.0, 1),
           "cheb6": SmootherConfig.cheb4(6),
           "opt6": SmootherConfig.optimized(optimal_polynomial(6).iteration_betas)}[smoother]
    h = build_hierarchy(GridSpec(m=6, aspect=2.0))
    rng = np.random.default_rng(8)
    x, b = rng.standard_normal((2, h.finest.op.shape[0]))
    first = v_cycle(h, cfg, x, b)  # warm-up: first-call caches are not traced
    kept = first.copy()
    tracemalloc.start()
    try:
        v_cycle(h, cfg, first, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vectors * x.nbytes
    assert np.array_equal(first, kept)  # a returned iterate is no work array


def test_diagonal_check_rejects_a_drift_past_1e_12():
    # an operand assembled on its grid has the grid's constant diagonal to
    # rounding; a drift of 1.1e-12 or more means another operator
    pair = _two_level(5, 2.0)
    C = measure_C(*pair)

    def drifted(i, rel):
        op = pair[i].copy()
        op.data[list(op.offsets).index(0), 7] *= 1.0 + rel
        return (*pair[:i], op, *pair[i + 1:])

    for i in (0, 3):  # A and A_c
        assert measure_C(*drifted(i, 5e-13)) == C
        for rel in (1.1e-12, 1e-6):
            with pytest.raises(ValueError, match="does not match the Q1 operator"):
                measure_C(*drifted(i, rel))
            with pytest.raises(ValueError, match="does not match the Q1 operator"):
                measure_CN(*drifted(i, rel), PolynomialSpec.fourth_kind(1))


def test_each_level_stores_one_operator(hierarchy_m4_a2):
    assert [f.name for f in dataclasses.fields(Level)] == ["grid", "op", "smoother", "P", "R"]
    for lvl in hierarchy_m4_a2.levels:
        A = lvl.A  # assembled from the grid on each access
        assert isinstance(lvl.op, Q1Operator) and not sp.issparse(lvl.op)
        assert A.format == "csr" and A.has_canonical_format
        assert np.array_equal(A.toarray(), assemble_poisson_q1(lvl.grid).toarray())
        assert np.all(A.data != 0.0)


def test_hierarchy_levels_are_galerkin(hierarchy_m4_a2):
    h = hierarchy_m4_a2
    for fine, coarse in zip(h.levels, h.levels[1:]):
        diff = (coarse.A - as_csr(fine.P.T @ fine.A @ fine.P)).toarray()
        assert np.max(np.abs(diff)) < 1e-12


def test_coarsest_solve_is_exact():
    rng = np.random.default_rng(0)
    for aspect in (1.0, 2.0, 8.0):
        for min_interior in (3, 7, 15):
            h = build_hierarchy(GridSpec(m=5, aspect=aspect), min_interior=min_interior)
            coarsest = h.levels[-1].grid
            assert coarsest.n_side == min_interior
            b = rng.standard_normal(coarsest.n_interior)
            want = np.linalg.solve(assemble_poisson_q1(coarsest).toarray(), b)
            got = h.coarse_solver.solve(b)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_v_cycle_preserves_solution(hierarchy_m4_a2):
    h = hierarchy_m4_a2
    A = h.finest.A
    rng = np.random.default_rng(1)
    x_star = rng.standard_normal(A.shape[0])
    b = A @ x_star
    cfg = SmootherConfig.cheb4(2)
    out = v_cycle(h, cfg, scipy.linalg.solve(A.toarray(), b, assume_a="pos"), b)
    assert np.allclose(out, x_star, atol=1e-8)


def test_v_cycle_reduces_residual(hierarchy_m4_a2):
    h = hierarchy_m4_a2
    A = h.finest.A
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    x = np.zeros_like(b)
    cfg = SmootherConfig.cheb4(2)
    res = np.linalg.norm(b)
    for _ in range(4):
        x = v_cycle(h, cfg, x, b)
        new_res = np.linalg.norm(b - A @ x)
        assert new_res < 0.5 * res
        res = new_res


def test_cycle_and_contraction_leave_inputs_unchanged(hierarchy_m4_a2):
    h = hierarchy_m4_a2
    rng = np.random.default_rng(7)
    x, b = rng.standard_normal(h.finest.A.shape[0]), rng.standard_normal(h.finest.A.shape[0])
    x_before, b_before = x.copy(), b.copy()
    for cfg in (SmootherConfig.simple(4.0 / 3.0, 2), SmootherConfig.cheb4(2)):
        out = v_cycle(h, cfg, x, b)
        assert out is not x and not np.array_equal(out, x)
        res = measure_contraction(h, cfg, tol=1e-6, max_cycles=5, x0=x)
        assert res.vector is not x
        assert np.array_equal(x, x_before) and np.array_equal(b, b_before)


def test_v_cycle_shape_validation(hierarchy_m4_a2):
    cfg = SmootherConfig.cheb4(1)
    with pytest.raises(ValueError, match="finest-level size"):
        v_cycle(hierarchy_m4_a2, cfg, np.zeros(7), np.zeros(7))


def test_zero_smoothing_cycle_is_coarse_projection(two_level_m5_a2):
    # with no smoothing the two-level error propagator is pi_f exactly
    h = two_level_m5_a2
    assert len(h.levels) == 2
    top = h.levels[0]
    pif = _fine_space_projector(top.A, top.P, h.levels[1].A)
    cfg = SmootherConfig(())  # no smoothing steps
    e = np.random.default_rng(3).standard_normal(top.A.shape[0])
    out = v_cycle(h, cfg, e, np.zeros_like(e))
    assert np.max(np.abs(out - pif @ e)) < 1e-10 * np.linalg.norm(e)


def test_measured_contraction_matches_operator_norm(hierarchy_m4_a2):
    h = hierarchy_m4_a2
    cfg = SmootherConfig.cheb4(2)
    res = measure_contraction(h, cfg, seed=0, tol=1e-10)
    assert res.converged
    norm = _a_norm(_error_operator(h, cfg), h.finest.A)
    assert res.factor == pytest.approx(norm, abs=1e-6)


def test_symmetric_cycle_norm_is_half_cycle_squared():
    h = build_hierarchy(GridSpec(m=4, aspect=2.0), min_interior=7)
    assert len(h.levels) == 2
    top = h.finest
    sm = SmootherConfig.cheb4(1)
    full = _a_norm(_error_operator(h, sm), top.A)
    # the half cycle: coarse correction, then one smoothing
    zero = np.zeros(top.A.shape[0])
    S = np.array([apply_smoother(top.op, top.smoother, e, zero, sm, smoother_work(zero))
                  for e in np.eye(top.A.shape[0])]).T
    half = _a_norm(S @ _fine_space_projector(top.A, top.P, h.levels[1].A), top.A)
    assert full == pytest.approx(half ** 2, rel=1e-8)


def test_v_cycle_error_operator_is_a_self_adjoint(hierarchy_m4_a2):
    h = hierarchy_m4_a2
    A = h.finest.A
    cfg = SmootherConfig.cheb4(2)
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[0])
    zero = np.zeros_like(u)
    Eu = v_cycle(h, cfg, u, zero)
    Ev = v_cycle(h, cfg, v, zero)
    assert (A @ Eu) @ v == pytest.approx(u @ (A @ Ev), rel=1e-9)


# explicit ids, spelled as pytest once numbered the rows, so deleting a row renames no other
@pytest.mark.parametrize("bad", [
    pytest.param({"max_cycles": 0}, id="bad0"), pytest.param({"max_cycles": -3}, id="bad1"),
    pytest.param({"tol": math.nan}, id="bad2"), pytest.param({"tol": -1.0}, id="bad3"),
    pytest.param({"tol": 0.0}, id="bad4"), pytest.param({"tol": 1.0}, id="bad5"),
    pytest.param({"max_cycles": 2.5}, id="bad6"), pytest.param({"max_cycles": True}, id="bad7"),
])
def test_measure_contraction_rejects_bad_arguments(hierarchy_m4_a2, bad):
    # max_cycles=0 used to return factor 0.0; a nan or negative tol ran to the cap;
    # 2.5 raised a TypeError deep in the estimator, and True ran as 1
    cfg = SmootherConfig.cheb4(1)
    with pytest.raises(ValueError, match=next(iter(bad))):
        measure_contraction(hierarchy_m4_a2, cfg, **bad)


# explicit ids, spelled as pytest once named the rows, so deleting a row renames no other
@pytest.mark.parametrize("x0, match", [
    # used to return factor 0.0, flagged converged
    pytest.param(np.zeros(225), "nonzero", id="x00-nonzero"),
    pytest.param(np.full(225, np.nan), "finite", id="x01-finite"),
    pytest.param(np.full(225, np.inf), "finite", id="x02-finite"),
    pytest.param(np.full(225, 1e300), "nonzero, finite A-norm", id="x03-nonzero, finite A-norm"),
    pytest.param(np.ones(7), "finest-level size", id="x04-finest-level size"),
    pytest.param(np.ones((225, 1)), "finest-level size", id="x05-finest-level size"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_measure_contraction_rejects_a_bad_start(hierarchy_m4_a2, x0, match):
    cfg = SmootherConfig.cheb4(1)
    with pytest.raises(ValueError, match=match):
        measure_contraction(hierarchy_m4_a2, cfg, x0=x0)


def test_measure_contraction_deterministic(hierarchy_m4_a2):
    cfg = SmootherConfig.cheb4(1)
    first = measure_contraction(hierarchy_m4_a2, cfg, seed=11)
    again = measure_contraction(hierarchy_m4_a2, cfg, seed=11)
    assert first.factor == again.factor


def test_bench_call_form_passes_the_smoother_through(hierarchy_m4_a2):
    # the benchmark still wraps its smoother as VCycleConfig(smoother=...)
    h, sm = hierarchy_m4_a2, SmootherConfig.cheb4(2)
    wrapped = polymg.multigrid.VCycleConfig(smoother=sm)
    assert wrapped is sm
    x, b = np.random.default_rng(4).standard_normal((2, h.finest.op.shape[0]))
    assert np.array_equal(v_cycle(h, wrapped, x, b), v_cycle(h, sm, x, b))
    got, want = (measure_contraction(h, s, seed=2, tol=1e-6) for s in (wrapped, sm))
    assert (got.factor, got.n_cycles) == (want.factor, want.n_cycles)


def test_chained_starts_give_the_dense_factor():
    # each degree starts from the previous cell's vector; a power loop chained
    # this way stopped on a slowly changing ratio and read k = 2..6 low, each
    # flagged converged (k=3: 0.03103 after 10 cycles against 0.03846)
    h = build_hierarchy(GridSpec(m=4, aspect=1.0))
    x0 = None
    for k in range(1, 7):
        cfg = COLUMNS["w32"].smoother(k)
        res = measure_contraction(h, cfg, x0=x0)
        x0 = res.vector
        assert res.converged, k
        assert res.factor == pytest.approx(_a_norm(_error_operator(h, cfg), h.finest.A),
                                           rel=1e-5), k


def test_measure_C_rejects_operands_of_no_two_level_pair(hierarchy_m4_a2):
    top, coarse, third = hierarchy_m4_a2.levels[:3]
    A, Ac = assemble_poisson_q1(top.grid), assemble_poisson_q1(coarse.grid)
    B, P = top.smoother, top.P
    small = as_csr(A)[:10, :10]
    isotropic_Ac = assemble_poisson_q1(GridSpec(m=coarse.grid.m, aspect=1.0))
    bad_diagonals = []
    for bad in (0.0, np.nan):
        bad_A, bad_Ac = A.copy(), Ac.copy()
        bad_A.setdiag(bad)
        bad_Ac.setdiag(bad)
        bad_diagonals += [(bad_A, B, P, Ac), (A, B, P, bad_Ac)]
    for args in ((A, B, as_csr(sp.eye_array(A.shape[0])), A),  # square P: no coarse space
                 (A, B, P, assemble_poisson_q1(third.grid)),  # A_c of the wrong size
                 (A, B, P, isotropic_Ac),  # A_c of another grid of the right size
                 (small, B, P, Ac),  # no 2^m grid has 10 unknowns
                 (2.0 * A, B, P, Ac),  # a diagonal of no grid
                 *bad_diagonals,  # a zero or nan diagonal in A or A_c
                 # smoothers that are not the grid's: each gave a wrong C (3.296 and
                 # 4.729 against 7.881 at m = 5, aspect 2)
                 (A, DiagonalSmoother(B.inverse_diagonal, rho_BA=1.0), P, Ac),
                 (A, DiagonalSmoother(np.full(A.shape[0], 0.5), B.rho_BA), P, Ac)):
        with pytest.raises(ValueError):
            measure_C(*args)
        with pytest.raises(ValueError):
            measure_CN(*args, PolynomialSpec.fourth_kind(1))


def _sine_basis(n):
    """Orthonormal sine vectors of length ``n`` as columns, mode i in column i - 1."""
    x = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(x, x) * np.pi / (n + 1))


@pytest.mark.parametrize("m", [3, 4])
def test_prolongation_couples_four_fine_modes_per_coarse_mode(m):
    g = GridSpec(m=m, aspect=2.0)
    nf, nc = g.n_side, g.coarsen().n_side
    Sf, Sc = _sine_basis(nf), _sine_basis(nc)
    # P in the 2-D sine bases (node ix * n + iy is kron order)
    Phat = np.kron(Sf, Sf).T @ build_prolongation(g)[0].toarray() @ np.kron(Sc, Sc)
    half = np.arange(1, nc + 1) * np.pi / (2 * (nf + 1))
    expected_1d = np.zeros((nf, nc))
    expected_1d[np.arange(nc), np.arange(nc)] = np.sqrt(2.0) * np.cos(half) ** 2
    expected_1d[nf - 1 - np.arange(nc), np.arange(nc)] = -np.sqrt(2.0) * np.sin(half) ** 2
    np.testing.assert_allclose(Phat, np.kron(expected_1d, expected_1d), atol=1e-13)
    # fine modes with the middle index (nc + 1) in either direction have no coarse part
    zero_rows = np.flatnonzero(np.abs(Phat).max(axis=1) < 1e-13)
    assert len(zero_rows) == 2 * nf - 1 == {3: 13, 4: 29}[m]
    ix, iy = np.divmod(zero_rows, nf)
    assert np.all((ix == nc) | (iy == nc))


def _two_level(m, aspect):
    g = GridSpec(m=m, aspect=aspect)
    return (assemble_poisson_q1(g), jacobi_smoother(g), build_prolongation(g)[0],
            assemble_poisson_q1(g.coarsen()))


@pytest.mark.parametrize("aspect, C", [(1.9, 7.12156945128), (3.3, 20.9940679747)])
def test_measure_C_accepts_a_grid_whose_recovered_aspect_rounds(aspect, C):
    # the aspect read back from A's off-diagonals misses these by rounding,
    # which moves 1/a of the recovered grid by an ulp: within the 1e-12 check
    assert measure_C(*_two_level(5, aspect)) == pytest.approx(C, rel=1e-11)


def test_exact_C_rises_with_m_and_aspect_below_its_limit():
    aspects = np.array([1.0, 2.0, 4.0, 8.0])
    C = np.array([[two_level_C(GridSpec(m=m, aspect=a)) for a in aspects] for m in range(3, 10)])
    assert np.all(np.diff(C, axis=0) > 0.0), C  # rises with m
    assert np.all(np.diff(C, axis=1) > 0.0), C  # and with the aspect
    assert np.all((C >= 1.0) & (C < 2.0 * aspects ** 2)), C  # approaches 2 aspect^2 from below
    for a, c in zip(aspects, C[1]):  # m = 4
        if a in C_M4:
            assert c == pytest.approx(C_M4[a], abs=2e-3), a
    assert C[5, 3] == pytest.approx(127.5852997, rel=1e-9)  # m = 8, aspect 8


def test_operand_form_matches_the_grid_routine():
    # _two_level_grid reads every aspect but 1 back an ulp low (2 -> 1.9999999999999998,
    # 8 -> 7.999999999999999), which moves these results by up to 1.8e-15 relative
    p = PolynomialSpec.fourth_kind(3)
    for m in range(3, 10):
        for aspect in (1.0, 1.9, 2.0, 3.3, 8.0):
            ops = _two_level(m, aspect)
            got = (measure_C(*ops), measure_CN(*ops, p))
            g = GridSpec(m=m, aspect=aspect)
            want = (two_level_C(g), two_level_C(g, p))
            if aspect == 1.0:
                assert got == want, m
            else:
                assert got == pytest.approx(want, rel=1e-14), (m, aspect)


def test_slabs_of_blocks_give_the_same_constants(monkeypatch):
    # at m = 6 the 31 coarse x-modes fit in one default slab, or take 31 slabs of one
    p, g = PolynomialSpec.fourth_kind(3), GridSpec(m=6, aspect=2.0)
    assert polymg.fem._SLAB >= 31
    whole = (two_level_C(g), two_level_C(g, p))
    monkeypatch.setattr(polymg.fem, "_SLAB", 1)
    assert (two_level_C(g), two_level_C(g, p)) == whole


@pytest.mark.parametrize("degree, vectors", [(None, 3.5), (3, 6.5), (50, 6.5), (200, 6.5)])
def test_two_level_C_peak_memory_is_a_few_fine_vectors(degree, vectors):
    # the symbol takes one fine vector and C_N's values of p and weight a few more,
    # whatever the degree: p is evaluated one x-row at a time (on all modes at once,
    # k = 200 took 203); the 4 x 4 blocks of all coarse modes at once took 11.2 for C
    g = GridSpec(m=9, aspect=2.0)
    p = None if degree is None else PolynomialSpec.fourth_kind(degree)
    two_level_C(GridSpec(m=3, aspect=2.0), p)  # warm-up: first-call caches are not traced
    tracemalloc.start()
    try:
        two_level_C(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vectors * g.n_interior * 8


def test_exact_CN_bracket_at_m8():
    g = GridSpec(m=8, aspect=2.0)
    C = two_level_C(g)
    for k in (1, 2, 3):
        p = PolynomialSpec.fourth_kind(k)
        assert 1.0 <= two_level_C(g, p) <= 1.0 + gamma_mu(p) * C


@pytest.mark.parametrize("aspect", [1.0, 2.0, 8.0])
def test_measured_constants_match_dense_oracle(aspect):
    for m in (3, 4):
        g = GridSpec(m=m, aspect=aspect)
        A, Ac, B = assemble_poisson_q1(g), assemble_poisson_q1(g.coarsen()), jacobi_smoother(g)
        P = build_prolongation(g)[0]
        b_hat_inv = B.rho_BA / B.inverse_diagonal
        assert two_level_C(g) == pytest.approx(_dense_sup(A, P, Ac, np.diag(b_hat_inv)), rel=1e-9)
        # N^{-1} = A (I - p(BA)^2)^{-1} through the spectrum of B_hat^(1/2) A B_hat^(1/2)
        s = np.sqrt(1.0 / b_hat_inv)
        lam, Q = np.linalg.eigh(s[:, None] * A.toarray() * s[None, :])
        for k in (1, 2, 3):
            pv = PolynomialSpec.fourth_kind(k).evaluate(lam)
            n_inv = ((Q * (lam / (1.0 - pv * pv))) @ Q.T) / s[:, None] / s[None, :]
            assert two_level_C(g, PolynomialSpec.fourth_kind(k)) == pytest.approx(
                _dense_sup(A, P, Ac, n_inv), rel=1e-9), (m, k)


def test_CN_reference_chain_values(two_level_m5_a2):
    # frozen k=1 chain on the aspect-2, m=5 two-level problem
    h = two_level_m5_a2
    CN = two_level_C(h.finest.grid, PolynomialSpec.fourth_kind(1))
    cfg = SmootherConfig.cheb4(1)
    res = measure_contraction(h, cfg, seed=0, tol=1e-9)
    assert res.converged
    # the dense ||E||_A of this problem, which equals 1 - 1/C_N
    assert res.factor == pytest.approx(0.690256225694775, abs=1e-3)
    assert 1.0 - 1.0 / CN == pytest.approx(0.690256, abs=1e-3)


def test_measure_CN_rejects_non_contraction():
    bad = PolynomialSpec(np.array([0.5]))
    with pytest.raises(ValueError, match="not a contraction"):
        two_level_C(GridSpec(m=5, aspect=2.0), bad)


def test_two_level_C_names_the_missing_coarse_level():
    with pytest.raises(ValueError, match="m = 2 has no coarse level"):
        two_level_C(GridSpec(m=2))

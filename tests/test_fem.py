"""Q1 Poisson assembly, the matrix-free stencil, grid bookkeeping, and bilinear prolongation."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from polymg.fem import (
    GridSpec,
    Q1Operator,
    assemble_poisson_q1,
    build_prolongation,
    jacobi_smoother,
    sine_symbol,
)
from polymg.linalg import as_csr


def _center_row(A, n_side):
    mid = n_side // 2
    gid = mid * n_side + mid
    return A.toarray()[gid], gid


def test_grid_spec_geometry():
    g = GridSpec(m=3, aspect=2.0)
    assert g.n_side == 7
    assert g.n_interior == 49
    assert g.hy == pytest.approx(1.0 / 8.0)
    assert g.hx == pytest.approx(2.0 / 8.0)
    c = g.coarsen()
    assert (c.m, c.aspect) == (2, 2.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(m=1, aspect=1.0)
    with pytest.raises(ValueError, match="integer"):
        GridSpec(m=3.5, aspect=1.0)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(m=3, aspect=float("inf"))
    with pytest.raises(ValueError):
        GridSpec(m=3, aspect=float("nan"))
    with pytest.raises(ValueError, match="at most 1e307"):
        GridSpec(m=3, aspect=1.2e307)  # finite, but its constants overflow
    assert GridSpec(m=np.int64(3)).n_side == 7
    with pytest.raises(ValueError):
        GridSpec(m=3, aspect=0.5)
    with pytest.raises(ValueError):
        GridSpec(m=2, aspect=1.0).coarsen()


def test_unit_aspect_stencil():
    # interior stencil (1/3) * [[-1,-1,-1],[-1,8,-1],[-1,-1,-1]], h-independent
    A = assemble_poisson_q1(GridSpec(m=3, aspect=1.0))
    row, gid = _center_row(A, 7)
    expected = np.zeros(49)
    expected[gid] = 8.0 / 3.0
    for off in (-8, -7, -6, -1, 1, 6, 7, 8):
        expected[gid + off] = -1.0 / 3.0
    assert np.allclose(row, expected, atol=1e-14)


def test_aspect_two_stencil():
    # hx = 2 hy: weak x-coupling turns positive, y-coupling strengthens
    A = assemble_poisson_q1(GridSpec(m=3, aspect=2.0))
    row, gid = _center_row(A, 7)
    expected = np.zeros(49)
    expected[gid] = 10.0 / 3.0
    expected[gid - 7] = expected[gid + 7] = 1.0 / 3.0        # x neighbors
    expected[gid - 1] = expected[gid + 1] = -7.0 / 6.0       # y neighbors
    for off in (-8, -6, 6, 8):
        expected[gid + off] = -5.0 / 12.0                    # corners
    assert np.allclose(row, expected, atol=1e-14)


@pytest.mark.parametrize("aspect", [1.0, 2.0, 4.0])
def test_diagonal_is_constant(aspect):
    A = assemble_poisson_q1(GridSpec(m=3, aspect=aspect))
    expected = (4.0 / 3.0) * (aspect + 1.0 / aspect)
    assert np.allclose(A.diagonal(), expected, atol=1e-13)


@pytest.mark.parametrize("aspect", [1.0, 2.0, 8.0])
def test_assembled_matrix_is_spd(aspect):
    A = assemble_poisson_q1(GridSpec(m=3, aspect=aspect))
    assert np.max(np.abs((A - A.T).toarray())) <= 1e-13
    assert scipy.linalg.eigh(A.toarray(), eigvals_only=True)[0] > 0.0


def _kronecker_sum(grid):
    """Reference assembly: ``Kx (x) My + Mx (x) Ky`` from 1-D tridiagonal matrices, as CSR."""
    def factors(h):
        off = np.ones(grid.n_side - 1)
        K = sp.diags_array([-off / h, np.full(grid.n_side, 2.0 / h), -off / h], offsets=[-1, 0, 1])
        M = sp.diags_array([off * h / 6, np.full(grid.n_side, 4.0 * h / 6), off * h / 6],
                           offsets=[-1, 0, 1])
        return K, M

    (Kx, Mx), (Ky, My) = factors(grid.hx), factors(grid.hy)
    return sp.kron(Kx, My, format="csr") + sp.kron(Mx, Ky, format="csr")


@pytest.mark.parametrize("aspect", [1.0, 2.0, 8.0])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_band_matches_the_kronecker_sum_bit_for_bit(m, aspect):
    grid = GridSpec(m=m, aspect=aspect)
    band, ref = assemble_poisson_q1(grid), _kronecker_sum(grid)
    assert band.format == "dia" and band.offsets.dtype == np.int32
    assert list(band.offsets) == sorted(band.offsets)
    # the CSR of the band drops its zeros: same pattern and values as the reference
    A = as_csr(band)
    for name in ("indptr", "indices", "data"):
        assert getattr(A, name).tobytes() == getattr(ref, name).tobytes(), name
    x = np.random.default_rng(m).standard_normal(grid.n_interior)
    assert (band @ x).tobytes() == (ref.todia() @ x).tobytes()


_ASPECTS = [1.0, 2.0, 8.0, math.sqrt(2.0), 1e150]


@pytest.mark.parametrize("aspect", _ASPECTS)
@pytest.mark.parametrize("m", range(2, 9))
def test_stencil_product_matches_the_band(m, aspect):
    # each entry of the stencil's product lies within a few rounding errors
    # of the band's; x is nonzero on the edge rows, so the Dirichlet cut-offs count
    grid = GridSpec(m=m, aspect=aspect)
    band, op = assemble_poisson_q1(grid), Q1Operator(grid, np.empty(2 * grid.n_interior))
    x = np.random.default_rng(m).standard_normal(grid.n_interior)
    X = x.reshape(grid.n_side, grid.n_side)
    assert np.all(X[[0, -1], :] != 0.0) and np.all(X[:, [0, -1]] != 0.0)
    y = op @ x
    assert op.shape == band.shape and y.shape == x.shape and y is not x
    assert np.all(np.abs(y - band @ x) <= 8 * np.finfo(float).eps * (abs(band) @ np.abs(x)))


@pytest.mark.parametrize("aspect", _ASPECTS)
@pytest.mark.parametrize("m", [2, 3, 6])
def test_stencil_coefficients_are_the_band_entries_bit_for_bit(m, aspect):
    grid = GridSpec(m=m, aspect=aspect)
    band, op = assemble_poisson_q1(grid), Q1Operator(grid, np.empty(2 * grid.n_interior))
    n = grid.n_side
    # centre, y-neighbour, x-neighbour and corner, each on both sides of the middle node
    for coefficient, offsets in ((op.a, [0]), (op.b, [-1, 1]), (op.g, [-n, n]),
                                 (op.d, [-n - 1, -n + 1, n - 1, n + 1])):
        for k in offsets:
            stored = band.data[list(band.offsets).index(k), band.shape[0] // 2]
            assert np.float64(coefficient).tobytes() == stored.tobytes(), k
    assert set(band.data.ravel()) == {op.a, op.b, op.g, op.d, 0.0}


@pytest.mark.parametrize("aspect", _ASPECTS)
def test_stencil_product_is_symmetric(aspect):
    grid = GridSpec(m=5, aspect=aspect)
    op = Q1Operator(grid, np.empty(2 * grid.n_interior))
    x, y = np.random.default_rng(5).standard_normal((2, grid.n_interior))
    scale = np.abs(x) @ (abs(assemble_poisson_q1(grid)) @ np.abs(y))
    assert abs(y @ (op @ x) - x @ (op @ y)) <= 64 * np.finfo(float).eps * scale


def test_stencils_may_share_scratch():
    # the levels of a hierarchy share one scratch: products never nest
    fine, coarse = GridSpec(m=4, aspect=2.0), GridSpec(m=3, aspect=2.0)
    scratch = np.empty(2 * fine.n_interior)
    rng = np.random.default_rng(4)
    for grid in (fine, coarse, fine):
        x = rng.standard_normal(grid.n_interior)
        own = np.empty(2 * grid.n_interior)
        assert np.array_equal(Q1Operator(grid, scratch) @ x, Q1Operator(grid, own) @ x)
    with pytest.raises(ValueError, match="shape"):
        Q1Operator(coarse, scratch) @ np.ones(fine.n_interior)


def test_prolongation_weights():
    P, _ = build_prolongation(GridSpec(m=3, aspect=1.0))
    assert P.shape == (49, 9)
    dense = P.toarray()
    assert set(np.unique(dense[dense != 0.0])) == {0.25, 0.5, 1.0}
    assert np.allclose(dense.sum(axis=0), 4.0)
    # a coarse point injects with weight 1 and receives nothing else
    for cx in range(3):
        for cy in range(3):
            frow = dense[(2 * cx + 1) * 7 + (2 * cy + 1)]
            assert frow[cx * 3 + cy] == 1.0
            assert np.count_nonzero(frow) == 1


@pytest.mark.parametrize("aspect", [1.0, 2.0])
def test_galerkin_product_reassembles_coarse_problem(aspect):
    # bilinear coarse functions embed exactly, so P^T A P is the coarse matrix
    fine = GridSpec(m=3, aspect=aspect)
    P, _ = build_prolongation(fine)
    Ac = (P.T @ assemble_poisson_q1(fine) @ P).toarray()
    assert np.allclose(Ac, assemble_poisson_q1(fine.coarsen()).toarray(), atol=1e-12)


def test_jacobi_smoother_matches_dense_spectrum():
    grid = GridSpec(m=3, aspect=1.0)
    A = assemble_poisson_q1(grid)
    B = jacobi_smoother(grid)
    assert np.allclose(B.inverse_diagonal, 1.0 / A.diagonal())
    d = np.sqrt(B.inverse_diagonal)
    exact = scipy.linalg.eigh(d[:, None] * A.toarray() * d[None, :], eigvals_only=True)[-1]
    assert B.rho_BA == pytest.approx(exact, rel=1e-8)


def test_jacobi_spectral_radius_approaches_three_halves():
    grid = GridSpec(m=5, aspect=1.0)
    B = jacobi_smoother(grid)
    assert B.rho_BA == pytest.approx(1.495196, abs=1e-4)
    assert B.rho_BA < 1.5


@pytest.mark.parametrize("aspect", [1.0, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("m", range(3, 9))
def test_grid_only_level_constants_match_the_operator_formulas_bit_for_bit(m, aspect):
    # the smoother and R come from the grid alone; here they meet the band's
    # diagonal, the closed-form diagonal (8/6)(hy/hx + hx/hy) and the
    # transpose of kron(p, p), with P the transpose view of R
    grid = GridSpec(m=m, aspect=aspect)
    B = jacobi_smoother(grid)
    assert np.array_equal(B.inverse_diagonal, 1.0 / assemble_poisson_q1(grid).diagonal())
    d = (8.0 / 6.0) * (grid.hy / grid.hx + grid.hx / grid.hy)
    assert B.rho_BA == float(sine_symbol(grid, [1, grid.n_side]).max()) / d
    P, R = build_prolongation(grid)
    nc = grid.coarsen().n_side
    # the 1-D interpolation puts coarse node c at fine node 2c + 1 with 1/2 on each neighbour
    c = np.repeat(np.arange(nc), 3)
    p = sp.csr_array((np.tile([0.5, 1.0, 0.5], nc), (2 * c + np.tile([0, 1, 2], nc), c)),
                     shape=(grid.n_side, nc))
    ref = as_csr(sp.kron(p.T, p.T))
    assert R.shape == ref.shape and np.shares_memory(P.data, R.data)
    assert R.indices.dtype == R.indptr.dtype == np.int32
    assert R.data.tobytes() == ref.data.tobytes()
    assert np.array_equal(R.indices, ref.indices) and np.array_equal(R.indptr, ref.indptr)

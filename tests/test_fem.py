"""Q1 Poisson assembly, grid bookkeeping, and bilinear prolongation."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from polymg.fem import (
    GridSpec,
    assemble_poisson_q1,
    build_prolongation,
    jacobi_smoother,
)
from polymg.linalg import as_csr, validate_csr


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
    validate_csr(as_csr(A), symmetric=True, tol=1e-13)
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


def test_prolongation_weights():
    fine, coarse = GridSpec(m=3, aspect=1.0), GridSpec(m=2, aspect=1.0)
    P = build_prolongation(fine, coarse)
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


def test_prolongation_validation():
    with pytest.raises(ValueError):
        build_prolongation(GridSpec(m=3, aspect=1.0), GridSpec(m=3, aspect=1.0))
    with pytest.raises(ValueError):
        build_prolongation(GridSpec(m=3, aspect=1.0), GridSpec(m=2, aspect=2.0))


@pytest.mark.parametrize("aspect", [1.0, 2.0])
def test_galerkin_product_reassembles_coarse_problem(aspect):
    # bilinear coarse functions embed exactly, so P^T A P is the coarse matrix
    fine, coarse = GridSpec(m=3, aspect=aspect), GridSpec(m=2, aspect=aspect)
    A = assemble_poisson_q1(fine)
    P = build_prolongation(fine, coarse)
    Ac = (P.T @ A @ P).toarray()
    assert np.allclose(Ac, assemble_poisson_q1(coarse).toarray(), atol=1e-12)


def test_jacobi_smoother_matches_dense_spectrum():
    grid = GridSpec(m=3, aspect=1.0)
    A = assemble_poisson_q1(grid)
    B = jacobi_smoother(A, grid)
    assert np.allclose(B.inverse_diagonal, 1.0 / A.diagonal())
    d = np.sqrt(B.inverse_diagonal)
    exact = scipy.linalg.eigh(d[:, None] * A.toarray() * d[None, :], eigvals_only=True)[-1]
    assert B.rho_BA == pytest.approx(exact, rel=1e-8)


def test_jacobi_spectral_radius_approaches_three_halves():
    grid = GridSpec(m=5, aspect=1.0)
    B = jacobi_smoother(assemble_poisson_q1(grid), grid)
    assert B.rho_BA == pytest.approx(1.495196, abs=1e-4)
    assert B.rho_BA < 1.5


def test_jacobi_smoother_rejects_an_operator_of_another_grid():
    A = assemble_poisson_q1(GridSpec(m=3, aspect=2.0))
    with pytest.raises(ValueError, match="does not match the Q1 operator"):
        jacobi_smoother(A, GridSpec(m=3, aspect=1.0))
    with pytest.raises(ValueError, match="shape"):
        jacobi_smoother(A, GridSpec(m=4, aspect=2.0))
    for bad in (0.0, np.nan):
        B = A.copy()
        B.setdiag(bad)
        with pytest.raises(ValueError, match="positive"):
            jacobi_smoother(B, GridSpec(m=3, aspect=2.0))

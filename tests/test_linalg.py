"""Sparse/dense linear algebra primitives."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from polymg.linalg import as_csr, lanczos_max


def _random_spd(n, seed, shift=1.0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return M @ M.T + shift * n * np.eye(n)


def _random_sparse_symmetric(n, seed, density=0.15):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    M = np.where(mask, rng.standard_normal((n, n)), 0.0)
    S = M + M.T + n * np.eye(n)
    return as_csr(sp.csr_array(S))


def test_as_csr_sums_duplicates():
    A = sp.coo_array(([1.0, 2.0, 5.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    B = as_csr(A)
    assert B[0, 1] == 3.0
    assert B.nnz == 2
    assert B.has_canonical_format


def _start(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


def test_lanczos_max_diagonal_operator():
    d = np.array([0.3, 1.7, 0.9, 2.4, 2.399, 0.01] * 20)
    res = lanczos_max(lambda v: d * v, sp.eye_array(d.size), _start(d.size, 1), tol=1e-12,
                      max_iter=5000)
    assert res.converged
    assert 0.0 <= res.residual <= 1e-12 * res.value
    # theta + residual: an upper estimate
    assert 2.4 <= res.value <= 2.4 * (1 + 2e-12)


def test_lanczos_max_matches_dense_spectrum():
    # B A with diagonal B = D^-1 is similar to D^{-1/2} A D^{-1/2}
    A = _random_spd(20, seed=11)
    s = 1.0 / np.sqrt(np.diag(A))
    S = s[:, None] * A * s[None, :]
    res = lanczos_max(lambda v: S @ v, sp.eye_array(20), _start(20, 2), tol=1e-13, max_iter=5000)
    expected = scipy.linalg.eigh(S, eigvals_only=True)[-1]
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_lanczos_max_breakdown_is_converged(n):
    # n steps span the whole space; with tol = 0 only breakdown can stop the run
    d = np.linspace(0.5, 3.0, n)
    res = lanczos_max(lambda v: d * v, sp.eye_array(n), _start(n, 4), tol=0.0, max_iter=50)
    assert res.converged
    assert res.iterations == n
    assert res.value == pytest.approx(d[-1], rel=1e-13)


def test_lanczos_max_flags_exhaustion():
    d = np.random.default_rng(5).random(200)
    res = lanczos_max(lambda v: d * v, sp.eye_array(200), _start(200), tol=1e-12, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.residual > 1e-12 * res.value
    with pytest.raises(ValueError, match="max_iter"):
        lanczos_max(lambda v: d * v, sp.eye_array(200), _start(200), tol=1e-10, max_iter=0)


def test_lanczos_max_deterministic_per_seed():
    A = _random_sparse_symmetric(300, seed=6)
    runs = [lanczos_max(lambda v: A @ v, sp.eye_array(300), _start(300, seed), tol=1e-10,
                        max_iter=5000)
            for seed in (3, 3, 4)]
    assert runs[0] == runs[1]
    assert runs[0].value == pytest.approx(runs[2].value, rel=1e-9)


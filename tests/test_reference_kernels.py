"""Bitwise pins: the smoother and V-cycle against their full-work recurrences.

``apply_smoother`` and ``_v_cycle_level`` skip work whose result is known
(a product with a zero ``z`` or a unit ``beta``, the residual of a zero
start).  The references below do all of that work, one full-vector pass
per operation, and start coarse levels from an allocated zero vector.
The skips are exact, so every iterate must match the reference bit for
bit; a later speed change that alters the arithmetic fails here.  The
references apply each level's own operator (``lvl.op @``), so these pins
hold for whichever product the level uses; ``tests/test_fem.py`` checks
that product against the assembled band.
"""

import numpy as np
import pytest

import polymg.multigrid
from conftest import smoother_work
from polymg import GridSpec, build_hierarchy
from polymg.multigrid import measure_contraction
from polymg.optpoly import optimal_polynomial
from polymg.smoothers import SmootherConfig, apply_smoother


def _reference_smoother(A, B, x, b, cfg):
    if not cfg.steps:
        return x
    inv_rho = 1.0 / B.rho_BA
    dinv = B.inverse_diagonal
    r = b - A @ x
    z = np.zeros_like(x)
    t = np.empty_like(x)
    last = len(cfg.steps) - 1
    for i, (a, c, beta) in enumerate(cfg.steps):
        np.multiply(dinv, r, out=t)
        t *= c * inv_rho
        z *= a
        z += t
        np.multiply(z, beta, out=t)
        x += t
        if i < last:
            r -= A @ z
    return x


def _reference_v_cycle_level(h, cfg, x, b, level):
    lvl = h.levels[level]
    if lvl.P is None:
        return h.coarse_solver.solve(b)
    _reference_smoother(lvl.op, lvl.smoother, x, b, cfg)
    r = b - lvl.op @ x
    ec = _reference_v_cycle_level(h, cfg, np.zeros(lvl.R.shape[0]), lvl.R @ r, level + 1)
    x += lvl.P @ ec
    return _reference_smoother(lvl.op, lvl.smoother, x, b, cfg)


SMOOTHERS = {
    "w43k1": SmootherConfig.simple(4.0 / 3.0, 1),
    "w32k3": SmootherConfig.simple(1.5, 3),
    "cheb6": SmootherConfig.cheb4(6),
    "opt6": SmootherConfig.optimized(optimal_polynomial(6).iteration_betas),
}


@pytest.fixture(scope="module")
def hierarchy_m5_a2():
    h = build_hierarchy(GridSpec(m=5, aspect=2.0))
    assert len(h.levels) == 4
    return h


@pytest.mark.parametrize("name", sorted(SMOOTHERS))
def test_smoother_matches_full_work_recurrence(hierarchy_m5_a2, name):
    cfg = SMOOTHERS[name]
    rng = np.random.default_rng(20)
    for lvl in hierarchy_m5_a2.levels[:-1]:
        n = lvl.op.shape[0]
        x, b = rng.standard_normal(n), rng.standard_normal(n)
        expected = _reference_smoother(lvl.op, lvl.smoother, x.copy(), b, cfg)
        run = apply_smoother(lvl.op, lvl.smoother, x.copy(), b, cfg, smoother_work(b))
        assert np.array_equal(run, expected)
        expected = _reference_smoother(lvl.op, lvl.smoother, np.zeros(n), b, cfg)
        run = apply_smoother(lvl.op, lvl.smoother, None, b, cfg, smoother_work(b))
        assert np.array_equal(run, expected)


@pytest.mark.parametrize("name", sorted(SMOOTHERS))
def test_v_cycle_matches_full_work_cycle(hierarchy_m5_a2, name):
    h = hierarchy_m5_a2
    cfg = SMOOTHERS[name]
    rng = np.random.default_rng(21)
    n = h.finest.A.shape[0]
    x, b = rng.standard_normal(n), rng.standard_normal(n)
    for start in (x, np.zeros(n)):
        expected = _reference_v_cycle_level(h, cfg, start.copy(), b, 0)
        assert np.array_equal(polymg.multigrid._v_cycle_level(h, cfg, start.copy(), b, 0),
                              expected)
    zero_start = _reference_v_cycle_level(h, cfg, np.zeros(n), b, 0)
    assert np.array_equal(polymg.multigrid._v_cycle_level(h, cfg, None, b, 0), zero_start)


@pytest.mark.parametrize("name", sorted(SMOOTHERS))
def test_contraction_estimate_matches_full_work_cycle(hierarchy_m5_a2, name, monkeypatch):
    cfg = SMOOTHERS[name]
    res = measure_contraction(hierarchy_m5_a2, cfg, seed=3, tol=1e-6, max_cycles=300)
    monkeypatch.setattr(polymg.multigrid, "_v_cycle_level", _reference_v_cycle_level)
    expected = measure_contraction(hierarchy_m5_a2, cfg, seed=3, tol=1e-6, max_cycles=300)
    assert (res.factor, res.n_cycles) == (expected.factor, expected.n_cycles)
    assert np.array_equal(res.vector, expected.vector)

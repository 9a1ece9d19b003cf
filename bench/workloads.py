"""The three benchmark workloads, each a closed loop of calls into polymg.

Every library call goes through a module attribute looked up at call time
(``polymg.multigrid.build_hierarchy``), so a traced run sees the wrapped
functions.  The workload seed only generates arrays (start vectors and
right-hand sides); the library receives those arrays, never the seed.

A workload runs one set-up (``build_hierarchy``), then whole passes of its
fixed work until ``seconds`` have elapsed (at least one), then the extra
set-ups its ``setup_s`` median is taken over.  Count metrics come from the
first pass, so they repeat exactly at one seed.
"""

from __future__ import annotations

import math
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import polymg.bounds
import polymg.cli
import polymg.fem
import polymg.multigrid
import polymg.optpoly
import polymg.poly
import polymg.smoothers
from reference import Reference

ASPECT = 2.0
C_ANALYTIC = 2.0 * ASPECT ** 2  # the bound curves' C, as in the acceptance sweep
COLUMNS = ("w43", "w32", "cheb", "opt")
CYCLE_CONFIGS = {"w43k1": ("w43", 1), "cheb6": ("cheb", 6), "opt6": ("opt", 6)}  # tag: (column, k)
SWEEP_TOL = 1e-6
SWEEP_MAX_CYCLES = 300
BOUND_SLACK = 1.02        # check 07 of the acceptance tests
RESIDUAL_TOL = 1e-8
BOUNDS_C = "2,8,32,128"


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``SMOKE`` shrinks every workload to seconds."""

    sweep_m: int = 7
    sweep_degrees: tuple[int, ...] = tuple(range(1, 7))
    cycle_m: int = 8
    cycle_rounds: int = 100     # V-cycles per configuration per pass
    poly_degrees: tuple[int, ...] = tuple(range(1, 201))
    bounds_degrees: str = "1..200"
    dense_m: int = 5
    setup_repeats: dict = field(default_factory=lambda: {
        "sweep-m7": 2, "cycle-m8": 1, "constants": 9})


FULL = Scale()
SMOKE = Scale(sweep_m=4, sweep_degrees=(1, 2), cycle_m=4, poly_degrees=(1, 2),
              bounds_degrees="1..2", dense_m=4)


@dataclass
class Result:
    """What one workload run measured and checked."""

    hierarchy: object = None
    setup_s: list = field(default_factory=list)
    total_s: float = 0.0
    work_s: list = field(default_factory=list)     # one entry per pass
    op_ms: list = field(default_factory=list)      # per-operation samples, see each workload
    attempted: int = 0
    failed: list = field(default_factory=list)     # hard failures: (op, reason)
    counts: dict = field(default_factory=dict)     # from the first pass
    extra: dict = field(default_factory=dict)      # name -> (value, unit, samples, note)
    reference: Reference = field(default_factory=Reference)  # ticked between operations


def _build(m, result):
    """Build the hierarchy, recording the time and capped rho(BA) warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        h = polymg.multigrid.build_hierarchy(polymg.fem.GridSpec(m=m, aspect=ASPECT))
        result.setup_s.append(time.perf_counter() - t0)
    capped = sum("power iteration reached" in str(w.message) for w in caught)
    result.counts.setdefault("fem.rho_capped", capped)
    return h


def _extra_setups(m, result, repeats):
    for _ in range(repeats - 1):
        _build(m, result)


def _opt_betas(k, cache):
    if k not in cache:
        cache[k] = polymg.optpoly.optimal_polynomial(k).iteration_betas
    return cache[k]


def _smoother(column, k, betas):
    cfg = polymg.smoothers.SmootherConfig
    if column == "w43":
        return cfg.simple(4.0 / 3.0, k)
    if column == "w32":
        return cfg.simple(1.5, k)
    if column == "cheb":
        return cfg.cheb4(k)
    return cfg.optimized(_opt_betas(k, betas))


def _bound(column, k):
    b = polymg.bounds
    if column == "w43":
        return b.bound_simple(C_ANALYTIC, 4.0 / 3.0, k).value
    if column == "w32":
        return b.bound_simple(C_ANALYTIC, 1.5, k).value
    if column == "cheb":
        return b.bound_cheb(C_ANALYTIC, k)
    return b.bound_opt_conjecture(C_ANALYTIC, k)


def _tag(column, k):
    """Configuration label: w43k1, w32k3, cheb6, opt6."""
    return f"{column}k{k}" if column.startswith("w") else f"{column}{k}"


def _passes(seconds, one_pass, result, t_start):
    """Run whole passes until ``seconds`` have elapsed; at least one.

    ``total_s`` runs from ``t_start`` (the first library call) to the end
    of the first pass.
    """
    start = time.perf_counter()
    while not result.work_s or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        one_pass(not result.work_s)
        t1 = time.perf_counter()
        if not result.work_s:
            result.total_s = t1 - t_start
        result.work_s.append(t1 - t0)


def sweep(seed, seconds, scale, tracer, workdir, setups=True):
    """24 contraction cells (4 columns x k = 1..6) at m=7, warm-started down each column.

    One operation is one estimator V-cycle; a pass gives one sample, its
    time divided by its cycle count.
    """
    r = Result()
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()
    h = _build(scale.sweep_m, r)
    tracer.set_levels(h)
    n = h.finest.A.shape[0]
    betas = {}

    def one_pass(first):
        unconverged = cycles = bad = 0  # bad: failed a check or did not converge
        t_pass = time.perf_counter()
        for column in COLUMNS:
            vec = rng.standard_normal(n)
            for k in scale.sweep_degrees:
                r.reference.tick()
                tracer.tag = _tag(column, k)
                op = f"{column} k={k}"
                r.attempted += 1
                try:
                    cfg = polymg.multigrid.VCycleConfig(smoother=_smoother(column, k, betas))
                    res = polymg.multigrid.measure_contraction(
                        h, cfg, tol=SWEEP_TOL, max_cycles=SWEEP_MAX_CYCLES, x0=vec)
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    r.failed.append((op, f"raised {exc!r}"))
                    bad += 1
                    vec = rng.standard_normal(n)
                    continue
                vec = res.vector
                cycles += res.n_cycles
                unconverged += not res.converged
                problem = _check_cell(res.factor, _bound(column, k))
                if problem:
                    r.failed.append((op, problem))
                bad += bool(problem) or not res.converged
        tracer.tag = ""
        r.op_ms.append((time.perf_counter() - t_pass) * 1e3 / max(cycles, 1))
        if first:
            r.counts["multigrid.contraction_cycles"] = cycles
            r.counts["multigrid.cells_capped"] = unconverged
            r.counts["cells_failed"] = bad

    _passes(seconds, one_pass, r, t_start)
    cells = len(COLUMNS) * len(scale.sweep_degrees)
    bad, capped = r.counts["cells_failed"], r.counts["multigrid.cells_capped"]
    r.extra["sweep_s"] = (_median(r.work_s), "s", len(r.work_s), f"{cells}-cell table after set-up")
    r.extra["failed_frac"] = (
        bad / cells, "ratio", cells,
        f"{bad}/{cells} cells of the first pass failed a check or did not converge; "
        f"{capped} stopped at the {SWEEP_MAX_CYCLES}-cycle cap")
    r.hierarchy = h
    if setups:
        _extra_setups(scale.sweep_m, r, scale.setup_repeats["sweep-m7"])
    return r


def cycle(seed, seconds, scale, tracer, workdir, setups=True):
    """Fixed V-cycle solves from x = 0 at m=8 for w43k1, cheb6 and opt6, each cycle timed.

    One operation is one V-cycle; each round (one cycle of every
    configuration) gives one sample, its time divided by its cycle count.
    """
    r = Result()
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()
    h = _build(scale.cycle_m, r)
    tracer.set_levels(h)
    A = h.finest.A
    b = rng.standard_normal(A.shape[0])
    b_norm = float(np.linalg.norm(b))
    configs = {name: polymg.multigrid.VCycleConfig(smoother=_smoother(column, k, {}))
               for name, (column, k) in CYCLE_CONFIGS.items()}
    cycle_ms = {name: [] for name in configs}
    worst = {name: 0.0 for name in configs}

    def one_pass(first):
        xs = {name: np.zeros_like(b) for name in configs}
        raised = {}
        for _ in range(scale.cycle_rounds):
            r.reference.tick()
            t_round = time.perf_counter()
            for name, cfg in configs.items():
                if name in raised:
                    continue
                tracer.tag = name
                t0 = time.perf_counter()
                try:
                    xs[name] = polymg.multigrid.v_cycle(h, cfg, xs[name], b)
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    raised[name] = exc
                cycle_ms[name].append((time.perf_counter() - t0) * 1e3)
            r.op_ms.append((time.perf_counter() - t_round) * 1e3 / len(configs))
        tracer.tag = ""
        for name, x in xs.items():
            r.attempted += 1
            if name in raised:
                r.failed.append((f"{name} solve", f"raised {raised[name]!r}"))
                continue
            relres = float(np.linalg.norm(b - A @ x)) / b_norm
            worst[name] = max(worst[name], relres)
            if not (np.all(np.isfinite(x)) and relres <= RESIDUAL_TOL):
                r.failed.append((f"{name} solve", f"relative residual {relres:.3e}"))

    _passes(seconds, one_pass, r, t_start)
    for name, samples in cycle_ms.items():
        p50, p90 = np.percentile(samples, [50, 90])
        r.extra[f"cycle_ms_p50.{name}"] = (float(p50), "ms", len(samples),
                                           f"worst final relative residual {worst[name]:.2e}")
        r.extra[f"cycle_ms_p90.{name}"] = (float(p90), "ms", len(samples),
                                           f"{int(np.sum(np.asarray(samples) > p90))} samples above")
    r.extra["failed_frac"] = (len(r.failed) / r.attempted, "ratio", r.attempted,
                              f"{len(r.failed)}/{r.attempted} solves missed relative residual {RESIDUAL_TOL:g}")
    r.hierarchy = h
    if setups:
        _extra_setups(scale.cycle_m, r, scale.setup_repeats["cycle-m8"])
    return r


def constants(seed, seconds, scale, tracer, workdir, setups=True):
    """The bound side: optimal polynomials k=1..200, the bounds table, dense C and C_N at m=5.

    Its inputs are fixed degrees and grids, so the seed changes nothing here.
    One operation is one degree, the bounds table or the dense step; a
    pass gives one sample, its time divided by its operation count.
    """
    r = Result()
    t_start = time.perf_counter()
    h = _build(scale.dense_m, r)
    tracer.set_levels(h)
    optpoly_s, dense_s = [], []

    def one_pass(first):
        t_pass = time.perf_counter()
        for k in scale.poly_degrees:
            r.reference.tick()
            r.attempted += 1
            try:
                betas = polymg.optpoly.optimal_polynomial(k).iteration_betas
            except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
                r.failed.append((f"optimal_polynomial({k})", f"raised {exc!r}"))
                continue
            if not (np.all(betas >= 1.0) and np.all(betas < 1.6)):
                r.failed.append((f"optimal_polynomial({k})",
                                 f"betas in [{betas.min():.6f}, {betas.max():.6f}]"))
        optpoly_s.append(time.perf_counter() - t_pass)

        r.attempted += 1
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            out = Path(tmp) / "bounds.tsv"
            code = polymg.cli.main(["bounds", "--C", BOUNDS_C, "--k", scale.bounds_degrees,
                                    "--out", str(out)])
            problem = _check_bounds_table(out, code, scale)
        if problem:
            r.failed.append(("bounds table", problem))

        r.attempted += 1
        top, coarse = h.levels[0], h.levels[1]
        t0 = time.perf_counter()
        try:
            C = polymg.multigrid.measure_C(top.A, top.smoother, top.P, coarse.A)
            C_N = polymg.multigrid.measure_CN(top.A, top.smoother, top.P, coarse.A,
                                              polymg.poly.PolynomialSpec.fourth_kind(3))
        except (ValueError, np.linalg.LinAlgError) as exc:
            C = C_N = math.nan
            problem = f"raised {exc!r}"
        else:
            problem = "" if 1.0 <= C <= C_ANALYTIC and C_N > 1.0 else f"C = {C:.6f}, C_N = {C_N:.6f}"
        dense_s.append(time.perf_counter() - t0)
        if problem:
            r.failed.append(("dense C, C_N", problem))
        if first:
            r.counts["C"], r.counts["C_N"] = C, C_N
        r.op_ms.append((time.perf_counter() - t_pass) * 1e3 / (len(scale.poly_degrees) + 2))

    _passes(seconds, one_pass, r, t_start)
    degrees = len(scale.poly_degrees)
    r.extra["optpoly_s"] = (_median(optpoly_s), "s", len(optpoly_s),
                            f"optimal_polynomial for k = 1..{degrees}")
    r.extra["dense_c_s"] = (_median(dense_s), "s", len(dense_s),
                            f"measure_C + measure_CN(cheb4 k=3) at m={scale.dense_m}: "
                            f"C = {r.counts['C']:.6f}, C_N = {r.counts['C_N']:.6f}")
    r.extra["failed_frac"] = (len(r.failed) / r.attempted, "ratio", r.attempted,
                              f"{len(r.failed)}/{r.attempted} ops (degrees, bounds table, dense step)")
    r.hierarchy = h
    if setups:
        _extra_setups(scale.dense_m, r, scale.setup_repeats["constants"])
    return r


def _check_cell(factor, bound):
    """Return what is wrong with a measured contraction factor, or ''."""
    if not (math.isfinite(factor) and 0.0 < factor < 1.0):
        return f"factor {factor!r} not in (0, 1)"
    if factor > BOUND_SLACK * bound:
        return f"factor {factor:.6f} > {BOUND_SLACK} x bound {bound:.6f}"
    return ""


def _check_bounds_table(path, code, scale):
    """Return a description of what is wrong with the bounds table, or ''."""
    if code != 0:
        return f"polymg bounds exited with {code}"
    rows = path.read_text().splitlines()
    n_c = len(BOUNDS_C.split(","))
    lo, hi = (int(t) for t in scale.bounds_degrees.split(".."))
    if len(rows) != 1 + n_c * (hi - lo + 1):
        return f"{len(rows) - 1} rows, expected {n_c * (hi - lo + 1)}"
    for row in rows[1:]:
        cells = row.split("\t")
        values = [float(cells[i]) for i in (2, 4, 5, 6, 7)]
        if cells[3] not in ("0", "1") or not all(math.isfinite(v) and v > 0.0 for v in values):
            return f"bad row {row!r}"
    return ""


def _median(values):
    return float(np.median(values)) if values else 0.0


WORKLOADS = {"sweep-m7": sweep, "cycle-m8": cycle, "constants": constants}

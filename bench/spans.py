"""Spans around calls into polymg's modules, recorded from outside the library.

A traced run replaces selected module attributes with thin wrappers that
record one span per call: name, start, end, parent span, the workload's
current tag (e.g. ``cheb6``) and a few facts read from the call's
arguments or result (level, iteration counts).  Functions are looked up by
name; one that no longer exists is listed as absent and its spans are
simply missing, so a refactor that deletes a function does not break the
trace.  Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _level_of_first_arg(tracer, args, kwargs, result):
    A = args[0] if args else None
    return {"level": tracer.level_of(getattr(A, "shape", (None,))[0])}


def _level_of_x(tracer, args, kwargs, result):
    # _v_cycle_level(h, cfg, x, b, level)
    level = args[4] if len(args) > 4 else kwargs.get("level")
    return {"level": level}


def _iterations(tracer, args, kwargs, result):
    return {"iterations": int(getattr(result, "iterations", 0))}


def _degree_iterations(tracer, args, kwargs, result):
    k = args[0] if args else kwargs.get("k")
    return {"k": int(k), "iterations": int(getattr(result, "iterations", 0))}


def _cycles(tracer, args, kwargs, result):
    return {"cycles": int(getattr(result, "n_cycles", 0)),
            "converged": bool(getattr(result, "converged", False))}


# (span name, module path, attribute, [class attribute], info function).
# Patches go into the namespace the caller looks the name up in, so
# ``polymg.multigrid.jacobi_smoother`` is what ``build_hierarchy`` calls.
PATCHES = (
    ("multigrid.build_hierarchy", "polymg.multigrid", "build_hierarchy", None, None),
    ("fem.assemble_poisson_q1", "polymg.multigrid", "assemble_poisson_q1", None, None),
    ("fem.build_prolongation", "polymg.multigrid", "build_prolongation", None, None),
    ("fem.jacobi_smoother", "polymg.multigrid", "jacobi_smoother", None, None),
    ("linalg.power_method", "polymg.fem", "power_method", None, _iterations),
    ("linalg.CholeskySolver", "polymg.multigrid", "CholeskySolver", None, None),
    ("linalg.CholeskySolver.solve", "polymg.linalg", "CholeskySolver", "solve", None),
    ("multigrid.v_cycle", "polymg.multigrid", "v_cycle", None, None),
    ("multigrid._v_cycle_level", "polymg.multigrid", "_v_cycle_level", None, _level_of_x),
    ("smoothers.apply_smoother", "polymg.multigrid", "apply_smoother", None, _level_of_first_arg),
    ("multigrid.measure_contraction", "polymg.multigrid", "measure_contraction", None, _cycles),
    ("multigrid.measure_C", "polymg.multigrid", "measure_C", None, None),
    ("multigrid.measure_CN", "polymg.multigrid", "measure_CN", None, None),
    ("optpoly.optimal_polynomial", "polymg.optpoly", "optimal_polynomial", None, None),
    ("optpoly.optimal_roots", "polymg.optpoly", "optimal_roots", None, _degree_iterations),
    ("optpoly.opt_betas", "polymg.optpoly", "opt_betas", None, None),
    ("cli.main", "polymg.cli", "main", None, None),
)

_CYCLE_SPANS = ("multigrid.v_cycle", "multigrid._v_cycle_level")


class NullTracer:
    """Tracing off: the workloads set tags and nothing is recorded."""

    def __init__(self):
        self.tag = ""

    def set_levels(self, hierarchy):
        pass


class Tracer:
    """Records spans from wrapped polymg functions; install, run, uninstall."""

    def __init__(self):
        self.tag = ""
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, tag, info]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._levels: dict[int, int] = {}

    def set_levels(self, hierarchy):
        """Map matrix sizes to level indices so smoother spans know their level."""
        self._levels = {lvl.A.shape[0]: i for i, lvl in enumerate(hierarchy.levels)}

    def level_of(self, n):
        return self._levels.get(n)

    def _wrap(self, fn, name, info_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.tag, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info_fn is not None:
                rec[5] = info_fn(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for name, module_path, attr, class_attr, info_fn in PATCHES:
            try:
                owner = importlib.import_module(module_path)
            except ImportError:
                owner = None
            if owner is not None and class_attr is not None:
                owner = getattr(owner, attr, None)
                attr = class_attr
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(original, name, info_fn))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path, meta):
        """Write a header line and one JSON array per span, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"meta": meta, "absent": self.absent,
                                 "fields": ["id", "name", "start_ns", "end_ns",
                                            "parent", "tag", "info"]}) + "\n")
            for i, (name, t0, t1, parent, tag, info) in enumerate(self.spans):
                fh.write(json.dumps([i, name, t0, t1, parent, tag, info]) + "\n")


def _durations(tracer):
    """Per-span duration and self time (duration minus direct children), in s."""
    n = len(tracer.spans)
    dur = np.empty(n)
    child = np.zeros(n)
    for i, (_, t0, t1, parent, _, _) in enumerate(tracer.spans):
        dur[i] = (t1 - t0) * 1e-9
        if parent >= 0:
            child[parent] += dur[i]
    return dur, dur - child


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer, cycle_tags, contraction_columns, n_levels=3):
    """Aggregate spans into the per-layer metrics (absent spans read 0).

    ``cycle_tags`` name the smoother configurations reported per cycle and
    per level; ``contraction_columns`` the sweep columns reported per column.
    """
    dur, self_t = _durations(tracer)
    spans = tracer.spans
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)

    def total(name):
        return float(sum(dur[i] for i in by_name[name]))

    def info(i, key):
        # a call that raised recorded no info
        return (spans[i][5] or {}).get(key, 0)

    m = {}
    m["fem.assemble_s"] = total("fem.assemble_poisson_q1")
    m["fem.prolong_s"] = total("fem.build_prolongation")
    m["fem.rho_s"] = total("fem.jacobi_smoother")
    # build_hierarchy estimates rho level by level, finest first
    rho_s = defaultdict(float)
    nth = defaultdict(int)
    for i in by_name["fem.jacobi_smoother"]:
        parent = spans[i][3]
        rho_s[nth[parent]] += dur[i]
        nth[parent] += 1
    for lv in range(n_levels):
        m[f"fem.rho_s.L{lv}"] = rho_s[lv]

    m["multigrid.build_s"] = total("multigrid.build_hierarchy")
    m["multigrid.build_self_s"] = float(sum(self_t[i] for i in by_name["multigrid.build_hierarchy"]))

    # One cycle = the outermost cycle span; its multigrid self time is the
    # self time of every cycle span below it (residual, transfers, glue).
    # Spans are stored in start order, so a parent's root is known first.
    root_of = {}
    cycle_self = defaultdict(float)
    for i in sorted(by_name[_CYCLE_SPANS[0]] + by_name[_CYCLE_SPANS[1]]):
        root = root_of.get(spans[i][3], i)
        root_of[i] = root
        cycle_self[root] += self_t[i]
    cycle_ms = defaultdict(list)
    cycle_self_ms = defaultdict(list)
    for root, value in cycle_self.items():
        cycle_ms[spans[root][4]].append(dur[root] * 1e3)
        cycle_self_ms[spans[root][4]].append(value * 1e3)
    for tag in cycle_tags:
        m[f"multigrid.vcycle_ms.{tag}"] = _median(cycle_ms[tag])
        m[f"multigrid.vcycle_self_ms.{tag}"] = _median(cycle_self_ms[tag])

    contraction = by_name["multigrid.measure_contraction"]
    for column in contraction_columns:
        m[f"multigrid.contraction_s.{column}"] = float(sum(
            dur[i] for i in contraction if spans[i][4].startswith(column)))
    m["multigrid.contraction_cycles"] = sum(info(i, "cycles") for i in contraction)
    m["multigrid.cells_capped"] = sum(not info(i, "converged") for i in contraction)
    m["multigrid.measure_C_s"] = total("multigrid.measure_C")
    m["multigrid.measure_CN_s"] = total("multigrid.measure_CN")

    smooth_ms = defaultdict(list)
    for i in by_name["smoothers.apply_smoother"]:
        smooth_ms[(spans[i][4], info(i, "level"))].append(dur[i] * 1e3)
    for tag in cycle_tags:
        for lv in range(n_levels):
            m[f"smoothers.smooth_ms.{tag}.L{lv}"] = _median(smooth_ms[(tag, lv)])

    m["linalg.cholesky_s"] = total("linalg.CholeskySolver")
    m["linalg.coarse_solve_us"] = _median(
        [dur[i] * 1e6 for i in by_name["linalg.CholeskySolver.solve"]])
    m["linalg.power_iters"] = sum(info(i, "iterations") for i in by_name["linalg.power_method"])

    roots = by_name["optpoly.optimal_roots"]
    m["optpoly.roots_s"] = total("optpoly.optimal_roots")
    slowest = max(roots, key=lambda i: dur[i], default=None)
    m["optpoly.roots_s.max"] = float(dur[slowest]) if slowest is not None else 0.0
    m["optpoly.roots_s.max_k"] = info(slowest, "k") if slowest is not None else 0
    m["optpoly.newton_iters"] = sum(info(i, "iterations") for i in roots)
    m["optpoly.betas_s"] = total("optpoly.opt_betas")

    m["cli.bounds_s"] = total("cli.main")
    return m

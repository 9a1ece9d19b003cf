"""Command-line experiment runner and table emitters.

Subcommands
-----------
assemble     write the Q1 Poisson matrix in Matrix Market format
run          measure V-cycle contraction factors per degree, with bound curves
bounds       tabulate the closed-form bound variants over (C, k)
opt-poly     print optimal polynomial roots and iteration betas for one degree
gamma-table  tabulate optimal 1/gamma against its asymptotic estimate
measure-c    numerically measure the approximation constant C for one grid

The `run` subcommand writes a tab-separated table with header
``k w43 w32 cheb opt`` (contraction factors for damped Jacobi at
omega = 4/3 and 3/2, fourth-kind Chebyshev, and the optimal polynomial)
plus a companion ``*-bounds`` file with the matching bound curves.
Identical configuration and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bounds as bnd
from .fem import GridSpec, assemble_poisson_q1
from .linalg import save_matrix_market
from .multigrid import VCycleConfig, build_hierarchy, measure_C, measure_contraction
from .optpoly import optimal_polynomial, optimal_roots
from .smoothers import SmootherConfig

__all__ = ["COLUMNS", "ExperimentConfig", "run_experiment", "emit_gamma_table", "main"]

_MAX_K = 200
# m = 12 needs over 6 GB for the COO assembly alone
_MAX_M = 11


class Column(NamedTuple):
    """A ``run`` column: its smoother for degree k and its V-cycle bound for (C, k)."""

    smoother: Callable[[int], SmootherConfig]
    bound: Callable[[float, int], float]


COLUMNS = {
    "w43": Column(lambda k: SmootherConfig.simple(4.0 / 3.0, k),
                  lambda C, k: bnd.bound_simple(C, 4.0 / 3.0, k).value),
    "w32": Column(lambda k: SmootherConfig.simple(1.5, k),
                  lambda C, k: bnd.bound_simple(C, 1.5, k).value),
    "cheb": Column(SmootherConfig.cheb4, bnd.bound_cheb),
    "opt": Column(lambda k: SmootherConfig.optimized(optimal_polynomial(k).iteration_betas),
                  bnd.bound_opt_conjecture),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one contraction-factor sweep."""

    m: int = 8
    aspect: float = 1.0
    k_values: tuple[int, ...] = tuple(range(1, 7))
    smoothers: tuple[str, ...] = tuple(COLUMNS)
    c_mode: str = "analytic"
    seed: int = 0
    tol: float = 1e-8
    out: Path | None = None

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("need m >= 2")
        if self.aspect < 1.0:
            raise ValueError("need aspect >= 1")
        if not self.k_values or any(k < 1 or k > _MAX_K for k in self.k_values):
            raise ValueError(f"degrees must lie in [1, {_MAX_K}]")
        if any(name not in COLUMNS for name in self.smoothers):
            raise ValueError(f"smoother columns must be among {tuple(COLUMNS)}")
        if self.c_mode not in ("analytic", "measured"):
            raise ValueError("c_mode must be 'analytic' or 'measured'")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")


def _parse_k_range(text: str) -> list[int]:
    """Parse '3', '1..6', or '1,2,5' into a list of degrees."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree range {text!r}") from exc
    if not ks or any(k < 1 or k > _MAX_K for k in ks):
        raise argparse.ArgumentTypeError(f"degrees must lie in [1, {_MAX_K}]")
    return ks


def _parse_m(text: str) -> int:
    try:
        m = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad refinement level {text!r}") from exc
    if not 2 <= m <= _MAX_M:
        raise argparse.ArgumentTypeError(f"m must lie in [2, {_MAX_M}]")
    return m


def _parse_degree(text: str) -> int:
    try:
        k = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree {text!r}") from exc
    if not 1 <= k <= _MAX_K:
        raise argparse.ArgumentTypeError(f"degree must lie in [1, {_MAX_K}]")
    return k


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from exc
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError("tol must lie in (0, 1)")
    return tol


def _parse_c_list(text: str) -> list[float]:
    try:
        cs = [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad C list {text!r}") from exc
    if not cs or any(c < 1.0 for c in cs):
        raise argparse.ArgumentTypeError("C values must be >= 1")
    return cs


def _fmt(value: float) -> str:
    return f"{value:.10f}"


def _write_table(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    lines = ["\t".join(header)]
    lines.extend("\t".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _measured_c(m: int, aspect: float, seed: int) -> float:
    hier = build_hierarchy(GridSpec(m=m, aspect=aspect), seed=seed)
    top = hier.levels[0]
    return measure_C(top.A, top.smoother, top.P, hier.levels[1].A)


def run_experiment(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Measure contraction factors per (smoother, degree); write two files.

    The main file holds measured factors, the companion `-bounds` file the
    matching analytic curves.  Cells that fail to measure are written as
    NaN after a stderr warning.  Power iterations for each column are
    warm-started from the previous degree's limit vector.
    """
    print(f"[run] building hierarchy m={cfg.m} aspect={cfg.aspect:g}", file=sys.stderr)
    hier = build_hierarchy(GridSpec(m=cfg.m, aspect=cfg.aspect), seed=cfg.seed)
    if cfg.c_mode == "analytic":
        C = 2.0 * cfg.aspect ** 2
    else:
        # dense C measurement is capped; a coarser grid of the same aspect
        # gives a slightly smaller C than the run grid
        C = _measured_c(min(cfg.m, 5), cfg.aspect, seed=cfg.seed)
    print(f"[run] using C = {C:.6f} ({cfg.c_mode})", file=sys.stderr)

    columns: dict[str, list[float]] = {}
    for name in cfg.smoothers:
        values: list[float] = []
        vec = None
        for k in cfg.k_values:
            try:
                res = measure_contraction(
                    hier,
                    VCycleConfig(smoother=COLUMNS[name].smoother(k)),
                    seed=cfg.seed,
                    tol=cfg.tol,
                    x0=vec,
                )
                vec = res.vector
                values.append(res.factor)
                note = "" if res.converged else " (cycle cap)"
                print(
                    f"[run] {name} k={k}: {res.factor:.6f} after {res.n_cycles} cycles{note}",
                    file=sys.stderr,
                )
            except Exception as exc:
                print(f"[run] warning: {name} k={k} failed: {exc}", file=sys.stderr)
                values.append(math.nan)
                vec = None
        columns[name] = values

    out = cfg.out or Path(f"contraction-m{cfg.m}-a{cfg.aspect:g}.tsv")
    header = ["k", *cfg.smoothers]
    rows = [
        [str(k)] + [_fmt(columns[name][i]) for name in cfg.smoothers]
        for i, k in enumerate(cfg.k_values)
    ]
    _write_table(out, header, rows)

    curves = out.with_name(out.stem + "-bounds" + out.suffix)
    bound_rows = [
        [str(k)] + [_fmt(COLUMNS[name].bound(C, k)) for name in cfg.smoothers]
        for k in cfg.k_values
    ]
    _write_table(curves, header, bound_rows)
    return out, curves


def emit_gamma_table(k_values: Sequence[int], out: Path | None = None) -> str:
    """Tabulate 1/gamma for the optimal polynomial against its estimate.

    Columns: k, optimal 1/gamma, the estimate (4/pi^2)(2k+1)^2 - 2/3, their
    difference, and the next correction term (pi^2/60)(2k+1)^{-2}.
    """
    lines = ["k\tgamma_inv\testimate\tdiff\tnext_term"]
    for k in k_values:
        gi = optimal_roots(k).gamma_inv
        est = bnd.opt_gamma_inv_estimate(k)
        n = 2 * k + 1
        nxt = math.pi ** 2 / (60.0 * n * n)
        lines.append(f"{k}\t{gi:.6f}\t{est:.6f}\t{gi - est:.6e}\t{nxt:.6e}")
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
    return text


def _cmd_assemble(args: argparse.Namespace) -> int:
    A = assemble_poisson_q1(GridSpec(m=args.m, aspect=args.aspect))
    save_matrix_market(args.out, A)
    print(f"wrote {args.out} (n={A.shape[0]}, nnz={A.nnz})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        m=10 if args.full_scale else args.m,
        aspect=args.aspect,
        k_values=tuple(args.k),
        smoothers=tuple(name for name in COLUMNS if not args.smoother or name in args.smoother),
        c_mode=args.c_mode,
        seed=args.seed,
        tol=args.tol,
        out=args.out,
    )
    points, curves = run_experiment(cfg)
    print(points)
    print(curves)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    header = ["C", "k", "simple", "simple_valid", "cheb", "cheb_sharp", "cheb_2l", "opt"]
    rows = []
    for C in args.c_values:
        for k in args.k:
            simple = bnd.bound_simple(C, args.omega, k)
            rows.append(
                [
                    f"{C:.6g}",
                    str(k),
                    _fmt(simple.value),
                    str(int(simple.valid)),
                    _fmt(bnd.bound_cheb(C, k)),
                    _fmt(bnd.bound_cheb_sharp(C, k)),
                    _fmt(bnd.bound_cheb_two_level(C, k)),
                    _fmt(bnd.bound_opt_conjecture(C, k)),
                ]
            )
    if args.out is None:
        sys.stdout.write("\t".join(header) + "\n")
        for row in rows:
            sys.stdout.write("\t".join(row) + "\n")
    else:
        _write_table(args.out, header, rows)
    return 0


def _cmd_opt_poly(args: argparse.Namespace) -> int:
    spec = optimal_polynomial(args.k)
    gamma_inv = 2.0 * float(np.sum(1.0 / spec.roots))
    print(f"k {args.k}")
    print(f"gamma_inv {gamma_inv:.10f}")
    print("root beta")
    for r, b in zip(spec.roots, spec.iteration_betas):
        print(f"{r:.12f} {b:.12f}")
    return 0


def _cmd_gamma_table(args: argparse.Namespace) -> int:
    emit_gamma_table(args.k, out=args.out)
    return 0


def _cmd_measure_c(args: argparse.Namespace) -> int:
    C = _measured_c(args.m, args.aspect, seed=args.seed)
    print(f"C = {C:.12g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymg",
        description="Polynomial multigrid smoother experiments and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="write the Q1 Poisson matrix in Matrix Market format")
    p.add_argument("--m", type=_parse_m, default=5, help="refinement level (2^m cells per side)")
    p.add_argument("--aspect", type=float, default=1.0, help="domain aspect ratio, >= 1")
    p.add_argument("--out", type=Path, required=True, help="output .mtx path")
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("run", help="measure V-cycle contraction factors with bound curves")
    p.add_argument("--m", type=_parse_m, default=8, help="refinement level (default 8)")
    p.add_argument("--aspect", type=float, default=1.0)
    p.add_argument("--k", type=_parse_k_range, default=list(range(1, 7)), metavar="RANGE",
                   help="degrees, e.g. '1..6' or '1,2,4'")
    p.add_argument("--smoother", action="append", choices=tuple(COLUMNS),
                   help="column to measure (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_parse_tol, default=1e-8, help="contraction-estimate tolerance")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--c-mode", choices=("analytic", "measured"), default="analytic",
                   dest="c_mode", help="C for bound curves: 2*aspect^2 or measured")
    p.add_argument("--full-scale", action="store_true", dest="full_scale",
                   help="run at m=10 instead of the default")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bounds", help="tabulate bound variants over (C, k)")
    p.add_argument("--C", type=_parse_c_list, required=True, dest="c_values",
                   metavar="LIST", help="comma-separated C values, each >= 1")
    p.add_argument("--k", type=_parse_k_range, required=True, metavar="RANGE")
    p.add_argument("--omega", type=float, default=4.0 / 3.0,
                   help="damping for the simple-smoother column")
    p.add_argument("--out", type=Path, default=None, help="write here instead of stdout")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("opt-poly", help="print optimal roots and iteration betas")
    p.add_argument("--k", type=_parse_degree, required=True)
    p.set_defaults(func=_cmd_opt_poly)

    p = sub.add_parser("gamma-table", help="tabulate optimal 1/gamma vs estimate")
    p.add_argument("--k", type=_parse_k_range, default=list(range(1, 11)), metavar="RANGE")
    p.add_argument("--out", type=Path, default=None, help="write here instead of stdout")
    p.set_defaults(func=_cmd_gamma_table)

    p = sub.add_parser("measure-c", help="measure the approximation constant C")
    p.add_argument("--m", type=_parse_m, default=5)
    p.add_argument("--aspect", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_measure_c)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

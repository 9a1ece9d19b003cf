"""Command-line experiment runner and table emitters.

Subcommands
-----------
run          measure V-cycle contraction factors per degree, with bound curves
bounds       tabulate the closed-form bound variants over (C, k)
opt-poly     print optimal polynomial roots and iteration betas for one degree
gamma-table  tabulate optimal 1/gamma against its asymptotic estimate
measure-c    print the exact two-level approximation constant C of one grid

The `run` subcommand writes a tab-separated table with header
``k w43 w32 cheb opt`` (contraction factors for damped Jacobi at
omega = 4/3 and 3/2, fourth-kind Chebyshev, and the optimal polynomial)
plus a companion ``*-bounds`` file with the matching bound curves and a
``*-diag`` file that says how each factor was measured.
Identical configuration, seed and BLAS thread count give byte-identical
files: the last bits of the optimal roots depend on the thread count
through two BLAS calls, the k x k by k x 2 product of each Newton step
of ``optimal_roots`` and the gemv sums of the extremum search's ``g``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from . import bounds as bnd
from .fem import GridSpec, two_level_C
from .multigrid import build_hierarchy, measure_contraction
from .optpoly import _MAX_DEGREE, optimal_polynomial, optimal_roots
from .poly import PolynomialSpec
from .smoothers import SmootherConfig

__all__ = ["COLUMNS", "emit_gamma_table", "main"]

# the hierarchy (every level's R, whose transpose view is P, the cycle's four
# fine work vectors and the stencils' two scratch vectors) grows about 4x per
# level: RSS after the build is 88 MB at m = 10 (aspect 2; 37 MB above the
# 51 MB after import) and 200 MB at m = 11, whose cheb6 cycles add about
# 290 MB more, so about 1.8 GB at m = 12
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
    if not ks:
        raise argparse.ArgumentTypeError(f"empty degree range {text!r}")
    if any(k < 1 or k > _MAX_DEGREE for k in ks):
        raise argparse.ArgumentTypeError(f"degrees must lie in [1, {_MAX_DEGREE}]")
    return ks


def _checked(convert: Callable[[str], Any], name: str, ok: Callable[[Any], bool],
             message: str) -> Callable[[str], Any]:
    """An argparse type: ``convert`` the text, then require ``ok`` of the value."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}") from exc
        if not ok(value):  # comparisons reject nan
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


_parse_degree = _checked(int, "degree", lambda k: 1 <= k <= _MAX_DEGREE,
                         f"degree must lie in [1, {_MAX_DEGREE}]")
_parse_tol = _checked(float, "tolerance", lambda t: 0.0 < t < 1.0, "tol must lie in (0, 1)")
# numpy's default_rng rejects negative seeds
_parse_seed = _checked(int, "seed", lambda s: s >= 0, "seed must be >= 0")
_parse_aspect = _checked(float, "aspect ratio", lambda a: math.isfinite(a) and a >= 1.0,
                         "aspect must be finite and >= 1")
_parse_omega = _checked(float, "omega", lambda w: 0.0 < w < 2.0, "omega must lie in (0, 2)")
_parse_c_list = _checked(lambda t: [float(tok) for tok in t.split(",") if tok], "C list",
                         lambda cs: cs and all(math.isfinite(c) and c >= 1.0 for c in cs),
                         "C values must be finite and >= 1")


def _fmt(value: float) -> str:
    return f"{value:.10f}"


def _write_table(out: Path | None, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Write a tab-separated table to ``out``, or to stdout if it is None; return the text."""
    text = "".join("\t".join(row) + "\n" for row in (header, *rows))
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
    return text


def _digits_fixed_by(value: float, spread: float) -> str:
    """``value`` in ``e`` notation with the most decimals, up to 6, that ``value +- spread`` share."""
    digits = next((d for d in range(6, 0, -1)
                   if f"{value - spread:.{d}e}" == f"{value + spread:.{d}e}"), 0)
    return f"{value:.{digits}e}"


def emit_gamma_table(k_values: Sequence[int], out: Path | None = None) -> str:
    """Tabulate 1/gamma for the optimal polynomial against its estimate.

    Columns: k, optimal 1/gamma, the estimate (4/pi^2)(2k+1)^2 - 2/3, their
    difference, and the next correction term (pi^2/60)(2k+1)^{-2}.  The
    ``diff`` column is a difference of two numbers near ``gamma_inv``, so its
    absolute error is a few times ``gamma_inv * 1e-15``: changes of the root
    solver within its tolerance moved it by up to ``6e-16 gamma_inv`` (k=152).
    It is printed only to the digits that the spread
    ``diff +- 8e-15 gamma_inv`` leaves fixed, at most 7 significant digits:
    7 for k <= 18 except k=6, 5 at k=61, 3 at k=100 and k=200.
    """
    rows = []
    for k in k_values:
        gi = optimal_roots(k).gamma_inv
        est = bnd.opt_gamma_inv_estimate(k)
        n = 2 * k + 1
        nxt = math.pi ** 2 / (60.0 * n * n)
        rows.append([str(k), f"{gi:.6f}", f"{est:.6f}", _digits_fixed_by(gi - est, 8e-15 * gi),
                     f"{nxt:.6e}"])
    return _write_table(out, ["k", "gamma_inv", "estimate", "diff", "next_term"], rows)


def _cmd_run(args: argparse.Namespace) -> int:
    """Measure contraction factors per (smoother, degree); write three files.

    The main file holds measured factors, the companion `-bounds` file the
    matching analytic curves, and the `-diag` file one row per cell with
    columns ``column k steps converged residual``: the Lanczos steps, 1 if
    the estimate met ``--tol`` and 0 if it stopped at the cycle cap, and its
    Ritz residual (``nan`` steps and residual for a failed cell).  A cell
    whose measurement raises a numerical
    error (``ValueError``, including ``LinAlgError``, ``RuntimeError`` or
    ``ArithmeticError``) is written as NaN after a stderr warning; any
    other exception, such as a ``TypeError``, propagates.  Each factor is
    a Lanczos upper estimate, not a certificate (see
    :func:`~polymg.multigrid.measure_contraction`); stderr gives its steps
    and Ritz residual.  An output directory that does not exist is a
    ``ValueError`` before the hierarchy is built.
    """
    m = 8 if args.m is None else args.m
    out = args.out or Path(f"contraction-m{m}-a{args.aspect:g}.tsv")
    if not out.parent.is_dir():
        raise ValueError(f"output directory {str(out.parent)!r} does not exist")
    grid = GridSpec(m=m, aspect=args.aspect)
    if args.c_mode == "measured":
        if m < 3:
            raise ValueError("measured C needs a coarse level: m >= 3")
        C = two_level_C(grid)
    else:
        try:
            C = 2.0 * args.aspect ** 2
        except OverflowError:  # aspect ** 2 raises past the float range
            C = math.inf
        if C == math.inf:
            raise ValueError(f"analytic C = 2 aspect^2 is not finite at aspect {args.aspect:g}; "
                             "use --c-mode measured")
    names = [name for name in COLUMNS if not args.smoother or name in args.smoother]
    print(f"[run] building hierarchy m={m} aspect={args.aspect:g}", file=sys.stderr)
    hier = build_hierarchy(grid)
    c_text = f"{C:.6f}" if C < 1e9 else f"{C:.6e}"  # {:f} spells a C near 1e308 in 309 digits
    print(f"[run] using C = {c_text} ({args.c_mode})", file=sys.stderr)

    columns: dict[str, list[float]] = {}
    diag_rows = []
    measured = {}  # SmootherConfig -> result, so each distinct cycle is measured once
    for name in names:
        values: list[float] = []
        for k in args.k:
            try:
                sm = COLUMNS[name].smoother(k)
                if sm not in measured:
                    measured[sm] = measure_contraction(hier, sm, seed=args.seed, tol=args.tol)
                res = measured[sm]
                values.append(res.factor)
                diag_rows.append([name, str(k), str(res.n_cycles), str(int(res.converged)),
                                  f"{res.residual:.6e}"])
                note = "" if res.converged else " (cycle cap)"
                print(
                    f"[run] {name} k={k}: {res.factor:.6f} after {res.n_cycles} steps, "
                    f"residual {res.residual:.1e}{note}",
                    file=sys.stderr,
                )
            except (ValueError, RuntimeError, ArithmeticError) as exc:
                print(f"[run] warning: {name} k={k} failed: {exc}", file=sys.stderr)
                values.append(math.nan)
                diag_rows.append([name, str(k), "nan", "0", "nan"])
        columns[name] = values

    header = ["k", *names]
    rows = [[str(k)] + [_fmt(columns[name][i]) for name in names] for i, k in enumerate(args.k)]
    _write_table(out, header, rows)
    curves = out.with_name(out.stem + "-bounds" + out.suffix)
    bound_rows = [[str(k)] + [_fmt(COLUMNS[name].bound(C, k)) for name in names] for k in args.k]
    _write_table(curves, header, bound_rows)
    diag = out.with_name(out.stem + "-diag" + out.suffix)
    _write_table(diag, ["column", "k", "steps", "converged", "residual"], diag_rows)
    print(out)
    print(curves)
    print(diag)
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
    _write_table(args.out, header, rows)
    return 0


def _cmd_opt_poly(args: argparse.Namespace) -> int:
    state = optimal_roots(args.k)
    spec = PolynomialSpec(state.roots)
    print(f"k {args.k}")
    print(f"gamma_inv {state.gamma_inv:.10f}")
    print("root beta")
    for r, b in zip(spec.roots, spec.iteration_betas):
        print(f"{r:.12f} {b:.12f}")
    return 0


def _cmd_gamma_table(args: argparse.Namespace) -> int:
    emit_gamma_table(args.k, out=args.out)
    return 0


def _cmd_measure_c(args: argparse.Namespace) -> int:
    print(f"C = {two_level_C(GridSpec(m=args.m, aspect=args.aspect)):.12g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymg",
        description="Polynomial multigrid smoother experiments and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="measure V-cycle contraction factors with bound curves")
    # default None, not 8: argparse lets a conflicting option through when
    # its value is the default object, and small ints are shared objects
    size = p.add_mutually_exclusive_group()
    size.add_argument("--m", type=int, choices=range(2, _MAX_M + 1), metavar="M",
                      help="refinement level (default 8)")
    size.add_argument("--full-scale", action="store_const", const=10, dest="m",
                      help="run at m=10 instead of the default")
    p.add_argument("--aspect", type=_parse_aspect, default=1.0,
                   help="domain aspect ratio, finite and >= 1")
    p.add_argument("--k", type=_parse_k_range, default=list(range(1, 7)), metavar="RANGE",
                   help="degrees, e.g. '1..6' or '1,2,4'")
    p.add_argument("--smoother", action="append", choices=tuple(COLUMNS),
                   help="column to measure (repeatable; default all)")
    p.add_argument("--seed", type=_parse_seed, default=0, help="estimator start-vector seed, >= 0")
    p.add_argument("--tol", type=_parse_tol, default=1e-8, help="contraction-estimate tolerance")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--c-mode", choices=("analytic", "measured"), default="analytic",
                   dest="c_mode", help="C for bound curves: 2*aspect^2 or measured")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bounds", help="tabulate bound variants over (C, k)")
    p.add_argument("--C", type=_parse_c_list, required=True, dest="c_values",
                   metavar="LIST", help="comma-separated C values, each finite and >= 1")
    p.add_argument("--k", type=_parse_k_range, required=True, metavar="RANGE")
    p.add_argument("--omega", type=_parse_omega, default=4.0 / 3.0,
                   help="damping for the simple-smoother column, in (0, 2)")
    p.add_argument("--out", type=Path, default=None, help="write here instead of stdout")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("opt-poly", help="print optimal roots and iteration betas")
    p.add_argument("--k", type=_parse_degree, required=True)
    p.set_defaults(func=_cmd_opt_poly)

    p = sub.add_parser("gamma-table", help="tabulate optimal 1/gamma vs estimate")
    p.add_argument("--k", type=_parse_k_range, default=list(range(1, 11)), metavar="RANGE")
    p.add_argument("--out", type=Path, default=None, help="write here instead of stdout")
    p.set_defaults(func=_cmd_gamma_table)

    p = sub.add_parser("measure-c", help="print the exact two-level approximation constant C")
    p.add_argument("--m", type=int, choices=range(3, _MAX_M + 1), default=5, metavar="M",
                   help="refinement level of the fine grid (2^m cells per side)")
    p.add_argument("--aspect", type=_parse_aspect, default=1.0,
                   help="domain aspect ratio, finite and >= 1")
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

"""End-to-end command line checks.

Most tests call ``polymg.cli.main`` in this process; the few that test the
process itself (the ``python -m polymg`` entry point, the exit status and
stderr of a usage error, byte-identical output of two fresh processes, the
modules an import loads) start a subprocess.
"""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import polymg
import polymg.cli
from polymg import GridSpec

# The directory holding the imported polymg package (``src/`` or the install
# root). Putting it first on the child's PYTHONPATH makes the subprocess run
# the same source as this process, whatever its working directory.
PACKAGE_ROOT = str(Path(polymg.__file__).resolve().parent.parent)
# Far above the slowest call (about 2 s), so only a hung subprocess hits it.
TIMEOUT_S = 120


def run_cli(*args, cwd=None):
    """``polymg.cli.main(args)`` in this process, in ``cwd`` if given, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    old_cwd = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = polymg.cli.main(list(args))
            except SystemExit as exc:  # argparse exits on bad usage
                code = exc.code
    finally:
        os.chdir(old_cwd)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args, cwd=None):
    """``python -m polymg args`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    try:
        return subprocess.run(
            [sys.executable, "-m", "polymg", *args],
            capture_output=True, text=True, cwd=cwd, env=env, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        stderr = exc.stderr or ""
        # On POSIX the partial output stays bytes even with text=True.
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        pytest.fail(f"polymg {' '.join(args)} timed out after {TIMEOUT_S} s; "
                    f"stderr:\n{stderr}")


def _read_tsv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header, rows


def test_opt_poly_k1():
    res = run_process("opt-poly", "--k", "1")
    assert res.returncode == 0
    assert "0.666666" in res.stdout
    assert "1.125" in res.stdout
    assert "gamma_inv 3.0000000000" in res.stdout


def test_gamma_table_k_row_values(tmp_path):
    res = run_cli("gamma-table", "--k", "1..4")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "k\tgamma_inv\testimate\tdiff\tnext_term"
    rows = {int(line.split("\t")[0]): line.split("\t") for line in lines[1:]}
    assert float(rows[2][1]) == pytest.approx(9.472136, abs=1e-6)
    assert float(rows[2][3]) == pytest.approx(6.684e-3, abs=1e-5)
    diffs = [float(rows[k][3]) for k in (1, 2, 3, 4)]
    assert all(d > 0 for d in diffs)
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    # diff tracks the next correction term within ten percent
    for k in (1, 2, 3, 4):
        assert float(rows[k][3]) == pytest.approx(float(rows[k][4]), rel=0.1)


def test_gamma_table_rows_keep_their_text_under_rounding_noise(monkeypatch):
    # diff keeps only the digits that diff +- 8e-15 gamma_inv share, so moving
    # gamma_inv by 4e-15 relative, as a root-solver change within tolerance
    # can, leaves each row as it is; printed to 7 digits, each diff would move
    ks, scales = (61, 100, 200), (1.0 - 4e-15, 1.0, 1.0 + 4e-15)
    exact = {k: polymg.cli.optimal_roots(k).gamma_inv for k in ks}
    for k in ks:
        est = polymg.bounds.opt_gamma_inv_estimate(k)
        assert len({f"{exact[k] * s - est:.6e}" for s in scales}) == 3
    tables = []
    for scale in scales:
        monkeypatch.setattr(polymg.cli, "optimal_roots",
                            lambda k, s=scale: SimpleNamespace(gamma_inv=exact[k] * s))
        tables.append(polymg.cli.emit_gamma_table(ks))
    assert tables[0] == tables[1] == tables[2]
    diffs = [line.split("\t")[3] for line in tables[1].splitlines()[1:]]
    assert diffs == ["1.0873e-05", "4.07e-06", "1.02e-06"]


def test_bounds_table(tmp_path):
    res = run_cli("bounds", "--C", "2", "--k", "1..3")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0].split("\t") == [
        "C", "k", "simple", "simple_valid", "cheb", "cheb_sharp", "cheb_2l", "opt"]
    assert len(lines) == 4
    by_k = {int(r[1]): r for r in (line.split("\t") for line in lines[1:])}
    assert float(by_k[1][2]) == pytest.approx(3.0 / 7.0, abs=1e-10)
    assert by_k[1][3] == "1"
    assert float(by_k[3][5]) == pytest.approx(0.0805734617, abs=1e-9)
    assert float(by_k[3][6]) == pytest.approx(2.0 / 49.0, abs=1e-10)
    # --out writes the same table to a file
    out = tmp_path / "bounds.tsv"
    res2 = run_cli("bounds", "--C", "2", "--k", "1..3", "--out", str(out))
    assert res2.returncode == 0
    assert out.read_text() == res.stdout


def test_bounds_table_caps_the_two_level_column_at_1():
    # C / (2k+1)^2 would print a 300-digit number here
    res = run_cli("bounds", "--C", "1.7e308", "--k", "1")
    assert res.returncode == 0
    assert res.stdout.strip().split("\n")[1].split("\t")[6] == "1.0000000000"


def test_bounds_rejects_a_bad_omega_without_a_traceback():
    res = run_process("bounds", "--C", "2", "--k", "1", "--omega", "-1")
    assert res.returncode == 2  # a usage error, as for every other bad value
    assert res.stderr.strip().endswith("error: argument --omega: omega must lie in (0, 2)")
    assert "Traceback" not in res.stderr


def test_run_deterministic_and_below_bounds(tmp_path):
    args = ("run", "--m", "3", "--aspect", "2", "--k", "1..2", "--seed", "7")
    first = run_process(*args, cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    points = tmp_path / "contraction-m3-a2.tsv"
    curves = tmp_path / "contraction-m3-a2-bounds.tsv"
    assert points.name in first.stdout and curves.name in first.stdout
    assert points.exists() and curves.exists()

    header, rows = _read_tsv(points)
    assert header == ["k", "w43", "w32", "cheb", "opt"]
    bheader, brows = _read_tsv(curves)
    assert bheader == header
    assert [r[0] for r in rows] == ["1", "2"]
    for row, brow in zip(rows, brows):
        for cell, bcell in zip(row[1:], brow[1:]):
            measured, bound = float(cell), float(bcell)
            assert 0.0 < measured < 1.0
            assert measured <= bound * 1.02
    # degree 1 ties: fourth-kind == w43 and optimal == w32
    assert float(rows[0][1]) == pytest.approx(float(rows[0][3]), abs=1e-6)
    assert float(rows[0][2]) == pytest.approx(float(rows[0][4]), abs=1e-6)

    diag = tmp_path / "contraction-m3-a2-diag.tsv"
    snapshot = (points.read_bytes(), curves.read_bytes(), diag.read_bytes())
    second = run_process(*args, cwd=tmp_path)
    assert second.returncode == 0
    assert (points.read_bytes(), curves.read_bytes(), diag.read_bytes()) == snapshot


def test_run_single_column(tmp_path):
    out = tmp_path / "cheb.tsv"
    res = run_cli("run", "--m", "3", "--k", "2", "--smoother", "cheb",
                  "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    header, rows = _read_tsv(out)
    assert header == ["k", "cheb"]
    assert len(rows) == 1


def test_measure_c_close_to_analytic():
    # the exact two-level C at m = 5, 1.5% below its limit 2 aspect^2 = 8
    res = run_cli("measure-c", "--m", "5", "--aspect", "2")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "C = 7.88099392077\n"


def test_measure_c_rejects_an_aspect_whose_constants_overflow():
    # finite, but two_level_C's blocks overflow: a usage error, as inf is
    res = run_cli("measure-c", "--m", "4", "--aspect", "1.2e307")
    assert res.returncode == 2
    assert res.stderr.endswith(
        "polymg measure-c: error: argument --aspect: aspect must be finite and >= 1, "
        "at most 1e307\n")
    assert res.stdout == ""


def _raise(exc):
    def measure(*args, **kwargs):
        raise exc
    return measure


def test_run_writes_nan_for_a_numerical_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(polymg.cli, "measure_contraction", _raise(ValueError("no contraction")))
    out = tmp_path / "c.tsv"
    res = run_cli("run", "--m", "3", "--k", "1", "--smoother", "cheb", "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, rows = _read_tsv(out)
    assert rows == [["1", "nan"]]
    assert "cheb k=1 failed: no contraction" in res.stderr
    assert _read_tsv(tmp_path / "c-diag.tsv")[1] == [["cheb", "1", "nan", "0", "nan"]]


def test_run_marks_a_capped_cell_in_its_diag_file(tmp_path):
    # opt k=3 at m=6 stops at the 500-step cap; the factor and bound files keep their columns
    out = tmp_path / "c.tsv"
    res = run_cli("run", "--m", "6", "--aspect", "2", "--k", "3", "--smoother", "opt",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "(cycle cap)" in res.stderr
    assert _read_tsv(out)[0] == _read_tsv(tmp_path / "c-bounds.tsv")[0] == ["k", "opt"]
    header, rows = _read_tsv(tmp_path / "c-diag.tsv")
    assert header == ["column", "k", "steps", "converged", "residual"]
    assert [row[:4] for row in rows] == [["opt", "3", "500", "0"]]
    assert float(rows[0][4]) > 0.0
    assert str(tmp_path / "c-diag.tsv") in res.stdout.splitlines()


def test_run_measures_each_distinct_cycle_once(tmp_path, monkeypatch):
    # w43 and cheb at k = 1 are equal configs: cheb4(1) stores its unread a_1 as 0
    calls = []
    measure = polymg.cli.measure_contraction

    def counted(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    monkeypatch.setattr(polymg.cli, "measure_contraction", counted)
    out = tmp_path / "c.tsv"
    res = run_cli("run", "--m", "4", "--aspect", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, rows = _read_tsv(out)
    assert len(rows) * (len(header) - 1) == 24 and len(calls) == 23
    assert rows[0][header.index("w43")] == rows[0][header.index("cheb")]
    assert res.stderr.count("[run] ") == 2 + 24  # still one line per cell


def test_run_propagates_a_programming_error(tmp_path, monkeypatch):
    monkeypatch.setattr(polymg.cli, "measure_contraction", _raise(TypeError("bad argument")))
    with pytest.raises(TypeError, match="bad argument"):
        run_cli("run", "--m", "3", "--k", "1", "--smoother", "cheb",
                "--out", str(tmp_path / "c.tsv"))


def test_run_rejects_measured_C_without_a_coarse_level(tmp_path):
    # a rule across two options, so it is checked after parsing: exit 1, not 2
    res = run_cli("run", "--m", "2", "--c-mode", "measured", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr == "error: measured C needs a coarse level: m >= 3\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("aspect", ["1e200", "1e154"])
def test_run_rejects_an_analytic_C_that_overflows(tmp_path, aspect):
    # 2 aspect^2 is checked before the build: 1e200 raised OverflowError, and 1e154
    # failed in the bounds after every cell was measured and the factor file written
    res = run_cli("run", "--m", "3", "--aspect", aspect, "--k", "1", "--smoother", "cheb",
                  cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr == (f"error: analytic C = 2 aspect^2 is not finite at aspect "
                          f"{float(aspect):g}; use --c-mode measured\n")
    assert list(tmp_path.iterdir()) == []


def test_run_rejects_a_missing_output_directory(tmp_path):
    # checked before the build: the whole sweep used to run before the write failed
    out = tmp_path / "missing" / "c.tsv"
    res = run_cli("run", "--m", "3", "--k", "1", "--smoother", "w43", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr == f"error: output directory {str(out.parent)!r} does not exist\n"
    assert list(tmp_path.iterdir()) == []


def test_run_measures_C_where_the_analytic_C_overflows(tmp_path):
    res = run_cli("run", "--m", "3", "--aspect", "1e200", "--k", "1", "--smoother", "cheb",
                  "--c-mode", "measured", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "[run] using C = 68.646888 (measured)" in res.stderr


def test_run_prints_a_huge_C_in_exponent_form(tmp_path):
    # the analytic C = 2 aspect^2 = 1.62e308 is finite; in fixed point it has 309 digits
    res = run_cli("run", "--m", "3", "--aspect", "9e153", "--k", "1", "--smoother", "w43",
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    line = next(ln for ln in res.stderr.splitlines() if ln.startswith("[run] using C"))
    assert line == "[run] using C = 1.620000e+308 (analytic)"
    assert max(len(ln) for ln in res.stderr.splitlines()) <= 100


_DEGREES = "degrees must lie in [1, 200]"
_ASPECT = "aspect must be finite and >= 1, at most 1e307"
_OMEGA = "omega must lie in (0, 2)"


# explicit ids, spelled as pytest once numbered the rows, so deleting a row renames no other;
# each row names a phrase its stderr shows besides the usage line
@pytest.mark.parametrize("args, says", [
    pytest.param(("run", "--bogus"), "unrecognized arguments: --bogus", id="args0"),
    pytest.param(("run", "--smoother", "foo"), "--smoother: invalid choice", id="args1"),
    pytest.param(("run", "--k", "0..3"), _DEGREES, id="args2"),
    pytest.param(("opt-poly", "--k", "201"), "degree must lie in [1, 200]", id="args3"),
    pytest.param(("bounds", "--C", "2"), "required: --k", id="args4"),  # missing required --k
    pytest.param((), "required: command", id="args5"),
    pytest.param(("measure-c", "--m", "1"), "--m: invalid choice", id="args6"),
    # above cli._MAX_M, rejected before any assembly
    pytest.param(("measure-c", "--m", "12"), "--m: invalid choice", id="args7"),
    # a non-finite C would write nan bounds
    pytest.param(("bounds", "--C", "inf", "--k", "1"), "C values must be finite", id="args8"),
    pytest.param(("bounds", "--C", "nan", "--k", "1"), "C values must be finite", id="args9"),
    # each non-finite or below-one aspect is rejected before any assembly
    pytest.param(("measure-c", "--m", "3", "--aspect", "nan"), _ASPECT, id="args10"),
    pytest.param(("measure-c", "--m", "3", "--aspect", "inf"), _ASPECT, id="args11"),
    pytest.param(("measure-c", "--m", "3", "--aspect", "0.5"), _ASPECT, id="args12"),
    # --full-scale sets m=10, so --m would be ignored; 8 was the default of --m
    pytest.param(("run", "--full-scale", "--m", "6"), "not allowed with argument --full-scale",
                 id="args13"),
    pytest.param(("run", "--m", "8", "--full-scale"), "not allowed with argument --m", id="args14"),
    # m = 2 has no coarse level
    pytest.param(("measure-c", "--m", "2"), "--m: invalid choice", id="args15"),
    # the simple bound needs 0 < omega < 2
    pytest.param(("bounds", "--C", "2", "--k", "1", "--omega", "2.5"), _OMEGA, id="args16"),
    pytest.param(("bounds", "--C", "2", "--k", "1", "--omega", "nan"), _OMEGA, id="args17"),
    # no such command
    pytest.param(("assemble", "--m", "3", "--out", "never-written.mtx"),
                 "command: invalid choice", id="args18"),
    pytest.param(("run", "--m", "3", "--aspect", "1.2e307"), _ASPECT, id="args19"),  # above 1e307
    # degree ranges far too long to expand, checked before they are expanded
    pytest.param(("bounds", "--C", "2", "--k", "1..1000000000000"), _DEGREES, id="args20"),
    pytest.param(("gamma-table", "--k=-1000000000000..1"), _DEGREES, id="args21"),
    # a separate-word value that starts with '-' reaches the degree check, not argparse's
    # 'expected one argument'
    pytest.param(("gamma-table", "--k", "-3..1"), _DEGREES, id="args22"),
    pytest.param(("run", "--k", "-3..1"), _DEGREES, id="args23"),
    pytest.param(("bounds", "--C", "2", "--k", "-1000000000000..1"), _DEGREES, id="args24"),
])
def test_bad_usage_exits_2(args, says):
    res = run_cli(*args)
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()
    assert says in res.stderr


def _rejected_run_setting(tmp_path, *args):
    """stderr of ``polymg run --m 4 args``, checked to be a usage error that wrote nothing."""
    res = run_cli("run", "--m", "4", *args, cwd=tmp_path)
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()
    assert list(tmp_path.iterdir()) == []
    return res.stderr


@pytest.mark.parametrize("k", ["3..1", ","])
def test_empty_degree_range_is_named(tmp_path, k):
    # both ends of '3..1' lie in [1, 200]; the range between them is empty
    assert f"argument --k: empty degree range {k!r}" in _rejected_run_setting(tmp_path, "--k", k)


@pytest.mark.parametrize("k", ["1..1000000000000", "-1000000000000..1"])
def test_huge_degree_range_is_rejected_unexpanded(tmp_path, k):
    # expanded before its check, either range raised MemoryError
    stderr = _rejected_run_setting(tmp_path, f"--k={k}")
    assert "argument --k: degrees must lie in [1, 200]" in stderr


# a tol outside (0, 1) would run every cell to the cycle cap
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0, 1.0])
def test_run_rejects_bad_tol(tmp_path, tol):
    assert "argument --tol: tol must lie in (0, 1)" in _rejected_run_setting(
        tmp_path, "--tol", str(tol))


@pytest.mark.parametrize("aspect", [math.nan, math.inf, 0.5])
def test_run_rejects_bad_aspect(tmp_path, aspect):
    assert "argument --aspect: aspect must be finite and >= 1" in _rejected_run_setting(
        tmp_path, "--aspect", str(aspect))


# default_rng rejects it, so every cell would read nan
def test_run_rejects_a_negative_seed(tmp_path):
    assert "argument --seed: seed must be >= 0" in _rejected_run_setting(
        tmp_path, "--seed", "-1")


@pytest.mark.parametrize("m", [1, 12])
def test_run_rejects_m_out_of_range(tmp_path, m):
    # the later --m wins, as argparse keeps the last value of a repeated option
    assert f"argument --m: invalid choice: {m}" in _rejected_run_setting(
        tmp_path, "--m", str(m))


def test_run_measures_C_on_the_run_grid(tmp_path):
    res = run_cli("run", "--m", "6", "--aspect", "8", "--c-mode", "measured",
                  "--smoother", "cheb", "--k", "1", "--out", str(tmp_path / "c.tsv"))
    assert res.returncode == 0, res.stderr
    # the exact two-level C at m = 6, not the m = 5 value 105.900936
    assert "[run] using C = 121.667820 (measured)" in res.stderr


def test_docstring_lists_the_parser_subcommands():
    doc = polymg.cli.__doc__.split("Subcommands\n-----------\n")[1].split("\n\n")[0]
    listed = [line.split()[0] for line in doc.splitlines()]
    action = next(a for a in polymg.cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert listed == list(action.choices) == [
        "run", "bounds", "opt-poly", "gamma-table", "measure-c"]


def test_cli_exports_only_what_a_user_calls():
    # run's settings are defined by its parser alone; no config type or sweep function
    assert polymg.cli.__all__ == ["COLUMNS", "emit_gamma_table", "main"]


def _run_python(code):
    """Run ``code`` in a fresh interpreter on this process's polymg source."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=TIMEOUT_S)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_import_leaves_heavy_scipy_modules_out():
    # scipy.sparse.linalg, scipy.optimize, scipy.linalg and scipy.io add about
    # 2, 18, 8 and 1.5 MB of RSS
    heavy = ("scipy.sparse.linalg", "scipy.optimize", "scipy.linalg", "scipy.io")
    out = _run_python(f"import sys, polymg.cli; print(*(m in sys.modules for m in {heavy!r}))")
    assert out == ["False"] * len(heavy)


def test_only_the_contraction_estimate_loads_scipy_linalg():
    # the build, the cycle, the optimal polynomials, C and the bounds run on
    # numpy and scipy.sparse; lanczos_max imports scipy.linalg at its first call
    code = """if True:
        import contextlib, io, sys
        import numpy as np
        import polymg.cli
        from polymg import (GridSpec, SmootherConfig, build_hierarchy, measure_contraction,
                            optimal_polynomial, two_level_C, v_cycle)
        h = build_hierarchy(GridSpec(m=5, aspect=2.0))
        cfg = SmootherConfig.cheb4(2)
        x = b = np.ones(h.finest.op.shape[0])
        for _ in range(3):
            x = v_cycle(h, cfg, x, b)
        optimal_polynomial(6)
        two_level_C(h.finest.grid)
        with contextlib.redirect_stdout(io.StringIO()):
            assert polymg.cli.main(["bounds", "--C", "2,8", "--k", "1..6"]) == 0
        print("scipy.linalg" in sys.modules)
        print(repr(measure_contraction(h, cfg, seed=3, tol=1e-6, max_cycles=50).factor))
        print("scipy.linalg" in sys.modules)
    """
    loaded_before, factor, loaded_after = _run_python(code)
    assert (loaded_before, loaded_after) == ("False", "True")
    h = polymg.build_hierarchy(GridSpec(m=5, aspect=2.0))
    cfg = polymg.SmootherConfig.cheb4(2)
    assert float(factor) == polymg.measure_contraction(h, cfg, seed=3, tol=1e-6,
                                                       max_cycles=50).factor

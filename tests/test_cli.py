"""End-to-end command line checks.

Most tests call ``polymg.cli.main`` in this process; the few that test the
process itself (the ``python -m polymg`` entry point, the exit status and
stderr of a usage error, byte-identical output of two fresh processes, the
modules an import loads) start a subprocess.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polymg
import polymg.cli
from polymg import GridSpec, assemble_poisson_q1, load_matrix_market

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


def test_assemble_matrix_market(tmp_path):
    out = tmp_path / "poisson.mtx"
    res = run_cli("assemble", "--m", "3", "--aspect", "2", "--out", str(out))
    assert res.returncode == 0
    assert "n=49" in res.stdout
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("%%MatrixMarket matrix coordinate real symmetric")
    entries = [line.split() for line in lines[1:] if not line.startswith("%")]
    data = np.array([[float(a), float(b)] for a, b, _ in entries[1:]])
    assert data.min() >= 1  # 1-based indices
    A = load_matrix_market(out)
    ref = assemble_poisson_q1(GridSpec(m=3, aspect=2.0))
    assert abs(A - ref).max() < 1e-14


def test_assemble_reports_the_csr_nonzero_count(tmp_path):
    # (3 n_side - 2)^2 stored entries; the band itself stores 1933 slots at m = 4
    res = run_cli("assemble", "--m", "4", "--aspect", "2", "--out", str(tmp_path / "a.mtx"))
    assert res.returncode == 0, res.stderr
    assert "(n=225, nnz=1849)" in res.stdout


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

    snapshot = (points.read_bytes(), curves.read_bytes())
    second = run_process(*args, cwd=tmp_path)
    assert second.returncode == 0
    assert (points.read_bytes(), curves.read_bytes()) == snapshot


def test_run_single_column(tmp_path):
    out = tmp_path / "cheb.tsv"
    res = run_cli("run", "--m", "3", "--k", "2", "--smoother", "cheb",
                  "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    header, rows = _read_tsv(out)
    assert header == ["k", "cheb"]
    assert len(rows) == 1


def test_measure_c_close_to_analytic():
    res = run_cli("measure-c", "--m", "5", "--aspect", "2")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("C = ")
    value = float(res.stdout.split("=")[1])
    assert math.isfinite(value)
    assert abs(value - 8.0) / 8.0 <= 0.25


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


@pytest.mark.parametrize("args", [
    ("run", "--bogus",),
    ("run", "--smoother", "foo"),
    ("run", "--k", "0..3"),
    ("opt-poly", "--k", "201"),
    ("bounds", "--C", "2"),  # missing required --k
    (),
    ("run", "--m", "12"),  # an m = 12 build would need about 5.5 GB
    ("assemble", "--m", "12", "--out", "never-written.mtx"),
    ("measure-c", "--m", "1"),
    ("measure-c", "--m", "12"),  # as for run, rejected before any assembly
    ("run", "--m", "4", "--tol", "nan"),  # each would run every cell to the cycle cap
    ("run", "--m", "4", "--tol", "-1"),
    ("run", "--m", "4", "--tol", "0"),
    ("bounds", "--C", "inf", "--k", "1"),  # would write nan bounds
    ("bounds", "--C", "nan", "--k", "1"),
    # each non-finite or below-one aspect is rejected before any assembly
    *((cmd, "--m", "3", "--aspect", bad, *rest)
      for cmd, rest in (("run", ()), ("assemble", ("--out", "never-written.mtx")),
                        ("measure-c", ()))
      for bad in ("nan", "inf", "0.5")),
    ("run", "--seed", "-1"),  # default_rng rejects it, so every cell would read nan
    ("run", "--full-scale", "--m", "6"),  # --full-scale sets m=10, so --m would be ignored
    ("run", "--m", "8", "--full-scale"),  # 8 was the default of --m
    ("measure-c", "--m", "2"),  # m = 2 has no coarse level
    ("bounds", "--C", "2", "--k", "1", "--omega", "2.5"),  # the simple bound needs 0 < omega < 2
    ("bounds", "--C", "2", "--k", "1", "--omega", "nan"),
    ("run", "--k", "3..1"),  # reversed, so empty
])
def test_bad_usage_exits_2(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0, 1.0])
def test_experiment_config_rejects_bad_tol(tmp_path, tol):
    assert "argument --tol: tol must lie in (0, 1)" in _rejected_run_setting(
        tmp_path, "--tol", str(tol))


@pytest.mark.parametrize("aspect", [math.nan, math.inf, 0.5])
def test_experiment_config_rejects_bad_aspect(tmp_path, aspect):
    assert "argument --aspect: aspect must be finite and >= 1" in _rejected_run_setting(
        tmp_path, "--aspect", str(aspect))


def test_experiment_config_rejects_a_negative_seed(tmp_path):
    assert "argument --seed: seed must be >= 0" in _rejected_run_setting(
        tmp_path, "--seed", "-1")


@pytest.mark.parametrize("m", [1, 12])
def test_experiment_config_rejects_m_out_of_range(tmp_path, m):
    # the later --m wins, as argparse keeps the last value of a repeated option
    assert f"argument --m: invalid choice: {m}" in _rejected_run_setting(
        tmp_path, "--m", str(m))


def test_run_measures_C_on_the_run_grid(tmp_path):
    res = run_cli("run", "--m", "6", "--aspect", "8", "--c-mode", "measured",
                  "--smoother", "cheb", "--k", "1", "--out", str(tmp_path / "c.tsv"))
    assert res.returncode == 0, res.stderr
    # the exact two-level C at m = 6, not the m = 5 value 105.900936
    assert "[run] using C = 121.667820 (measured)" in res.stderr


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
        from polymg import (GridSpec, SmootherConfig, build_hierarchy, measure_C,
                            measure_contraction, optimal_polynomial, v_cycle)
        h = build_hierarchy(GridSpec(m=5, aspect=2.0))
        cfg = SmootherConfig.cheb4(2)
        x = b = np.ones(h.finest.op.shape[0])
        for _ in range(3):
            x = v_cycle(h, cfg, x, b)
        optimal_polynomial(6)
        fine, coarse = h.levels[:2]
        measure_C(fine.A, fine.smoother, fine.P, coarse.A)
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

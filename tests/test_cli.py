"""End-to-end command line checks via subprocess."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polymg
from polymg import GridSpec, assemble_poisson_q1, load_matrix_market
from polymg.cli import ExperimentConfig

# The directory holding the imported polymg package (``src/`` or the install
# root). Putting it first on the child's PYTHONPATH makes the subprocess run
# the same source as this process, whatever its working directory.
PACKAGE_ROOT = str(Path(polymg.__file__).resolve().parent.parent)
# Far above the slowest call (about 2 s), so only a hung subprocess hits it.
TIMEOUT_S = 120


def run_cli(*args, cwd=None):
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
    res = run_cli("opt-poly", "--k", "1")
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


def test_run_deterministic_and_below_bounds(tmp_path):
    args = ("run", "--m", "3", "--aspect", "2", "--k", "1..2", "--seed", "7")
    first = run_cli(*args, cwd=tmp_path)
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
    second = run_cli(*args, cwd=tmp_path)
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


@pytest.mark.parametrize("args", [
    ("run", "--bogus",),
    ("run", "--smoother", "foo"),
    ("run", "--k", "0..3"),
    ("opt-poly", "--k", "201"),
    ("bounds", "--C", "2"),  # missing required --k
    (),
    ("run", "--m", "12"),  # m = 12 needs over 6 GB to assemble
    ("assemble", "--m", "12", "--out", "never-written.mtx"),
    ("measure-c", "--m", "1"),
    ("run", "--m", "4", "--tol", "nan"),  # each would run every cell to the cycle cap
    ("run", "--m", "4", "--tol", "-1"),
    ("run", "--m", "4", "--tol", "0"),
])
def test_bad_usage_exits_2(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 1.0, math.inf])
def test_experiment_config_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        ExperimentConfig(m=4, tol=tol)

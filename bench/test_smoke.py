"""Smoke test of the benchmark at m=4, k <= 2: every named metric is printed with its unit.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Report-only metrics each workload prints besides the gated ones.
REPORTED = {
    "sweep-m7": ["op_ms", "ref_ms", "total_s", "sweep_s", "failed_frac"],
    "cycle-m8": [f"cycle_ms_{p}.{c}" for p in ("p50", "p90") for c in ("w43k1", "cheb6", "opt6")]
                + ["op_ms", "ref_ms", "total_s", "failed_frac"],
    "constants": ["op_ms", "ref_ms", "total_s", "optpoly_s", "dense_c_s", "failed_frac"],
}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=False)


def _report_units(stdout):
    """name -> unit from the ``[bench] name value unit ...`` report lines."""
    units = {}
    for line in stdout.splitlines():
        m = re.match(r"\[bench\] (\S+)\s+(\S+) (\S+)", line)
        if m:
            units[m.group(1)] = m.group(3)
    return units


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    printed = _report_units(proc.stdout)
    wanted = {m["name"]: m["unit"] for m in declared}
    if not trace:
        wanted.update({name: None for name in REPORTED[workload]})
    for name, unit in wanted.items():
        assert name in printed, name
        assert unit is None or printed[name] == unit, name
    if trace:
        assert line["metrics"]["trace_overhead_frac"]["value"] > -1.0


def test_counts_repeat_at_one_seed():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "sweep-m7", "--seed", "5", "--seconds", "0",
                    "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "constants",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_function_is_recorded_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import polymg.multigrid
    import spans

    monkeypatch.delattr(polymg.multigrid, "apply_smoother")
    original = polymg.multigrid.measure_C
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["smoothers.apply_smoother"]
    metrics = spans.layer_metrics(tracer, ["cheb6"], ["cheb"])
    assert metrics["smoothers.smooth_ms.cheb6.L0"] == 0.0
    assert polymg.multigrid.measure_C is original

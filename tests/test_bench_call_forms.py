"""The benchmark's workloads, run in this process at smoke scale.

``bench/workloads.py`` calls polymg in forms no other test uses
(``VCycleConfig(smoother=...)``, ``Level.A``, ``measure_contraction(x0=...)``
and its ``vector``, the operand form of ``measure_C`` and ``measure_CN``).
Running each workload once here makes a change that breaks one of them fail
the tests, not only a benchmark run.  The test reads ``bench/`` and writes
only under ``tmp_path``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import spans
    import workloads
    return spans, workloads


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_without_a_failed_operation(bench_modules, name, tmp_path):
    spans, workloads = bench_modules
    result = workloads.WORKLOADS[name](0, 0, workloads.SMOKE, spans.NullTracer(), tmp_path)
    assert result.failed == []
    assert result.attempted >= 1

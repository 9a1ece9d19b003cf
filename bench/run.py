"""Run one polymg benchmark workload and print its metrics.

Usage, from the root of a polymg checkout:

    python3 bench/run.py --workload sweep-m7 --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 --trace 0

Workloads are ``sweep-m7``, ``cycle-m8`` and ``constants`` (see
``BENCHMARK.json`` and ``bench/README.md``); ``all`` runs them one after
another, each in its own process.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the workload once untraced
and once traced, and reports the per-layer metrics plus the tracing
overhead.  Human-readable report lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and spans are also written under ``bench/out/``.

The library is imported from ``src/`` of the checkout; without it the run
exits with status 2.  BLAS runs one thread (the machine record reports
it): every workload is one sequential caller, and on a 2-core machine a
second OpenBLAS thread busy-waits on vector-sized calls.  When anything
else holds a core, such calls stall, and timings then swing by large
factors from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("sweep-m7", "cycle-m8", "constants")
HELD_OUT_SEED = 7177  # for checking a claimed gain on a seed not used while writing it


def _import_library():
    src = ROOT / "src"
    if not (src / "polymg" / "__init__.py").is_file():
        print(f"error: no polymg sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import polymg

    if Path(polymg.__file__).resolve().parent != (src / "polymg").resolve():
        print(f"error: imported polymg from {polymg.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def end_to_end(result):
    """Gated and reported end-to-end metrics: name -> (value, unit, samples, note)."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    op_ms = statistics.median(result.op_ms)
    ref_ms = statistics.median(result.reference.ms)
    metrics = {
        "setup_s": (statistics.median(result.setup_s), "s", len(result.setup_s), "build_hierarchy"),
        "op_rel": (op_ms / ref_ms, "ratio", len(result.op_ms), "op_ms / ref_ms"),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, "peak resident memory of this process"),
        "op_ms": (op_ms, "ms", len(result.op_ms), "median time of one operation"),
        "ref_ms": (ref_ms, "ms", len(result.reference.ms),
                   "median time of the reference kernel, timed between operations"),
        "total_s": (result.total_s, "s", 1, "first library call to the end of the first pass"),
    }
    metrics.update(result.extra)
    return metrics


def per_layer(args, workload, scale, spec):
    """Run ``workload`` untraced, then traced; return the last result and per-layer metrics."""
    import probes
    import spans
    import workloads as wl

    base = workload(args.seed, 0.0, scale, spans.NullTracer(), OUT_DIR, setups=False)
    base_total = base.total_s
    del base
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = workload(args.seed, 0.0, scale, tracer, OUT_DIR, setups=False)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl.gz",
                 {"workload": args.workload, "seed": args.seed, "smoke": args.smoke})

    layers = spans.layer_metrics(tracer, wl.CYCLE_CONFIGS, wl.COLUMNS)
    layers.update(probes.spmv_floor(result.hierarchy, 3))
    layers.update(probes.rho_relerr(result.hierarchy, 2))
    layers["fem.rho_capped"] = result.counts["fem.rho_capped"]
    for tag, (_, k) in wl.CYCLE_CONFIGS.items():
        # every smoother kind applies k SpMVs per application
        layers[f"smoothers.spmv_ratio.{tag}.L0"] = (
            layers[f"smoothers.smooth_ms.{tag}.L0"] / (k * layers["linalg.spmv_ms.L0"]))
    layers["trace_overhead_frac"] = result.total_s / base_total - 1.0

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {name: (value, units.get(name, ""), None, "") for name, value in layers.items()}
    metrics["trace_absent"] = (len(tracer.absent), "count", None,
                               ", ".join(tracer.absent) or "none")
    return result, metrics


def _print_report(args, record, result, metrics):
    from machine import csr_bytes

    A = result.hierarchy.finest.A
    l2 = record["l2_bytes_per_core"]
    print(f"[bench] machine: nproc={record['nproc']} cpu={record['cpu_model']!r} "
          f"L2/core={l2} B L3={record['l3_bytes']} B python={record['python']} "
          f"numpy={record['numpy']} scipy={record['scipy']} blas={record['blas']}")
    print(f"[bench] {args.workload} seed={args.seed} trace={args.trace}: fine matrix "
          f"n={A.shape[0]} nnz={A.nnz}, CSR {csr_bytes(A)} B computed"
          + (f" = {csr_bytes(A) / l2:.2f} x L2 per core" if l2 else ""))
    for name, (value, unit, samples, note) in metrics.items():
        count = f" n={samples}" if samples is not None else ""
        print(f"[bench] {name:40s} {value:.6g} {unit}{count}  {note}".rstrip())
    for op, reason in result.failed:
        print(f"[bench] FAILED {op}: {reason}")


def _run_all(args):
    """Run every workload in its own process, one after another."""
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        code = subprocess.run(cmd, check=False).returncode
        if code:
            print(f"error: workload {name} exited with {code}", file=sys.stderr)
            return code
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time; whole passes are repeated until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to m=4 and k <= 2 (for the smoke test)")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads BLAS, so set before the import
    _import_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return _run_all(args)

    import machine
    import spans
    import workloads as wl

    record = machine.machine_record()
    scale = wl.SMOKE if args.smoke else wl.FULL
    workload = wl.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        result, metrics = per_layer(args, workload, scale, spec)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        result = workload(args.seed, args.seconds, scale, spans.NullTracer(), OUT_DIR)
        metrics = end_to_end(result)
        names = [m["name"] for m in spec["end_to_end"]]
    _print_report(args, record, result, metrics)

    line = {"correct": not result.failed, "attempted": result.attempted,
            "failed": len(result.failed),
            "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                        for name in names}}
    saved = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "smoke": args.smoke, "machine": record,
             "held_out_seed": HELD_OUT_SEED, "failures": result.failed,
             "counts": result.counts, "setup_s": result.setup_s, "work_s": result.work_s,
             "op_ms": result.op_ms,
             "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2], "note": v[3]}
                         for k, v in metrics.items()}}
    suffix = "-smoke" if args.smoke else ""
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(saved, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

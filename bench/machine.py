"""Describe the machine a run was made on, read-only from /proc, /sys and the libraries."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size_bytes(text):
    text = text.strip()
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _caches():
    """Unified caches of cpu0 as {"L2": {...}, "L3": {...}} (bytes, sharing CPUs)."""
    caches = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            caches[f"L{level}"] = {
                "bytes": _size_bytes((index / "size").read_text()),
                "shared_cpu_list": (index / "shared_cpu_list").read_text().strip(),
            }
        except (OSError, ValueError):
            continue
    return caches


def _blas():
    """BLAS name and version from numpy's build record, threads from the loaded library."""
    info = {"name": "unknown", "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        paths = {line.split()[-1] for line in open("/proc/self/maps") if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def machine_record():
    caches = _caches()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes_per_core": caches.get("L2", {}).get("bytes"),
        "l3_bytes": caches.get("L3", {}).get("bytes"),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def csr_bytes(A):
    """Bytes of a CSR matrix's three arrays, computed from their sizes."""
    return int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)

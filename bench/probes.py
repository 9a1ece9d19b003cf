"""Measurements a traced run adds on the hierarchy it built: the bare SpMV floor and a rho(BA) reference."""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from machine import csr_bytes


def spmv_floor(hierarchy, levels):
    """Median bare ``A @ x`` time per level (ms), and computed L0 bytes per second."""
    out = {}
    for lv in range(levels):
        A = hierarchy.levels[lv].A
        x = np.ones(A.shape[0])
        samples = []
        for _ in range(max(20, int(2e7 // A.nnz))):  # about 2e7 nonzeros per level
            t0 = time.perf_counter()
            A @ x
            samples.append(time.perf_counter() - t0)
        t = float(np.median(samples))
        out[f"linalg.spmv_ms.L{lv}"] = 1e3 * t
        if lv == 0:
            moved = csr_bytes(A) + 2 * x.nbytes  # matrix arrays, x read, y written
            out["linalg.spmv_gbps_computed.L0"] = moved / t / 1e9
    return out


def rho_relerr(hierarchy, levels):
    """``|rho(BA) in use - ARPACK reference| / reference`` for the finest levels.

    For Jacobi ``B = D^-1``, rho(BA) is the top eigenvalue of the symmetric
    ``D^-1/2 A D^-1/2``.
    """
    out = {}
    for lv in range(levels):
        lvl = hierarchy.levels[lv]
        s = sp.diags(np.sqrt(lvl.smoother.inverse_diagonal))
        S = (s @ lvl.A @ s).tocsr()
        ref = eigsh(S, k=1, which="LA", tol=1e-12, v0=np.ones(S.shape[0]),
                    return_eigenvectors=False)[0]
        out[f"fem.rho_relerr.L{lv}"] = abs(lvl.smoother.rho_BA - ref) / ref
    return out

"""A fixed numpy/scipy kernel timed between a workload's operations.

The machine this benchmark runs on is shared: its speed drifts by 15-20%
over minutes, so raw times of identical runs minutes apart spread by that
much.  The kernel below never calls polymg.  Timing it between operations
tracks the machine's speed during the same run, so an operation's time
divided by the kernel's time changes only when polymg does.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp


class Reference:
    """Times the kernel when ``tick`` is called, at most once every ``interval`` seconds."""

    def __init__(self, interval=0.25):
        n = 127 * 127  # the m=7 fine grid: a 9-point band like the Q1 stencil
        offsets = (-128, -127, -126, -1, 0, 1, 126, 127, 128)
        self._A = sp.diags([np.full(n - abs(o), 1.0) for o in offsets], offsets, format="csr")
        self._x = np.ones(n)
        self._roots = np.linspace(0.01, 1.0, 60)  # small dense work, as in optpoly
        self._lam = np.linspace(0.0, 1.0, 40)
        self._interval = interval
        self._next = 0.0
        self.ms = []

    def tick(self):
        now = time.perf_counter()
        if now < self._next:
            return
        y = self._x
        for _ in range(10):
            y = self._A @ y * 0.1 + self._x
        for _ in range(20):
            np.prod(1.0 - self._lam[:, None] / self._roots, axis=-1)
        end = time.perf_counter()
        self.ms.append((end - now) * 1e3)
        self._next = end + self._interval

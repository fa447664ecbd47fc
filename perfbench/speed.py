"""A fixed speed probe of the machine, independent of the program under test.

The shared 2-vCPU machines this benchmark runs on change speed by up to
±40 % over minutes as their neighbours' load moves, so raw wall times of
the same code spread wider between runs than any useful bound.  The probe
is a fixed ~40 ms mix of the kinds of work releasesim does (sparse LU
steps at n = 5,125 and n = 325, NumPy vector kernels, float formatting)
written against NumPy and SciPy only.  Timing it next to every command and
scaling the command's time by ``NOMINAL_S / probe time`` cancels the
machine's drift; a change to the program does not move the probe.
"""

from __future__ import annotations

import io
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# The probe's time on the machine the benchmark was tuned on, so that scaled
# times read as seconds on that machine.
NOMINAL_S = 0.040


class SpeedProbe:
    """Builds the probe's inputs once; each call times one fixed probe."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._systems = [self._system(5125), self._system(325)]
        self._x = rng.random(100_000)
        self._rows = rng.random((2000, 4))
        self()   # first call pays lazy imports and cold caches

    @staticmethod
    def _system(n: int):
        off = np.full(n - 1, -1.0)
        a = sp.diags([off, np.full(n, 2.5), off], [-1, 0, 1], format="csr")
        return splu((sp.identity(n, format="csc") + 0.1 * a).tocsc()), a, np.ones(n)

    def __call__(self) -> float:
        start = time.perf_counter()
        for (lu, a, u), steps in zip(self._systems, (60, 400)):
            for _ in range(steps):
                u = lu.solve(a @ u + u)
                if not np.isfinite(u).all():
                    raise ArithmeticError("speed probe diverged")
                u = np.concatenate([u[:10], u[10:]])
        for _ in range(3):
            np.cumsum(np.exp(-self._x) * np.cos(self._x))
        buf = io.StringIO()
        for row in self._rows:
            buf.write(",".join(format(v, ".17g") for v in row) + "\n")
        return time.perf_counter() - start

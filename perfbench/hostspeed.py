"""Host-speed calibration for the sweep's timed loop.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over tens of seconds, which is longer than a run.  Every phase of
the program slows down together: CPU time tracks wall time and there is no
steal time, so neither averaging within a run nor CPU time removes it.

``HostSpeed`` interleaves a fixed calibration chunk with the timed units:
after each unit it owes ``SHARE`` of that unit's wall time to calibration
and pays it in whole chunks.  The chunk uses no pelletbounds code -- a
pure-Python dict/float loop plus solves, norms, SVDs, QR and eigenvalues of
matrices of order 2-5, the mix of the sweep -- so a change to the program
cannot change its speed, and BLAS threading does not move it either (LAPACK
calls this small stay on one thread).  ``slowdowns()`` gives, for each
unit, the median time of the chunks around it over ``NOMINAL_CHUNK_S``; the
benchmark divides the unit's times by it, giving times at the nominal host
speed.  In trials it cut the sweep's spread over seeds from 0.2-0.4 of the
median to 0.02-0.05.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

SHARE = 0.1  # calibration time owed per second of timed units
WINDOW = 10  # chunks on each side of a unit that measure the host's speed for it
# mean chunk time within the sweep's timed loop on the reference host (2 vCPU
# Intel Xeon, Python 3.11.7, numpy 2.4.6); it only fixes the scale of the
# adjusted times
NOMINAL_CHUNK_S = 0.0026

_RNG = np.random.default_rng(20261017)
_MATS = [_RNG.standard_normal((m, m)) + 1j * _RNG.standard_normal((m, m)) for m in (2, 3, 4, 5)]


def chunk():
    """A fixed amount of interpreter and small-numpy work; returns a checksum."""
    acc = {}
    for i in range(6000):
        key = i % 97
        acc[key] = acc.get(key, 0.0) + math.sqrt(i + 1.0)
    total = sorted(acc.values())[48]
    for _ in range(3):
        for a in _MATS:
            rhs = a[:, :1]
            total += abs(complex(np.linalg.solve(a + 4 * np.eye(len(a)), rhs)[0, 0]))
            total += float(np.abs(a).sum(axis=0).max()) + float(np.linalg.norm(a, np.inf))
            total += float(np.linalg.svd(a, compute_uv=False)[0])
            total += abs(np.linalg.qr(a)[1][0, 0]) + abs(np.linalg.inv(a + 4 * np.eye(len(a)))[0, 0])
            total += float(np.abs(np.linalg.eigvals(a)).max())
            total += len(sorted(a.ravel().tolist(), key=abs))
    return total


class HostSpeed:
    def __init__(self):
        self.owed = 0.0
        self.chunks = []
        self.marks = []  # per unit: the index of the first chunk after it

    def keep_pace(self, busy_s):
        """Pay SHARE of ``busy_s`` seconds of unit time in calibration chunks."""
        self.marks.append(len(self.chunks))
        self.owed += SHARE * busy_s
        while self.owed > 0.0:
            t0 = time.perf_counter()
            chunk()
            dt = time.perf_counter() - t0
            self.chunks.append(dt)
            self.owed -= dt

    def slowdowns(self):
        """Per unit, the host's slowness around it relative to nominal (above
        1: slower): the median time of the WINDOW chunks on either side of the
        unit's end, over NOMINAL_CHUNK_S."""
        return [statistics.median(self.chunks[max(0, k - WINDOW):k + WINDOW]) / NOMINAL_CHUNK_S
                for k in self.marks]

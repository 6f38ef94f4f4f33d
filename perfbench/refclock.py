"""Reference clock: the host's speed, sampled while a workload runs.

The benchmark runs on a few cores of a shared host whose speed drifts: on
a 2-core Xeon virtual machine the same route-B pass took 0.62 s and 1.04 s
forty seconds apart, with no steal time and process CPU time equal to wall
time.  A wall-clock figure then measures the neighbours as much as the
program.  The reference clock measures the host instead: every ``period``
seconds a SIGALRM handler runs a fixed reference kernel and records how
long it took.  An operation's cost in reference units is its wall time
divided by the kernel's time around it, so a host that runs everything a
third slower leaves the cost unchanged, while a program that does more work
raises it.

A slower host does not slow every kind of work alike, so each workload
names the kernel that does the same kind of work as its hot layer
(``KERNELS``): Python-level transfer-matrix products for the route-B and
sharp-step workloads, Crank-Nicolson steps for the report's packet audits.
The kernels are fixed; they never call stepforce.

The handler runs in the main thread between bytecodes and re-arms a
one-shot timer when it is done, so it never nests.  Its own time is cut
out of every operation: ``paused`` is the handler time so far, and
``cost`` skips the handler intervals that fall inside an operation.
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

PERIOD_S = 0.1
# Samples on each side of a sample whose median is the local kernel time.
SMOOTH = 2

_GRID = np.linspace(-1.0, 1.0, 257)
_CN_N = 5001
_CN_PSI = np.exp(-np.linspace(-6.0, 6.0, _CN_N) ** 2) + 0.0j
_CN_OFF = -0.05j
_CN_DIAG = np.full(_CN_N, 1.0 + 0.1j)
_CN_BAND = np.zeros((3, _CN_N), dtype=complex)
_CN_BAND[0, 1:] = -_CN_OFF
_CN_BAND[1, :] = np.conj(_CN_DIAG)
_CN_BAND[2, :-1] = -_CN_OFF


def transfer_kernel() -> complex:
    """Interpreted scalar maths and 2x2 numpy products, in a Python loop.

    The kind of work of the route-B sweeps and the sharp-step modes:
    per-segment propagators built from math/cmath calls, small arrays and
    a searchsorted lookup.
    """
    m = np.eye(2, dtype=complex)
    acc = 0j
    for i in range(150):
        k = math.sqrt(1.0 + 1e-3 * i)
        c, s = math.cos(k), math.sin(k)
        m = np.array([[c, s / k], [-k * s, c]], dtype=complex) @ m
        j = int(np.searchsorted(_GRID, 3e-3 * i - 0.2))
        acc += m[0, 0] * _GRID[j] + cmath.exp(-1e-3j * i)
    return acc


def crank_nicolson_kernel() -> np.ndarray:
    """Six implicit steps of a fixed tridiagonal system on 5001 points.

    The kind of work of the packet audits: complex array arithmetic on a
    grid and a banded LAPACK solve per step.
    """
    psi = _CN_PSI
    for _ in range(6):
        rhs = np.zeros_like(psi)
        rhs[1:-1] = _CN_DIAG[1:-1] * psi[1:-1] + _CN_OFF * (psi[:-2] + psi[2:])
        psi = solve_banded((1, 1), _CN_BAND, rhs)
    return psi


KERNELS = {"transfer": transfer_kernel,
           "crank_nicolson": crank_nicolson_kernel}


def smoothed(durations) -> list:
    """Running median of each sample and its SMOOTH neighbours each side."""
    n = len(durations)
    return [statistics.median(durations[max(0, k - SMOOTH):k + SMOOTH + 1])
            for k in range(n)]


def interval_cost(start: float, end: float, starts, ends, refs) -> float:
    """Reference units of [start, end], skipping the handler intervals.

    ``starts``/``ends`` bound the handler runs (sorted, disjoint) and
    ``refs`` is the smoothed kernel time of each.  The interval is cut at
    every handler run inside it; each piece is divided by the kernel time
    of the sample nearest its middle.
    """
    if not refs:
        raise ValueError("no reference samples")
    first = bisect.bisect_right(starts, start)
    last = bisect.bisect_left(starts, end)
    pieces, prev = [], start
    for k in range(first, last):
        pieces.append((prev, starts[k]))
        prev = ends[k]
    pieces.append((prev, end))
    cost = 0.0
    for a, b in pieces:
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        k = bisect.bisect_left(starts, mid)
        if k == len(starts) or (k > 0 and mid - ends[k - 1] < starts[k] - mid):
            k -= 1
        cost += (b - a) / refs[k]
    return cost


class RefClock:
    """Samples the reference kernel every ``period`` seconds while running."""

    def __init__(self, kernel, period: float = PERIOD_S):
        self.period = period
        self.kernel = kernel
        self.starts: list = []
        self.ends: list = []
        self.durations: list = []
        self.paused = 0.0
        self._previous = None
        self._refs = None

    def _sample(self):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.durations.append(t1 - t0)
        self.starts.append(t0)
        done = time.perf_counter()
        self.ends.append(done)
        self.paused += done - t0

    def _tick(self, signum, frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._refs = smoothed(self.durations)
        return False

    def cost(self, start: float, end: float) -> float:
        """Reference units of an operation that ran from start to end."""
        return interval_cost(start, end, self.starts, self.ends, self._refs)

    def summary(self) -> dict:
        d = self.durations
        q1, q2, q3 = (statistics.quantiles(d, n=4) if len(d) > 1
                      else (d[0],) * 3)
        return {"samples": len(d), "period_s": self.period,
                "kernel_ms_p25": q1 * 1e3, "kernel_ms_p50": q2 * 1e3,
                "kernel_ms_p75": q3 * 1e3, "paused_s": self.paused}

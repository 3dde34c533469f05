"""Noise guard and the few statistics the benchmark reports.

The host is a two-core VM whose speed moves by tens of percent on a scale of
seconds (a pure-Python loop pinned to one CPU alternates between ~4.9 and
~6 ms).  Two defences:

* single-process workloads are pinned to one CPU, and
* :class:`HostSpeed` runs two fixed calibration loops (pure Python, NumPy)
  between trials; a single-process timing is reported *at reference speed* —
  divided by the mean of the speed readings taken right before and right
  after it.  That is the ROADMAP's "gate on ratio-to-a-calibration-loop",
  expressed in milliseconds of a host on which the loops take
  :data:`REF_PY_MS` and :data:`REF_NP_MS`.

Forked workloads are not rescaled: their rounds are dominated by poll sleeps
and sockets, which host speed does not move.  Every run still reports how far
the readings drifted, and is flagged noisy above :data:`NOISY_DRIFT`.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "REF_PY_MS",
    "REF_NP_MS",
    "NOISY_DRIFT",
    "HostSpeed",
    "pin_to_one_cpu",
    "best_seconds",
    "cores",
    "median",
    "tail",
    "quartile_spread",
    "peak_rss_mb",
    "cpu_seconds",
]

#: Calibration-loop times that define reference speed (this host's fast mode).
REF_PY_MS = 5.0
REF_NP_MS = 6.0
NOISY_DRIFT = 0.10


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process to the highest-numbered CPU it may use (CPU 0 takes
    most interrupts).  Returns the CPU, or ``None`` where pinning is not
    available — the run then proceeds unpinned."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _calib_py() -> int:
    acc = 0
    for i in range(200_000):
        acc += i & 7
    return acc


def best_seconds(fn: Callable[[], object], reps: int) -> float:
    """The fastest of ``reps`` calls."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


Seconds = Union[float, List[float]]


class HostSpeed:
    """Calibration readings taken through a run, and the rescaling they allow.

    A reading is the mean of the two loops' times relative to reference (1.0 =
    reference speed, 1.2 = the host is 20% slower), ~40 ms to take."""

    def __init__(self, normalise: bool):
        self.normalise = normalise
        self.py_ms: List[float] = []
        self.np_ms: List[float] = []
        self.index: List[float] = []
        self._read_at = float("-inf")
        self._unsorted = np.random.default_rng(12345).random(1_000_000)
        self._buf = np.empty_like(self._unsorted)  # sorted in place: the loop allocates nothing

    def _calib_np(self) -> None:
        np.copyto(self._buf, self._unsorted)
        self._buf.sort()

    def read(self) -> float:
        if not self.index:  # first reading: one discarded pass warms caches and clocks
            _calib_py()
            self._calib_np()
        self.py_ms.append(best_seconds(_calib_py, reps=3) * 1e3)
        self.np_ms.append(best_seconds(self._calib_np, reps=3) * 1e3)
        self.index.append((self.py_ms[-1] / REF_PY_MS + self.np_ms[-1] / REF_NP_MS) / 2)
        self._read_at = time.perf_counter()
        return self.index[-1]

    def at_reference(self, timed: Callable[[], Seconds]) -> Seconds:
        """Run ``timed`` (which returns seconds, or a list of them) between two
        readings and return its result at reference speed."""
        if not self.normalise:
            return timed()
        fresh = time.perf_counter() - self._read_at < 0.05
        before = self.index[-1] if fresh else self.read()
        seconds = timed()
        factor = (before + self.read()) / 2
        if isinstance(seconds, list):
            return [s / factor for s in seconds]
        return seconds / factor

    def drift(self) -> float:
        """Spread of the readings: (max - min) / median."""
        return (max(self.index) - min(self.index)) / median(self.index)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it, never below p75 (with fewer than 40 samples a quarter
    of them lie beyond; with fewer than 4 the tail is the maximum)."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, n // 4)
    return float(ordered[n - 1 - beyond]), 100.0 * (n - beyond) / n


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` the way the acceptance driver
    computes it (``statistics.quantiles(values, n=4)``); one value has no spread."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (abs(q3 - q1) / abs(q2) if q2 else 0.0)


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus the largest reaped child's when
    the workload forks its nodes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process and every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system

"""The machine's speed, sampled while a workload runs, and times scaled by it.

On a host whose cores are shared with other tenants, the same work can take
twice as long for minutes at a time, with CPU time equal to wall time. A
fixed piece of reference work, timed every PERIOD_S seconds on the workload's
own thread (from a SIGALRM handler, so it lands inside long calls too), tells
how slow the machine is at each moment. A span of the workload is reported in
reference seconds: each stretch of it divided by the slowdown the reference
work showed at that time, the reference work's own time left out.

Slow phases do not slow every kind of work alike: interpreter and small-array
code can slow 1.7x while memory-bound array code slows 1.3x. So the reference
work comes in kinds, and each workload is probed with the kinds its own work
is made of.

The reference work is the benchmark's, not the program's, so it is the same
on every commit and a change to the program shows in full.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Sequence

import numpy as np

PERIOD_S = 0.25           # one reference sample every this many seconds of workload
SMOOTH = 2                # a sample's slowdown is the median over +-SMOOTH neighbours

_SMALL = np.linspace(0.0, 1.0, 256)
# 8 MB each, larger than a core's L2, and allocated once: a sample that lands
# on the workload's memory peak must not raise it.
_BIG = np.linspace(0.0, 1.0, 1 << 20)
_OUT = np.empty_like(_BIG)


def _interpreter():
    total, seen = 0, {}
    for i in range(14000):
        total += i * i % 7
        seen[i & 63] = total


def _small_arrays():
    x = _SMALL
    for _ in range(500):
        x = np.sqrt(x * 0.5 + 1.0)


def _large_arrays():
    np.multiply(_BIG, 0.5, out=_OUT)
    np.add(_OUT, 1.0, out=_OUT)
    np.multiply(_OUT, _OUT, out=_OUT)
    float(_OUT.sum())


# Each kind of reference work, and its time in seconds at the reference speed.
KINDS = {"interpreter": (_interpreter, 0.0015),
         "small-arrays": (_small_arrays, 0.0015),
         "large-arrays": (_large_arrays, 0.003)}


def slowdown_now(kinds: Sequence[str]) -> float:
    """How slow the machine is right now for the given kinds of work: their
    time over their time at the reference speed."""
    took = nominal = 0.0
    for kind in kinds:
        work, reference_s = KINDS[kind]
        start = time.perf_counter()
        work()
        took += time.perf_counter() - start
        nominal += reference_s
    return took / nominal


class SpeedProbe:
    """Samples the slowdown for `kinds` every PERIOD_S seconds between start()
    and stop(), then converts wall-clock spans into reference seconds."""

    def __init__(self, kinds: Sequence[str]):
        self.kinds = kinds
        self.starts: List[float] = []      # when each sample began
        self.ends: List[float] = []        # and ended
        self.samples: List[float] = []     # the slowdown it measured

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        slowdown = slowdown_now(self.kinds)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.samples.append(slowdown)

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._slow = [statistics.median(self.samples[max(0, i - SMOOTH):i + SMOOTH + 1])
                      for i in range(len(self.samples))]

    def slowdown(self) -> float:
        """The median slowdown over the whole probed stretch."""
        return statistics.median(self._slow)

    def reference_seconds(self, a: float, b: float) -> float:
        """Wall span [a, b] in reference seconds. The workload runs in the gaps
        between samples; the part of each gap inside [a, b] is divided by the
        mean slowdown of the two samples around it."""
        total = 0.0
        first = max(bisect.bisect_right(self.starts, a) - 1, 0)
        last = min(bisect.bisect_left(self.starts, b), len(self.starts) - 1)
        for i in range(first, last):
            lo = max(self.ends[i], a)
            hi = min(self.starts[i + 1], b)
            if hi > lo:
                total += 2.0 * (hi - lo) / (self._slow[i] + self._slow[i + 1])
        return total

"""Measures how fast the core runs while the workload runs.

On a shared host the core that runs the benchmark is, most of the time,
shared with other tenants' work. The same code then runs up to about twice
as slowly, in periods from milliseconds to minutes, and neither the fastest
nor the median of a run's repeats escapes a period that lasts the whole run.

A `Probe` samples the core's speed alongside the workload: an interval timer
interrupts the process every `PERIOD_S` seconds, and the signal handler
times `snippet`, a fixed piece of small-array numpy and Python work of 12–14
µs when the core is free. The mean snippet time over the samples taken
during a stretch of work is how slow the core was during it. A time scaled
by `REFERENCE_SNIPPET_S / mean snippet time` is the time the work would
take on a core that runs the snippet in `REFERENCE_SNIPPET_S`; it stays put
when the host slows down or speeds up, and moves when the work changes.

The handler runs between bytecodes of the main thread, so samples fall
between the workload's calls, never inside a C call. The time spent in the
handler (about 0.5% of the run) is reported so that callers subtract it.
Forked children do not inherit the timer.
"""

from __future__ import annotations

import array
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.005
# the snippet's median time over the runs that set the bounds in
# BENCHMARK.json (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_SNIPPET_S = 20e-6
_A = np.linspace(0.0, 1.0, 64)
_B = np.empty(64)


def snippet() -> float:
    s = 0.0
    for i in range(16):
        np.multiply(_A, 1.0001, out=_B)
        s += float(_B[i]) * 0.5
    return s


def scale(snippet_times) -> float:
    """Factor that takes a time measured while the snippet took
    `snippet_times` to the reference core speed."""
    return REFERENCE_SNIPPET_S * len(snippet_times) / sum(snippet_times)


class Probe:
    def __init__(self):
        self.samples = array.array("d")
        self.busy_s = 0.0  # time spent in the handler, bookkeeping included
        self._old = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        snippet()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.busy_s += perf_counter() - t0

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._old is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._old = None

    def mark(self) -> tuple[int, float]:
        """Position to pass to `since` at the end of a stretch of work."""
        return len(self.samples), self.busy_s

    def since(self, mark) -> tuple[list, float]:
        """(snippet times, handler time) since `mark`."""
        n0, busy0 = mark
        return self.samples[n0:].tolist(), self.busy_s - busy0

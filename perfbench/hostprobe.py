"""Host-speed probe: a fixed kernel timed on a timer signal beside the work it scales.

The benchmark host is a shared virtual machine whose speed drifts by tens
of percent over seconds to minutes; the probe's time and the program's
time move together.  At a fixed interval a signal handler runs a kernel
twice and times the second run, so that the caches the program left cold
do not count; the scale is the kernel's median time over its reference
time, and the benchmark divides its times by it, so that they read as
seconds at the reference host speed.  The probe's own time (both runs)
is subtracted from the work it ran beside.  probecheck.py measures
whether the workloads move the probe.

Two kernels: ``kernel`` (an interpreter loop and small numpy calls) runs
beside the operations; ``loop_kernel`` (the loop only) runs during each
set-up, which starts before numpy is imported.  This module imports
numpy only inside ``kernel``, so the set-up probe can start first.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Callable

INTERVAL_S = 0.1  # beside the operations
SETUP_INTERVAL_S = 0.05  # during a set-up, which lasts about a second
# Round figures near each kernel's median time while the benchmark runs on
# the host where it was defined (2-vCPU x86-64 VM at 2.1 GHz, Python 3.11.7,
# numpy 2.4.6).  Scaled times read as seconds on a host where the kernel
# takes exactly this long.
REFERENCE_S = 0.001
LOOP_REFERENCE_S = 0.0007


def loop_kernel() -> int:
    """An interpreter loop, like the program's import and glue code."""
    s = 0
    for i in range(10_000):
        s += i * i
    return s


def kernel() -> int:
    """``loop_kernel`` and a few small numpy ufunc calls, like the program's hot loops."""
    import numpy as np

    s = loop_kernel()
    a = np.arange(4096.0)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    return s


class HostProbe:
    def __init__(self, fn: Callable[[], object] = kernel, reference_s: float = REFERENCE_S,
                 interval_s: float = INTERVAL_S) -> None:
        self.fn = fn
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.samples: list[tuple[float, float, float]] = []  # (start, busy seconds, timed run's seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.fn()
        timed = time.perf_counter()
        self.fn()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - timed))

    def busy_between(self, start: float, end: float) -> float:
        """Seconds the probe ran in [start, end)."""
        return sum(busy for s, busy, _ in self.samples if start <= s < end)

    def scale_between(self, start: float, end: float):
        """Scale from the kernel runs started in [start, end), or None if there were none."""
        inside = [t for s, _, t in self.samples if start <= s < end]
        return statistics.median(inside) / self.reference_s if inside else None

    def busy(self) -> float:
        return sum(busy for _, busy, _ in self.samples)

    def median_s(self) -> float:
        return statistics.median(t for _, _, t in self.samples)

    def scale(self) -> float:
        """Median kernel time over its reference; above 1 means a slower host."""
        return self.median_s() / self.reference_s

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

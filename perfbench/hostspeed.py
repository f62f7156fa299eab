"""Host-speed calibration for timings on a shared host.

On a shared VM the same call can take 15 ms or 24.5 ms (a `classify`),
depending on what the rest of the host does. The regime switches every few
seconds, and its share of a 30 s run varies from run to run. A fixed kernel
of interpreter and numpy-scalar work is timed just before and just after
each call, and every `Sampler.interval` seconds during it. It is the same
kind of work as paraframe's jet loop, but it shares no code with paraframe.
Each call's wall time, less the time spent in the sampler, is then rescaled
to a host on which the kernel takes `REFERENCE_S`:

    scaled = wall * REFERENCE_S / mean(kernel samples of the call)
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Kernel time of the reference host that scaled timings refer to.
REFERENCE_S = 1e-4

_A = np.zeros(20)
_B = np.arange(20.0)


def _kernel() -> float:
    acc = 0.0
    for _ in range(12):
        for i in range(20):
            _A[i] += _B[i] * 1.0000001
            acc += math.sin(i * 0.1)
    return acc


def kernel_seconds(repeats: int = 3) -> float:
    """Median wall time of the calibration kernel over `repeats` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the kernel from a SIGALRM handler every `interval` seconds.

    The handler runs in the main thread between bytecodes, so it samples the
    host speed while a long call runs; `overhead` is the time it took.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self.overhead = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds(1))
        self.overhead += time.perf_counter() - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

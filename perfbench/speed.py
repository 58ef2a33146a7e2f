"""Machine-speed calibration of measured times.

On a shared machine the speed of a core drifts by 10-30 % over seconds as
other tenants load the host; process CPU time drifts with it, so neither wall
nor CPU time repeats from run to run. The benchmark therefore times a fixed
kernel, independent of perfdamp, next to the operations it measures, and
scales each measured time by REF_KERNEL_S / (kernel time at that moment).
Reported times are "calibrated": what they would read on a machine that runs
the kernel in REF_KERNEL_S. Raw wall times are kept in the run's context
record.

The kernel is a Python integer loop plus numpy element-wise work on three
256 x 256 arrays written in place (1.5 MiB, so contention for the shared
caches slows it as it slows the operations). It allocates nothing, so its
time does not depend on what the allocator was left holding by the operation
before it. Its first repetition after an operation runs slow and is
discarded.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time of an unloaded 2-vCPU x86_64 machine (Python 3.11, numpy 2.4);
# it only sets the scale of calibrated times.
REF_KERNEL_S = 0.45e-3
KERNEL_REPEATS = 3


class Speed:
    """Times the calibration kernel and turns it into a scale factor."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 256))
        self._b = rng.random((256, 256))
        self._c = np.empty((256, 256))
        self.kernel_s: list[float] = []
        self.factor()

    def _kernel(self) -> float:
        a, b, c = self._a, self._b, self._c
        t0 = time.perf_counter()
        s = 0
        for i in range(2000):
            s += i * i
        for _ in range(2):
            np.multiply(a, b, out=c)
            np.add(c, 1.0, out=c)
            np.divide(1.0, c, out=c)
            c.sum()
        return time.perf_counter() - t0

    def factor(self) -> float:
        """REF_KERNEL_S over the median of KERNEL_REPEATS kernel times now."""
        self._kernel()
        k = statistics.median(self._kernel() for _ in range(KERNEL_REPEATS))
        self.kernel_s.append(k)
        return REF_KERNEL_S / k

"""Host-speed calibration.

On a shared host the speed available to one vCPU drifts by tens of percent
from one second to the next (measured on the 2-vCPU KVM guest this benchmark
was written on: a loop of 600 4x4 solves ran in 4.8 ms on one vCPU and in 8
ms on the other, and a 0.2 s kernel in 0.13 s or 0.21 s depending on the
minute). Wall times alone therefore spread more between runs than any useful
regression bound. The benchmark interleaves short bursts of a fixed kernel
with its operations, one kernel call pinned to each CPU in turn, and reports
each timing scaled to a reference host speed:

    normalized = measured * REFERENCE_S / (kernel time around the measurement)

where a burst's kernel time is that of its fastest CPU, and the kernel time
around a measurement is the median of the bursts within WINDOW_S (or the
measurement's length, if longer) of it, and at least of the last burst
before it and the first after. The kernel is what darkstate's hot loops are
made of, small numpy calls from interpreted Python: a shifted 4x4 complex
solve.

The fastest CPU, not the mean over CPUs: an operation's main thread runs
where the scheduler finds room, so when one vCPU is held by a neighbour the
operation keeps its speed while that vCPU's kernel time doubles. The window:
one burst holds two 10 ms kernel calls, whose noise a 0.2 s operation scaled
by its adjacent bursts alone took over whole. Over four seeds of each
workload, scaling by the mean over CPUs and adjacent bursts spread op_p50_s
by 0.15 to 0.29 (interquartile range / median); by the fastest CPU over a 5 s
window, by 0.05 to 0.10: about as little as the raw times on three
workloads, and less on analytic-sweep, whose raw times followed the host's
drift. Raw timings are printed beside the normalized ones.
"""
from __future__ import annotations

import bisect
import os
import statistics
import time

import numpy as np

#: kernel time on the reference host: the calibrated seconds reported are
#: seconds on a host where one kernel call takes this long
REFERENCE_S = 0.010
#: a new burst runs before an operation once this long has passed
BURST_EVERY_S = 0.25
#: a measurement is scaled by the bursts within this many seconds of it
WINDOW_S = 5.0
#: at most this many CPUs are sampled per burst
MAX_CPUS = 4
#: solves per kernel call: about REFERENCE_S on the host this was written on
SOLVES = 900

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((4, 4)) + 4.0 * np.eye(4)
_B = _RNG.standard_normal(4)
_EYE = np.eye(4)


def kernel() -> float:
    """Seconds taken by one fixed unit of work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(SOLVES):
        acc += float(np.linalg.solve(_A - 1e-3j * i * _EYE, _B)[0].real)
    return time.perf_counter() - start


class Clock:
    """Calibration bursts taken during a run, and the scale factor they
    give for a measurement made between `start` and `end`."""

    def __init__(self):
        self.starts = []   # perf_counter at the start of each burst
        self.kernels = []  # kernel seconds of each burst's fastest CPU
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [])

    def burst(self):
        """Time the kernel once on each CPU (the operations' threads and
        child processes may run on any of them)."""
        start = time.perf_counter()
        if not self.cpus:
            times = [kernel()]
        else:
            times = []
            try:
                for cpu in self.cpus[:MAX_CPUS]:
                    os.sched_setaffinity(0, {cpu})
                    times.append(kernel())
            finally:
                os.sched_setaffinity(0, self.cpus)
        self.starts.append(start)
        self.kernels.append(min(times))

    def maybe_burst(self):
        if not self.starts or \
                time.perf_counter() - self.starts[-1] >= BURST_EVERY_S:
            self.burst()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time of the bursts within
        WINDOW_S or the measurement's length (the longer) of it, and of the
        last burst before `start` and the first after `end` in any case."""
        span = max(end - start, WINDOW_S)
        lo = min(bisect.bisect_left(self.starts, start - span),
                 bisect.bisect_right(self.starts, start) - 1)
        hi = max(bisect.bisect_right(self.starts, end + span),
                 bisect.bisect_left(self.starts, end) + 1)
        near = self.kernels[max(lo, 0):hi]
        return REFERENCE_S / statistics.median(near)

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernels)

    def run_factor(self) -> float:
        """REFERENCE_S over the median kernel time of all bursts so far."""
        return REFERENCE_S / self.median_kernel_s()

"""Host-speed probe: a fixed interpreter-bound kernel timed next to the work.

The benchmark runs on a few cores of a shared host whose speed moves with
what the other tenants run: identical units of work take up to twice as long
from one second to the next, and whole runs drift by 20-30% over minutes.
CPU time does not remove this (no time is stolen; each instruction is just
slower), so the time of every unit is reported scaled to a reference speed:
its CPU time is divided by the mean time of the probes taken around and
during it, and multiplied by REFERENCE_PROBE_S.  A change to the package
moves the work but not the probe, so the scaled time moves with the package
alone.

The kernel mixes what the package spends its time on: Python float
arithmetic, function calls and attribute access, and numpy calls on small
arrays.  It uses nothing from the package.

Times are read with time.thread_time: once a process CPU-time timer is armed
(the ITIMER_PROF sampling below), the process CPU clock on Linux may advance
only at scheduler ticks, while the thread clock stays exact.  The work runs on
one thread, since BLAS is pinned to one.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

KERNEL_STEPS = 400
# probe time at the reference speed: the mean probe on a 2-vCPU VM
# (Python 3.11, numpy 2.4) while it ran the benchmark
REFERENCE_PROBE_S = 2.5e-4
# CPU-time interval between probes taken while a unit runs; the speed swings
# within milliseconds, so many short probes estimate a unit's mean speed
# better than a few long ones
SAMPLE_INTERVAL_S = 0.01

_ARR = np.linspace(0.1, 1.0, 8)


def _kernel(n: int) -> float:
    acc = 0.0
    for i in range(n):
        x = 1.0 + i * 1e-3
        acc += math.log(x) / (1.0 + x * x)
        if i % 8 == 0:
            acc += float(np.log2(1.0 + _ARR * x).sum())
    return acc


class SpeedProbe:
    """Times the kernel between units and, on a CPU-time timer, within them.

    `cost_s` is the CPU time spent in probes so far, so that a caller can
    take it out of the time of the work the probes interrupted.
    """

    def __init__(self, sampling: bool = True) -> None:
        self.sampling = sampling
        self.cost_s = 0.0
        self.samples: list[float] = []
        self._previous = signal.getsignal(signal.SIGPROF)
        _kernel(KERNEL_STEPS)  # warm the code paths once

    def probe(self) -> float:
        """CPU seconds of one kernel run."""
        t0 = time.thread_time()
        _kernel(KERNEL_STEPS)
        took = time.thread_time() - t0
        self.cost_s += took
        return took

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(self.probe())

    def start(self) -> None:
        """Probe every SAMPLE_INTERVAL_S of CPU time until stop(), if sampling."""
        if not self.sampling:
            return
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> list[float]:
        """Stop the timer; returns the probes it took since start()."""
        if not self.sampling:
            return []
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        taken, self.samples = self.samples, []
        return taken


def scale(probes: list[float]) -> float:
    """Factor that turns a time measured at the probes' mean speed into reference time."""
    return REFERENCE_PROBE_S / statistics.fmean(probes)

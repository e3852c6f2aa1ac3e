"""How fast the host runs this process while the benchmark's jobs run.

On a shared virtual machine the physical core this process runs on can be
busy with another tenant's work.  Then everything here runs at about half
speed, for a few seconds or for several minutes at a time, with no steal time
to show for it.  Job wall and CPU times follow that state: on a shared 2-CPU
VM, runs of the same code differed by 40%.

A fixed probe, about 20 us of interpreter and small-array numpy work like the
program's own, is timed from a timer signal every PERIOD_S while the jobs run.
The probe's speed over a job is REFERENCE_S times the mean of 1/(probe time)
over the probes taken while it ran (at least the last MIN_PROBES, for jobs
shorter than that).  The jobs slow down somewhat less than the probe does:
across 74 runs of the three workloads, log(job time) against log(probe
speed) had slopes -0.86, -0.98 and -0.94.  So a job's speed factor is the
probe's speed to the power SENSITIVITY, and its wall time times that factor
is about the time it would have taken on a host where the probe takes
REFERENCE_S.  The probe is code of the benchmark, not of the program, so a
change to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.005
REFERENCE_S = 20e-6
MIN_PROBES = 20
SENSITIVITY = 0.9

_X = np.linspace(0.0, 1.0, 33)


def probe() -> float:
    total = 0.0
    for i in range(8):
        y = _X * (i + 1.0) + 0.5
        total += float(y[-1]) + sum(range(20))
    return total


class HostSpeed:
    """Probe timings taken from SIGALRM while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self):
        for _ in range(MIN_PROBES):  # so the first job has a window too
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(speed factor, seconds spent in probes) since `mark`."""
        first, spent = mark
        window = self.samples[min(first, max(0, len(self.samples) - MIN_PROBES)):]
        factor = (REFERENCE_S * statistics.fmean(1.0 / t for t in window)) ** SENSITIVITY if window else 1.0
        return factor, self.spent - spent

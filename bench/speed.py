"""The machine's speed during a run, measured with a fixed kernel.

On a small shared virtual machine the speed of a core changes by up to
1.6x from one second to the next, and drifts by as much over minutes, as
other tenants load the host.  A raw time then says as much about the
machine as about the program.  ``SpeedProbe`` times a fixed pure-Python
kernel of exact rational arithmetic (the program's own kind of work, but no
program code) every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler, in
the measuring thread, and scales each measured interval by how fast the
kernel ran during it:

    scaled = raw * KERNEL_REF_S / (mean kernel time over the interval)

so a scaled time reads as the time the interval would have taken on a
machine where the kernel takes ``KERNEL_REF_S``.  Time spent in the handler
is reported so callers can take it out of their raw times.  The probe
starts no thread or process.
"""

from __future__ import annotations

import gc
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.25
KERNEL_RUNS = 3  # per sample; the sample is their median
# The kernel's time on the 2-vCPU machine the benchmark was written on, when
# its core was not slowed by other tenants.
KERNEL_REF_S = 0.0025


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7, i + 3) * Fraction(3, i % 11 + 1)
    return total


class SpeedProbe:
    """Samples the kernel's time while entered, as a context manager."""

    def __init__(self):
        self._previous = None  # the SIGALRM handler to restore on exit
        self.at = array("d")  # when each sample started
        self.kernel_s = array("d")
        self.spent = 0.0  # seconds spent sampling, handler included

    def sample(self, *_signal_args) -> None:
        started = perf_counter()
        # A collection the kernel's allocations set off would scan the
        # program's heap and bill it to the kernel.
        collecting = gc.isenabled()
        gc.disable()
        runs = []
        try:
            for _ in range(KERNEL_RUNS):
                t0 = perf_counter()
                kernel()
                runs.append(perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        self.at.append(started)
        self.kernel_s.append(statistics.median(runs))
        self.spent += perf_counter() - started

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """KERNEL_REF_S over the mean kernel time of the samples taken in
        [start, end], or of the sample nearest to the interval if none was."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        if lo == hi:
            if lo == len(self.at) or (lo > 0 and start - self.at[lo - 1] < self.at[lo] - end):
                lo -= 1
            hi = lo + 1
        return KERNEL_REF_S / statistics.fmean(self.kernel_s[lo:hi])

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)

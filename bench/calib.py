"""Host-speed calibration of the benchmark's times.

The benchmark shares a few cores of a host with other tenants, and how fast
that host runs the same Python code swings by a factor of two or three, both
within a second and over tens of seconds.  Wall times alone would then measure the
neighbours more than the program.  So the run keeps timing a reference
kernel: a fixed piece of pure-Python integer, dict and `fractions.Fraction`
work that does not touch `crepant`, much like the exact arithmetic the
program itself does.  Each timed interval is scaled by

    REF_NOMINAL_S / (the kernel's time around that interval)

and reported as the time the interval would take on a host that runs the
kernel in REF_NOMINAL_S.  A change to the program moves the scaled times as
it moves the wall times; a change in the host's speed moves the kernel as
well and mostly cancels out: on the host the bounds were set on, the kernel
slows a little more than `crepant` does, so scaled times read about 5% lower
when the host is slow than when it is fast.  The raw wall times are kept in
each run's metadata.

The kernel's time "around" an interval is the median of the samples taken
inside it and the nearest one on each side (Sampler.ref).  Samples are taken
between operations, and also every SAMPLE_PERIOD_S from a timer signal while
an operation runs, so that a long operation is scaled by the host's speed
over its whole length, not at its two ends.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# A round figure near the kernel's time on one core of the 2-vCPU host the
# bounds were set on, when that host runs fast: 1.1 ms, and two to three
# times that when its other tenants are busy.
REF_NOMINAL_S = 1e-3
SAMPLE_PERIOD_S = 0.025


def kernel():
    total, table = 0, {}
    for i in range(4000):
        total += i * i % 7
        table[i & 255] = total
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i % 17 + 1) * Fraction(3, i % 11 + 2)
    return total, acc


def scale(seconds, ref_s):
    """`seconds` measured while the kernel took `ref_s`, on the nominal
    host."""
    return seconds * REF_NOMINAL_S / ref_s


class Sampler:
    """Times of the reference kernel, in the order they were taken.

    tick() takes one sample now.  Inside `with sampler.periodic():` a timer
    signal also takes one every `period` seconds; the signal handler runs in
    the main thread between bytecodes, so it pauses the operation it
    interrupts, which busy() lets the caller take back out.
    """

    def __init__(self, clock=time.perf_counter, measure=kernel,
                 period=SAMPLE_PERIOD_S):
        self.clock, self.measure, self.period = clock, measure, period
        self.starts, self.times = [], []
        self.ticking = False

    def tick(self, *_signal_args):
        if self.ticking:  # the timer fired during a tick; one is enough
            return
        self.ticking = True
        # With the collector off, the kernel's time does not depend on how
        # many objects the program holds.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = self.clock()
            self.measure()
            self.starts.append(t0)
            self.times.append(self.clock() - t0)
        finally:
            self.ticking = False
            if collecting:
                gc.enable()

    def periodic(self):
        return _Periodic(self)

    def _inside(self, start, end):
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_left(self.starts, end))

    def busy(self, start, end):
        """Seconds spent taking samples that began inside [start, end)."""
        lo, hi = self._inside(start, end)
        return sum(self.times[lo:hi])

    def ref(self, start, end):
        """The kernel's time around [start, end): the median of the samples
        begun inside it and the nearest one before and after it."""
        lo, hi = self._inside(start, end)
        near = self.times[max(lo - 1, 0):hi + 1]
        return statistics.median(near)


class _Periodic:
    def __init__(self, sampler):
        self.sampler = sampler

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sampler.tick)
        signal.setitimer(signal.ITIMER_REAL, self.sampler.period,
                         self.sampler.period)
        return self.sampler

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False

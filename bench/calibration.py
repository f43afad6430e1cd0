"""Calibrated time: work time scaled by a fixed reference loop run beside it.

The benchmark's machine is shared, and its speed swings between states
about 1.5x apart that last from under a second to minutes.  Wall and CPU
time of the same work swing with it.  So the run times a fixed pure-Python
reference loop, ``_loop()``, while the work runs, and scales the work's
time by ``REFERENCE_S`` over the loop's mean time.  A calibrated second is
a second on a machine on which the loop takes ``REFERENCE_S``.

``Sampler`` runs the loop from a SIGALRM handler every ``PERIOD_S`` of
wall time, so the samples spread over the work, long jobs included, and
it keeps the handler's own time out of the work's time.  ``reference()``
times the loop directly, for work too short to sample.

This module imports nothing from ``localzeta``: no change to the program
can change the reference.
"""

import signal
import statistics
import time

REFERENCE_S = 0.003  # _loop() on the recorded machine in its fast state
PERIOD_S = 0.1       # wall time between two samples


def _loop():
    counts = {}
    for i in range(12000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + (i * i) % 13
    pairs = sorted((v, k) for k, v in counts.items())
    rows = [(i % 7, i % 11, i & 3) for i in range(6000)]
    return len(pairs) + len(set(rows))


def _timed_loop():
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def reference(repeats=3):
    """Wall time of the reference loop: the median of a few repeats."""
    return statistics.median(_timed_loop() for _ in range(repeats))


def scale(*loop_times):
    """Factor from wall time to calibrated time, given loop times."""
    return REFERENCE_S / statistics.fmean(loop_times)


class Sampler:
    """Samples the reference loop while the work in a ``with`` block runs.

    One sample is taken on entry, one on exit and one every ``PERIOD_S``
    in between.  ``wall`` and ``cpu`` sum the time the samples in between
    took, so that the caller can subtract it from the block's time.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.wall = self.cpu = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(_timed_loop())
        self.wall += time.perf_counter() - wall0
        self.cpu += time.process_time() - cpu0

    def __enter__(self):
        self._sample()
        self.wall = self.cpu = 0.0  # the entry sample precedes the work
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scale(self):
        return scale(*self.samples)

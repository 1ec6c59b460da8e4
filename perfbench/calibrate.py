"""Calibration kernel: a fixed piece of exact arithmetic that shares no
code with multcone, sampled on a timer while operations run.

On a shared 2-core host the speed of a core flips between a fast and a
slow state many times a second, and the share of time spent slow drifts
over tens of seconds to minutes, longer than a run.  The same inputs then
take up to 1.9 times as long from one run to the next.  The Sampler runs
the kernel every INTERVAL seconds of wall time while operations run, so
its samples see the host's states in the proportion the operations saw
them.  A time measured in the run, times the mean kernel speed (runs per
second) sampled over the run's operations over REF_SPEED, is that time in
reference seconds: the seconds it would take on a host where the kernel
runs REF_SPEED times a second.  It moves when multcone's work changes and
stays put when the host's speed does.  The time the kernel takes is
subtracted from the operation it interrupted.
"""

import contextlib
import random
import signal
import time
from fractions import Fraction

INTERVAL = 0.2          # seconds of wall time between two samples
REF_SPEED = 125.0       # kernel runs per second of a reference second,
                        # near the mean the 2-core host samples
_SIZE = 10
_UPDATES = 6000
_rng = random.Random(20131013)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5))
            for _ in range(_SIZE)] for _ in range(_SIZE)]


def _kernel():
    """Gauss-Jordan elimination of a fixed rational matrix, then dict
    updates keyed by tuples: the two kinds of work multcone's exact layers
    are made of.  5 to 10 ms on the 2-core host."""
    a = [row[:] for row in _MATRIX]
    for c in range(_SIZE):
        p = next(r for r in range(c, _SIZE) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(_SIZE):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    counts = {}
    for i in range(_UPDATES):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    return a, counts


class Sampler:
    """Runs the kernel from a SIGALRM handler every INTERVAL seconds while
    started; keeps each run's speed and the total time the runs took."""

    def __init__(self):
        self.speeds = []      # kernel runs per second, one per sample
        self.stolen = 0.0     # seconds the samples took
        self.running = False
        _kernel()             # its first run in a process is slower

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.speeds.append(1 / dt)
        self.stolen += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        # a tick already due must never get the default action, which
        # ends the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.running = False

    @contextlib.contextmanager
    def paused(self):
        running = self.running
        if running:
            self.stop()
        try:
            yield
        finally:
            if running:
                self.start()

"""Reference-speed clock of the specpred benchmark.

On a few shared cores the speed of the host drifts within seconds: a fixed
pure-Python loop ran up to 1.5 times, and a fixed loop of small numpy calls up
to 2 times, slower in some stretches than in others.  That drift, not the
program, set the spread of wall times between runs.  So every timed operation
is reported in reference seconds.  While a ``SpeedClock`` is entered, a
SIGALRM interval timer runs a fixed reference kernel (small numpy calls,
Python arithmetic and number formatting, like the program's per-step work)
every ``TICK_S`` seconds of wall time.  An operation's wall time, net of the
kernel runs that fell inside it, is scaled by ``KERNEL_NOMINAL_S`` over the
mean kernel time measured during the operation, leaving out the slowest tenth
of the kernel runs.  A reference second is thus the time of
``1 / KERNEL_NOMINAL_S`` kernel runs.  A faster program needs fewer reference
seconds; a slower host, in so far as it slows the kernel as much as the
program, does not change them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

TICK_S = 0.05
KERNEL_ITERS = 32
KERNEL_NOMINAL_S = 1e-3
# Operations shorter than a few ticks are scaled by the nearest kernel runs.
MIN_SAMPLES = 5

_A = np.linspace(0.1, 1.0, 64).reshape(8, 8)
_V = np.ones(8)
_XP = np.array([0.0, 1.0])
_FP = np.array([1.0, 2.0])
_GRID = np.linspace(0.0, 1.0, 50)
_M = np.array([[2.0, 1.0], [1.0, 3.0]])


def kernel() -> float:
    """The fixed reference work timed on every tick."""
    s = 0.0
    for i in range(KERNEL_ITERS):
        x = np.asarray([0.3 + i * 1e-3])
        w = _A @ _V
        s += float(w[i & 7]) + float(np.interp(x[0], _XP, _FP))
        s += float(np.clip(x, 0.0, 1.0)[0]) + int(np.searchsorted(_GRID, x[0]))
        s += float(np.linalg.solve(_M, _V[:2])[0])
        s = math.fmod(s, 1e3) + len(f"{s:.17g}")
    return s


class SpeedClock:
    """Wall time converted to reference seconds; use as a context manager."""

    def __init__(self):
        self.durations: list[float] = []
        self._saved = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        # The first runs pay numpy's first-call costs; they set no scale.
        for _ in range(MIN_SAMPLES):
            kernel()
        for _ in range(MIN_SAMPLES):
            self._tick(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def start(self):
        return time.perf_counter(), len(self.durations)

    def stop(self, mark):
        """(wall seconds net of the kernel, reference seconds) since ``mark``."""
        wall = time.perf_counter() - mark[0]
        end = len(self.durations)
        inside = self.durations[mark[1]:end]
        wall -= sum(inside)
        nearby = sorted(self.durations[max(0, min(mark[1], end - MIN_SAMPLES)):end])
        # The slowest tenth of the runs, at least one, were most likely cut
        # into by another process: they time the interruption, not the host.
        kept = nearby[:len(nearby) - max(1, len(nearby) // 10)]
        return wall, wall * KERNEL_NOMINAL_S / statistics.fmean(kept)

"""Round timing corrected for the speed of a shared machine.

The 2-core sandbox this benchmark was written on runs the same code up to
twice as slowly from one second to the next, and the average speed of a
25 s window drifts as well: five runs of dam_evaluate gave raw medians from
0.24 to 0.34 s per round. A fixed calibration loop, which calls nothing
from archdam, slows down with the machine. It runs at every round boundary
and about every INTERVAL seconds inside a round, and a measured time is
scaled by NOMINAL_S / (median calibration time): the seconds the work takes
with the machine at the speed it had when NOMINAL_S was taken. On those
five runs this cut the spread of wall_s from 24% to 7%.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.2
# typical duration of calibrate() on that sandbox, Python 3.11.7, numpy 2.4.6
NOMINAL_S = 0.0090

_M = np.random.default_rng(0).random((200, 200))


def calibrate():
    """A fixed mix of numpy work on arrays of a few hundred kilobytes and
    interpreted loops over small arrays, calling nothing from archdam;
    returns its duration in seconds."""
    t0 = perf_counter()
    (_M @ _M).sum()
    np.sort(_M, axis=1)
    np.linalg.norm(_M[:, None, :50] - _M[None, :50, :50], axis=2)
    acc = 0.0
    for i in range(100):
        row = _M[i, :20]
        acc += float(np.clip(row, 0.2, 0.8).max()) + min(1.0, max(0.0, acc * 0.5 - i))
    return perf_counter() - t0


class Clock:
    """Calibration samples taken at and between the steps of rounds."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._last = perf_counter()

    def calibrate(self):
        now = perf_counter()
        self.samples.append(calibrate())
        self._last = perf_counter()
        self.spent += self._last - now

    def tick(self, *_):
        """Calibrate if INTERVAL has passed since the last sample; usable
        as a run_mocss hook."""
        if perf_counter() - self._last >= INTERVAL:
            self.calibrate()

    def scale(self, first=0):
        """Factor that turns seconds measured since sample `first` into
        seconds at nominal machine speed."""
        return NOMINAL_S / statistics.median(self.samples[first:])

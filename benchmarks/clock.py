"""A work clock that samples the machine's speed as it goes.

Shared 2-vCPU virtual machines change speed by tens of
percent, both from one second to the next and over minutes. A fixed
pure-Python loop, which shares no code with the library, slows down with
them. (Loops that added numpy passes over a large array tracked the sweeps
worse and were no better on ``link_decode``.) ``Clock.tick`` times that
loop every ``every_s`` seconds of work, at points between operations, and
``Clock.now`` leaves the loop's time out, so calibration never counts as
work.

``factor`` turns a host time into a speed-normalized one: the time it would
take on a machine where the loop takes ``REF_S``. ``factor_at`` does the
same for one interval, from the loop samples taken around it, so that a
single operation is judged by the speed of the machine while it ran.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

LOOP = 75_000
REF_S = 0.005
# Samples on each side of an interval that ``factor_at`` uses besides the
# nearest one, so that one preempted loop does not skew its neighbours.
NEIGHBOURS = 1


def loop_s() -> float:
    t0 = perf_counter()
    acc = 0
    for k in range(LOOP):
        acc += k * k
    return perf_counter() - t0


class Clock:
    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples: list[float] = []
        self.sampled_at: list[float] = []  # ``now()`` at each sample
        self._paused = 0.0
        self._due = 0.0

    def now(self) -> float:
        """Host seconds, minus the time spent in calibration."""
        return perf_counter() - self._paused

    def tick(self, force: bool = False) -> None:
        """Time the calibration loop if a sample is due (or ``force``)."""
        if not force and self.now() < self._due:
            return
        t0 = perf_counter()
        self.sampled_at.append(self.now())
        self.samples.append(loop_s())
        self._paused += perf_counter() - t0
        self._due = self.now() + self.every_s

    @property
    def factor(self) -> float:
        return REF_S / median(self.samples)

    def factor_at(self, start: float, end: float) -> float:
        """The factor from the samples around ``[start, end]`` (``now()``
        times): the last one at or before ``start``, the first at or after
        ``end``, any in between, and ``NEIGHBOURS`` more on each side."""
        lo = max(bisect_right(self.sampled_at, start) - 1 - NEIGHBOURS, 0)
        hi = bisect_left(self.sampled_at, end) + 1 + NEIGHBOURS
        near = self.samples[lo:hi]
        return REF_S / median(near) if near else self.factor

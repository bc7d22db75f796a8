"""Host-speed calibration for the end-to-end timings.

On a shared cloud host each vCPU runs at one of two speeds about 1.8x
apart, switching at random from every few milliseconds to every few
seconds, and independently of the other vCPU (measured on a 2-vCPU VM
with a fixed pure-Python loop pinned to each vCPU at once; the
process's CPU time moved with its wall time, so no time was stolen: the
same work simply ran slower).  Over minutes the share of slow time
drifts: the median op time of six same-code runs of one workload spread
by 59 % of its median between the quartiles, and no run length averages
that away.

So a run pins itself and its children to one CPU (``pin``), and an
untraced run interleaves short slices of fixed pure-Python work, which
calls no boxsteer code, with its ops, spending at least ``SHARE`` of its
op time on them.  Each op's time is scaled by ``REFERENCE_S`` over the
mean slice time just around it: the slices right before and right after
it that cover ``SHARE`` of its duration on each side, ``NEAREST`` at
least.  Those ran on the same CPU moments apart.  The switches come as
often as every few milliseconds, so only the nearest slices tell the
speed an op ran at, and their mean, not their median, gives the share of
time spent slow.  The reported times are the times the op would take at
the reference speed, in the same units; the raw ones are printed beside
them.  A change to boxsteer moves the op times and not the slices, so
it moves the scaled times as much as the raw ones.  Child processes
that run for seconds are tracked less well than in-process ops of
milliseconds, since the speed switches many times while they run.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from fractions import Fraction

# Mean time of one slice on the reference host (a 2-vCPU cloud VM running
# Python 3.11); only the ratio to it matters, not where it was measured.
REFERENCE_S = 3.2e-3
# Calibration time kept at this share of the op time before it.
SHARE = 0.2
# Fewest slices on each side of an op that set its scale.
NEAREST = 2
ITERATIONS = 300


def pin() -> None:
    """Keep this process, and the children it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _slice() -> int:
    """Fraction products and differences over small ints, like the
    library's exact arithmetic, with nothing kept between calls."""
    acc = 0
    for i in range(1, ITERATIONS + 1):
        q = Fraction(i, i % 13 + 1) * Fraction(i % 11 + 1, i + 2) - Fraction(1, i % 5 + 2)
        acc += q.numerator % 7
    return acc


class HostSpeed:
    """Timed calibration slices of one run, and the scale they give."""

    def __init__(self) -> None:
        self.marks: list[float] = []    # each slice's midpoint
        self.slices: list[float] = []   # and its duration
        self.busy = 0.0                 # op time to keep up with
        self.spent = 0.0                # calibration time so far

    def sample(self) -> None:
        start = time.perf_counter()
        _slice()
        end = time.perf_counter()
        self.marks.append((start + end) / 2)
        self.slices.append(end - start)
        self.spent += end - start

    def keep_up(self, seconds: float) -> None:
        """Count ``seconds`` more of op time, then calibrate until the
        slices have taken ``SHARE`` of all op time counted (one at least)."""
        self.busy += seconds
        self.sample()
        while self.spent < SHARE * self.busy:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean slice time around [start, end]."""
        need = SHARE * (end - start)
        before = bisect.bisect_left(self.marks, start)
        after = bisect.bisect_right(self.marks, end)
        near: list[float] = []
        for side in (range(before - 1, -1, -1), range(after, len(self.slices))):
            covered = 0.0
            for k, index in enumerate(side):
                if k >= NEAREST and covered >= need:
                    break
                near.append(self.slices[index])
                covered += self.slices[index]
        return REFERENCE_S / statistics.fmean(near or self.slices)

    def mean_slice(self) -> float:
        return statistics.fmean(self.slices)

"""How fast is the host right now?  A reference kernel, timed all through a run.

The sizing host (a 2-vCPU VM on a shared machine) changes speed under the
benchmark.  The same fixed work takes 1.0x, 1.3x or now and then 2x as
long; a state holds for half a second or for a minute, and CPU time moves
with wall time, so nothing measured inside one run averages it away.  Ten
runs of unchanged code land 15-30 % apart (quartile to quartile), wider
than any bound the benchmark may set.  What a run *can* do is notice the
speed it is running at.

``kernel()`` is a third of a millisecond of fixed work that imports nothing from the
program: interpreter work, small-array numpy calls and a copy between two
preallocated buffers, roughly the program's own mix.  (A freshly
allocated copy was tried and dropped: its time on this VM varies 2x from
call to call and follows nothing.)  The load driver times it between
operations, every ``PROBE_EVERY`` seconds, and the other phases time it
around each call they measure.  ``SpeedLog.slowdown(lo, hi)`` is the
median kernel time of the samples within ``WINDOW`` seconds of
``[lo, hi]`` over ``NOMINAL_SECONDS``; the worker divides every
CPU-bound duration by the slowdown at the time it was measured (and
multiplies closed-loop rates by it).  Time spent waiting for an
open-loop schedule is not CPU-bound and is left alone.  Over 1200 updates
of one stream the kernel explained the update's duration with a residual
of 8 % per update against a raw spread of 14 %, and a run's statistic
rests on dozens of updates.

The reported times are therefore "at nominal host speed": milliseconds on
a host that runs the kernel in ``NOMINAL_SECONDS``.  On a host of another
speed every time metric shifts by one common factor, which no comparison
of two commits on one host sees.

The kernel never touches the program, so a slower program cannot look
faster through it.  What could is a change that adds a thread holding the
GIL most of the time (the kernel would wait for it); the traced pass
reports the raw kernel time as ``host.kernel_ms`` so that shows.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: the kernel's time on the sizing host at its usual fast speed.  A unit,
#: not a measurement: changing it rescales every time metric alike.
NOMINAL_SECONDS = 0.0003
#: seconds between two samples while the load driver runs (1.4 % of its
#: time: each sample runs the kernel twice)
PROBE_EVERY = 0.05
#: samples this close to an interval count towards its slowdown
WINDOW = 0.15

_clock = time.perf_counter
_A = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_B = np.linspace(1.0, 2.0, 64 * 8).reshape(64, 8)
_SOURCE = np.zeros(1 << 16, dtype=np.float64)  # 512 KiB
_TARGET = np.zeros(1 << 16, dtype=np.float64)


def kernel() -> float:
    total = 0
    table = {}
    for i in range(2500):
        table[i & 63] = total
        total += (i * i) % 7
    for _ in range(75):
        product = _A @ _B
    np.copyto(_TARGET, _SOURCE)
    return total + product[0, 0]


class SpeedLog:
    """Kernel timings of one run, in time order."""

    def __init__(self) -> None:
        self.when: List[float] = []
        self.seconds: List[float] = []

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times; returns the clock afterwards.

        One untimed run comes first: the program has just had the caches
        to itself, and the sample is to read the host's speed, not how
        much of the kernel's data the program evicted."""
        kernel()
        for _ in range(count):
            t0 = _clock()
            kernel()
            t1 = _clock()
            self.when.append(t0)
            self.seconds.append(t1 - t0)
        return t1

    def slowdown(self, lo, hi) -> np.ndarray:
        """Host slowdown (1.0 = nominal) over each interval ``[lo[i], hi[i]]``:
        the median of the samples within ``WINDOW`` of it, and of one more
        on either side when fewer than three are that close."""
        when = np.asarray(self.when)
        seconds = np.asarray(self.seconds)
        lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
        first = np.searchsorted(when, lo - WINDOW, side="left")
        last = np.searchsorted(when, hi + WINDOW, side="right")
        out = np.empty(lo.size)
        for i, (a, b) in enumerate(zip(first.tolist(), last.tolist())):
            if b - a < 3:
                a, b = max(0, a - 1), min(when.size, b + 1)
            out[i] = np.median(seconds[a:b])
        return out / NOMINAL_SECONDS

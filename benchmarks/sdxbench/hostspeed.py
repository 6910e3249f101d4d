"""How fast is this host right now? The correction every timing gets.

The sandbox the benchmark runs on is a slice of a shared host. Identical
code runs 1.2-2x slower for seconds to minutes at a time, and ~15 %
faster when a neighbour goes quiet — the clock the program sees (wall or
CPU, they agree) cannot tell that from a slower program. So the harness
runs :func:`reference_loop`, a fixed piece of pure-Python work of the
kind the program does (tuple unpacking, dicts of lists, frozensets, small
sorts, many short-lived objects), immediately before and after every
timed region, and divides the region's time by how much slower than
:data:`REFERENCE_SECONDS` the loop ran around it. A timing therefore
reads "seconds on a host that runs the reference loop in
``REFERENCE_SECONDS``", whatever the host was doing.

The loop shares nothing with ``src/``: a change to the program cannot
move it, so a faster program still reads faster and a slower one slower.
What the correction cannot see is a change to the Python interpreter
itself, which moves both sides alike.

On 850 back-to-back cold compiles of the fig-8 corner exchange, with a
shorter loop of this kind run between them, the medians of consecutive
tens spread 9.4 % between quartiles (0.286-0.439 s) as measured and 2.7 %
(0.335-0.385 s) corrected; a memory-bound loop (random walk over 200 000
tuples) and an arithmetic-only loop did worse (6.7 % and 4.8 %). README,
"Steadiness".
"""

from __future__ import annotations

import bisect
import gc
import time
from typing import List

#: What :func:`reference_loop` takes between ops of the fig-8 workloads on
#: the reference sandbox when the host is quiet (median of the run medians
#: of thirty runs). Only its constancy matters.
REFERENCE_SECONDS = 0.0215

#: A sample older than this is not reused for the next timed region.
STALE_SECONDS = 0.25

_POOL = [((i * 2654435761) & 0x3FFFFFFF, (i * 40503) & 0xFFFF, str(i))
         for i in range(4096)]
_ROUNDS = 18


def reference_loop() -> float:
    """Run the fixed reference work once; seconds it took.

    The cyclic collector is off for the duration: what a collection costs
    depends on the program's heap (0.1 s over a loaded exchange), and the
    reference must not move with the program. Nothing here makes a cycle.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict = {}
        for round_ in range(_ROUNDS):
            for a, b, c in _POOL:
                key = (a + round_) & 255
                bucket = table.get(key)
                if bucket is None:
                    table[key] = bucket = []
                bucket.append((b, c, round_))
        total = 0
        for key in sorted(table, reverse=True):
            total += len(frozenset(table[key])) + len(sorted(table[key])[:3])
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Reference-loop samples over one run, and the slowdown they imply."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        """Run the reference loop now and remember when and how long."""
        started = time.perf_counter()
        seconds = reference_loop()
        self.starts.append(started)
        self.seconds.append(seconds)
        self.ends.append(time.perf_counter())

    def refresh(self, stale: float = STALE_SECONDS) -> None:
        """Take a sample unless the last one ended under ``stale`` seconds ago."""
        if not self.ends or time.perf_counter() - self.ends[-1] > stale:
            self.sample()

    def corrected(self, start: float, seconds: float) -> float:
        """``seconds``, measured from ``start``, at the reference host's speed."""
        return seconds / self.slowdown(start, start + seconds)

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference host the region ``start`` to
        ``end`` ran: the mean of the last sample that ended before it and
        the first that started after it, over ``REFERENCE_SECONDS``."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        around = [self.seconds[index] for index in (before, after)
                  if 0 <= index < len(self.seconds)]
        if not around:
            raise ValueError("no host-speed sample around the timed region")
        return sum(around) / len(around) / REFERENCE_SECONDS

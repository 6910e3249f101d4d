"""Logical clocks for the control-plane runtime.

The runtime's *scheduling* decisions (idle-gap recompilation, degrade
recovery) depend on the passage of time, but wall-clock time makes those
decisions unreproducible under test. The runtime therefore reads time
through a :class:`Clock`: production and the soak driver use
:class:`MonotonicClock`, while tests and the verification oracle use a
:class:`ManualClock` advanced explicitly — same code path, fully
replayable decisions.

Latency *measurements* (ingest-to-install histograms) always use
``time.perf_counter`` directly: measured durations should be real even
when scheduling time is simulated.
"""

from __future__ import annotations

import time


class Clock:
    """The time source protocol the runtime schedules against."""

    def now(self) -> float:
        """The current time in seconds (monotonic, arbitrary epoch)."""
        raise NotImplementedError


class MonotonicClock(Clock):
    """Wall time via ``time.monotonic`` (the default: production, soak)."""

    def now(self) -> float:
        """The current ``time.monotonic`` reading."""
        return time.monotonic()


class ManualClock(Clock):
    """A clock that only moves when told to (deterministic mode)."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        """The current simulated time."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new time."""
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._now += seconds
        return self._now

    def set(self, now: float) -> None:
        """Jump to absolute time ``now`` (must not move backwards)."""
        if now < self._now:
            raise ValueError(
                f"time cannot move backwards ({self._now} -> {now})")
        self._now = now

    def __repr__(self) -> str:
        return f"ManualClock(t={self._now:.3f})"

"""Timed trace replay with background re-optimisation between bursts.

Section 4.3.2: "the main recompilation algorithm is then executed in the
background between subsequent bursts of updates", exploiting the
measured inter-arrival gaps (≥ 10 s 75% of the time). The replayer walks
a timed trace with a virtual clock, drives every update through the
controller's fast path, and — whenever the virtual gap to the next event
exceeds the configured threshold — runs the background re-optimisation,
exactly the scheduling policy the paper describes.

The collected :class:`ReplayStats` expose both halves of the space/time
trade: per-update fast-path latency, and how large the table grows
between re-optimisations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.controller import SdxController
from repro.experiments.metrics import Cdf
from repro.workloads.updates import TraceEvent


@dataclass
class ReplayStats:
    """What one replay observed."""

    updates_replayed: int = 0
    background_runs: int = 0
    fast_path_seconds: List[float] = field(default_factory=list)
    background_seconds: List[float] = field(default_factory=list)
    peak_extra_rules: int = 0
    table_sizes: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def fast_path_cdf(self) -> Cdf:
        """Per-update fast-path latency distribution."""
        return Cdf(self.fast_path_seconds)

    def summary(self) -> str:
        """A short printable digest."""
        cdf = self.fast_path_cdf
        background = (
            f"{self.background_runs} background runs"
            + (f", mean {sum(self.background_seconds) / len(self.background_seconds) * 1000:.0f} ms"
               if self.background_seconds else ""))
        return (f"{self.updates_replayed} updates; fast path median "
                f"{cdf.median * 1000:.1f} ms / p99 "
                f"{cdf.quantile(0.99) * 1000:.1f} ms; peak extra rules "
                f"{self.peak_extra_rules}; {background}")


class TraceReplayer:
    """Replays a timed update trace against a started controller."""

    def __init__(self, controller: SdxController, *,
                 background_gap_seconds: float = 10.0):
        if not controller.started:
            raise ValueError("start the controller before replaying a trace")
        self.controller = controller
        self.background_gap_seconds = background_gap_seconds

    def replay(self, events: Sequence[TraceEvent],
               final_background: bool = True) -> ReplayStats:
        """Walk the trace; returns the collected statistics."""
        import time as _time

        stats = ReplayStats()
        controller = self.controller
        previous_time: Optional[float] = None
        for event in events:
            gap = (event.time - previous_time
                   if previous_time is not None else 0.0)
            if (previous_time is not None
                    and gap >= self.background_gap_seconds
                    and controller.engine.dirty):
                started = _time.perf_counter()
                controller.run_background_recompilation()
                stats.background_seconds.append(_time.perf_counter() - started)
                stats.background_runs += 1
            invocations = controller.engine.fast_path_invocations
            controller.submit_update(event.update)
            if controller.engine.fast_path_invocations > invocations:
                stats.fast_path_seconds.append(
                    controller.fast_path_log[-1].seconds)
            stats.updates_replayed += 1
            stats.peak_extra_rules = max(
                stats.peak_extra_rules,
                controller.engine.fast_path_rules_live)
            stats.table_sizes.append((event.time, len(controller.table)))
            previous_time = event.time
        if final_background and controller.engine.dirty:
            started = _time.perf_counter()
            controller.run_background_recompilation()
            stats.background_seconds.append(_time.perf_counter() - started)
            stats.background_runs += 1
        return stats

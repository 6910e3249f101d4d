"""End-to-end monitoring-loop experiments (CLI + benchmark harness).

Two canned closed-loop runs, built from :mod:`repro.workloads.scenarios`
traffic, a :class:`~repro.monitoring.driver.MonitoredTrafficDriver`, and
the reactive apps in :mod:`repro.apps.reactive`:

* :func:`run_shifting_loop` — the counter-driven inbound-TE loop: slice
  rates flip mid-run, the egress-imbalance watch raises, and the
  :class:`~repro.apps.reactive.ReactiveInboundBalancer` re-packs slices
  onto the eyeball's two ports. Reports reaction latency (traffic shift
  → first corrective FlowMod batch, in simulated seconds), convergence,
  and per-port estimation accuracy.
* :func:`run_skewed_loop` — the heavy-hitter offload loop: one prefix
  surges, the detector raises at FEC granularity, and
  :class:`~repro.apps.reactive.HeavyHitterSteering` drills down and
  steers the surging prefix to the alternate transit. Reports reaction
  latency, what was offloaded/released, and per-FEC estimation accuracy
  against the driver's ground truth.

Accuracy semantics: a sample taken at clock time ``t`` covers the ticks
in ``(t - cadence, t]`` — the driver stamps a tick *before* advancing
the clock, so the sample's instantaneous rates line up with ground
truth over ``until=t - tick`` shifted windows. Both runners compare at
steady state (no phase boundary inside the window), where the collector
should agree with the truth to float/rounding precision.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.reactive import HeavyHitterSteering, ReactiveInboundBalancer
from repro.core.controller import SdxController
from repro.monitoring.detect import HeavyHitterDetector
from repro.monitoring.driver import MonitoredTrafficDriver, TickRecord
from repro.monitoring.loop import DataPlaneMonitor
from repro.monitoring.stats import MonitorSample
from repro.runtime.clock import ManualClock
from repro.runtime.loop import ControlPlaneRuntime
from repro.workloads.scenarios import (
    SKEWED_PREFIXES,
    ScenarioFlow,
    build_shifting_controller,
    build_skewed_controller,
    shifting_flows,
    skewed_flows,
)

#: ``on_sample`` callback signature: invoked once per *fresh* sample.
SampleHook = Callable[[MonitorSample], None]


@dataclass(frozen=True)
class LoopConfig:
    """Shared knobs for both closed-loop runs."""

    duration: float = 40.0
    shift_time: float = 10.0
    cadence_seconds: float = 1.0
    tick_seconds: float = 1.0
    seed: int = 0
    statics_mode: str = "strict"
    rate_scale: float = 1.0


def _percent_error(estimated: float, true: float) -> float:
    """|estimated - true| as a percentage of the true value."""
    if true == 0.0:
        return 0.0 if estimated == 0.0 else float("inf")
    return abs(estimated - true) / true * 100.0


@dataclass
class ShiftingResult:
    """What the inbound-balancing loop did and how well it measured."""

    config: LoopConfig
    rebalances: int
    first_rebalance_at: Optional[float]
    #: Simulated seconds from the traffic shift to the first corrective
    #: FlowMod batch hitting the table (None: no reaction).
    reaction_seconds: Optional[float]
    #: Ground-truth per-port share over the trailing 5 s window.
    final_share: Tuple[float, ...]
    #: max/mean of the final share (1.0 = perfectly balanced).
    final_imbalance: float
    #: Worst per-port instantaneous-rate error (%) at the final sample.
    port_rate_error_pct: float
    samples: int
    runtime_submitted: Dict[str, int]

    def converged(self, *, within_ticks: int,
                  imbalance_bound: float = 1.25) -> bool:
        """Did the balancer react in time and actually balance?"""
        if self.reaction_seconds is None:
            return False
        ticks = self.reaction_seconds / self.config.tick_seconds
        return ticks <= within_ticks and self.final_imbalance <= imbalance_bound

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary of the run (the ``--json`` payload)."""
        return {
            "scenario": "shifting",
            "duration_seconds": self.config.duration,
            "shift_time_seconds": self.config.shift_time,
            "cadence_seconds": self.config.cadence_seconds,
            "seed": self.config.seed,
            "rebalances": self.rebalances,
            "first_rebalance_at": self.first_rebalance_at,
            "reaction_seconds": self.reaction_seconds,
            "final_share": [round(s, 4) for s in self.final_share],
            "final_imbalance": round(self.final_imbalance, 4),
            "port_rate_error_pct": round(self.port_rate_error_pct, 4),
            "samples": self.samples,
            "runtime_submitted": dict(self.runtime_submitted),
        }


@dataclass
class SkewedResult:
    """What the heavy-hitter loop did and how well it measured."""

    config: LoopConfig
    offloaded: Tuple[str, ...]
    declined: Tuple[str, ...]
    offload_at: Optional[float]
    #: Simulated seconds from the surge to the offloading FlowMod batch.
    reaction_seconds: Optional[float]
    #: Worst per-FEC instantaneous-rate error (%) at steady state.
    fec_rate_error_pct: float
    #: Worst per-FEC cumulative-byte error (%) over the whole run.
    fec_bytes_error_pct: float
    #: Estimated EWMA rate toward each participant at the end.
    participant_rates: Dict[str, float]
    samples: int
    runtime_submitted: Dict[str, int]

    def converged(self, *, within_ticks: int, **_ignored) -> bool:
        """Did the steering offload the hitter in time?"""
        if self.reaction_seconds is None or not self.offloaded:
            return False
        return self.reaction_seconds / self.config.tick_seconds <= within_ticks

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary of the run (the ``--json`` payload)."""
        return {
            "scenario": "skewed",
            "duration_seconds": self.config.duration,
            "surge_time_seconds": self.config.shift_time,
            "cadence_seconds": self.config.cadence_seconds,
            "seed": self.config.seed,
            "offloaded": list(self.offloaded),
            "declined": list(self.declined),
            "offload_at": self.offload_at,
            "reaction_seconds": self.reaction_seconds,
            "fec_rate_error_pct": round(self.fec_rate_error_pct, 4),
            "fec_bytes_error_pct": round(self.fec_bytes_error_pct, 4),
            "participant_rates": {
                name: round(rate, 3)
                for name, rate in sorted(self.participant_rates.items())},
            "samples": self.samples,
            "runtime_submitted": dict(self.runtime_submitted),
        }


@dataclass
class _LoopRun:
    """What the shared closed-loop skeleton hands back to a scenario."""

    driver: MonitoredTrafficDriver
    runtime: ControlPlaneRuntime
    #: Clock time of the first tick after which ``reacted()`` held.
    reacted_at: Optional[float]
    #: Simulated seconds from the shift to the first FlowMod batch
    #: applied after it (None: no reaction).
    reaction_seconds: Optional[float]
    #: Fresh monitor samples seen (ticks may outpace the cadence).
    samples: int


def _run_closed_loop(sdx: SdxController, monitor: DataPlaneMonitor,
                     handler: Callable[[object, SdxController], None],
                     flows: Sequence[ScenarioFlow], config: LoopConfig, *,
                     reacted: Callable[[], bool],
                     on_sample: Optional[SampleHook]) -> _LoopRun:
    """Front ``sdx`` with a runtime on a fresh :class:`ManualClock`, wire
    ``monitor`` and the app's ``handler`` into it, and drive ``flows``
    for ``config.duration`` simulated seconds."""
    clock = ManualClock()
    runtime = sdx.build_runtime(clock=clock)
    runtime.attach_monitor(monitor)
    runtime.add_monitoring_handler(handler)
    driver = MonitoredTrafficDriver(
        sdx, runtime, flows, tick_seconds=config.tick_seconds)
    reaction_at: List[float] = []
    sampled_at: List[float] = []
    reacted_at: List[float] = []

    def probe(batch) -> None:
        if batch and not reaction_at and clock.now() > config.shift_time:
            reaction_at.append(clock.now())

    def watch(record: TickRecord) -> None:
        sample = monitor.last_sample
        fresh = sample is not None and (
            not sampled_at or sample.sampled_at != sampled_at[-1])
        if fresh:
            sampled_at.append(sample.sampled_at)
            if on_sample is not None:
                on_sample(sample)
        if not reacted_at and reacted():
            reacted_at.append(record.time)

    sdx.southbound.add_observer(probe)
    driver.run(config.duration, on_tick=watch)
    sdx.southbound.remove_observer(probe)
    return _LoopRun(
        driver=driver, runtime=runtime,
        reacted_at=reacted_at[0] if reacted_at else None,
        reaction_seconds=(reaction_at[0] - config.shift_time
                          if reaction_at else None),
        samples=len(sampled_at))


def run_shifting_loop(config: LoopConfig = LoopConfig(), *,
                      on_sample: Optional[SampleHook] = None
                      ) -> ShiftingResult:
    """Drive the shifting scenario through the reactive inbound balancer."""
    sdx = build_shifting_controller(statics_mode=config.statics_mode)
    monitor = DataPlaneMonitor(sdx, cadence_seconds=config.cadence_seconds)
    balancer = ReactiveInboundBalancer(sdx.participant("Eyeball"), monitor)
    monitor.add_detector(balancer.make_watch())
    balancer.install()
    flows = shifting_flows(
        shift_time=config.shift_time, duration=config.duration,
        seed=config.seed, rate_scale=config.rate_scale)
    run = _run_closed_loop(
        sdx, monitor, balancer.handle_event, flows, config,
        reacted=lambda: bool(balancer.rebalances), on_sample=on_sample)
    driver = run.driver

    window = min(5.0, config.duration / 4)
    share = driver.port_share(balancer.ports, window_seconds=window)
    mean = sum(share) / len(share) if share else 0.0
    imbalance = (max(share) / mean) if mean > 0 else 1.0

    sample = monitor.last_sample
    truth = driver.ground_truth_port_rates(
        config.cadence_seconds,
        until=sample.sampled_at - config.tick_seconds)
    error = max(
        (_percent_error(sample.port_rate(port), truth.get(port, 0.0))
         for port in balancer.ports), default=0.0)

    return ShiftingResult(
        config=config,
        rebalances=balancer.rebalances,
        first_rebalance_at=run.reacted_at,
        reaction_seconds=run.reaction_seconds,
        final_share=share,
        final_imbalance=imbalance,
        port_rate_error_pct=error,
        samples=run.samples,
        runtime_submitted=run.runtime.stats()["submitted"])


def run_skewed_loop(config: LoopConfig = LoopConfig(), *,
                    threshold_mbps: float = 50.0,
                    on_sample: Optional[SampleHook] = None) -> SkewedResult:
    """Drive the skewed scenario through the heavy-hitter steering app."""
    sdx = build_skewed_controller(statics_mode=config.statics_mode)
    detector = HeavyHitterDetector(
        threshold_mbps=threshold_mbps * config.rate_scale)
    monitor = DataPlaneMonitor(
        sdx, cadence_seconds=config.cadence_seconds, detectors=[detector])
    steering = HeavyHitterSteering(
        sdx.participant("Sender"), monitor, prefixes=SKEWED_PREFIXES,
        primary="Primary", alternate="Alternate")
    steering.install()
    flows = skewed_flows(
        surge_time=config.shift_time, duration=config.duration,
        seed=config.seed, rate_scale=config.rate_scale)
    run = _run_closed_loop(
        sdx, monitor, steering.handle_event, flows, config,
        reacted=lambda: bool(steering.offloaded()), on_sample=on_sample)
    driver = run.driver

    sample = monitor.last_sample
    # Steady-state instantaneous rates (the surge holds until the end).
    truth_rates = driver.ground_truth_rates(
        config.cadence_seconds,
        until=sample.sampled_at - config.tick_seconds)
    rate_error = max(
        (_percent_error(sample.fec_rate(label), rate)
         for label, rate in truth_rates.items()), default=0.0)

    # Whole-run cumulative bytes: every tick the driver recorded should
    # be visible in the collector's accumulated per-FEC totals.
    truth_bytes: Counter = Counter()
    for record in driver.history:
        truth_bytes.update(record.fec_bytes)
    estimated_bytes = {view.key: view.bytes for view in sample.fecs}
    bytes_error = max(
        (_percent_error(float(estimated_bytes.get(label, 0)), float(count))
         for label, count in truth_bytes.items()), default=0.0)

    return SkewedResult(
        config=config,
        offloaded=steering.offloaded(),
        declined=tuple(steering.declined),
        offload_at=run.reacted_at,
        reaction_seconds=run.reaction_seconds,
        fec_rate_error_pct=rate_error,
        fec_bytes_error_pct=bytes_error,
        participant_rates={
            view.key: view.ewma_mbps for view in sample.participants},
        samples=run.samples,
        runtime_submitted=run.runtime.stats()["submitted"])

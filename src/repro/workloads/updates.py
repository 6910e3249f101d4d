"""Bursty BGP update traces matching the paper's measurements.

Section 4.3 reports, from one week of RIPE RIS data at the three largest
IXPs (Table 1):

* only 10-14% of prefixes saw any update at all;
* update bursts affect ≤ 3 prefixes 75% of the time, with rare bursts
  above 1,000 prefixes;
* burst inter-arrival times are ≥ 10 s 75% of the time and ≥ 60 s half
  of the time.

The generator draws inter-arrivals from a log-normal calibrated to those
two quantiles (median 60 s, 25th percentile 10 s → σ ≈ 2.66) and burst
sizes from a 75/25 mixture of Uniform{1..3} and a Pareto tail. Updates
are attribute changes (fresh AS path from the same announcer) or
withdraw/re-announce pairs, confined to an "update-prone" subset of
prefixes sized by the target fraction — the paper's observation that
policy-relevant prefixes are the stable ones falls out of this shape.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.workloads.routing import synthesize_as_path
from repro.workloads.seeding import SeedLike, make_rng
from repro.workloads.topology import SyntheticIxp

#: Log-normal inter-arrival parameters (seconds): median 60, P25 = 10.
_INTERARRIVAL_MU = math.log(60.0)
_INTERARRIVAL_SIGMA = (math.log(60.0) - math.log(10.0)) / 0.674

#: Mixture weight of small (≤3 prefix) bursts.
_SMALL_BURST_WEIGHT = 0.75

#: Pareto shape for the burst-size tail.
_BURST_TAIL_ALPHA = 1.1

#: Hard cap on burst size (the paper saw one >1,000-prefix burst a week).
_MAX_BURST = 1_500


@dataclass(frozen=True)
class TraceEvent:
    """One timed BGP update."""

    time: float
    update: Update

    @property
    def prefix_count(self) -> int:
        """How many prefixes this event touches."""
        return len(self.update.prefixes)


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace (for the Table 1 reproduction)."""

    updates: int
    prefixes_updated: int
    total_prefixes: int
    bursts: int
    fraction_small_bursts: float
    fraction_gaps_over_10s: float
    fraction_gaps_over_60s: float

    @property
    def fraction_prefixes_updated(self) -> float:
        """Share of the table that churned at all."""
        if self.total_prefixes == 0:
            return 0.0
        return self.prefixes_updated / self.total_prefixes


def _burst_size(rng: random.Random) -> int:
    if rng.random() < _SMALL_BURST_WEIGHT:
        return rng.randint(1, 3)
    tail = int(3 / (rng.random() ** (1.0 / _BURST_TAIL_ALPHA)))
    return max(4, min(tail, _MAX_BURST))


def _interarrival(rng: random.Random) -> float:
    return rng.lognormvariate(_INTERARRIVAL_MU, _INTERARRIVAL_SIGMA)


class UpdateSequencer:
    """Stateful announce/withdraw/re-announce update emitter.

    The reusable core of :func:`generate_trace`: given the map from
    prefix to its announcers, each :meth:`step` call emits one update for
    a prefix — a fresh-attribute re-announcement, or (with probability
    ``withdraw_probability``) a withdrawal that is always followed, on
    the prefix's next turn for that announcer, by a re-announcement. The
    withdrawn-set bookkeeping keeps long traces from draining the table.

    Shared by the calibrated trace generator and by the fuzzing scenario
    generator in :mod:`repro.verification.scenario`, so both produce the
    same update mix from the same underlying distributions.
    """

    def __init__(self, announcers: Dict[IPv4Prefix, List[Tuple[str, int]]],
                 rng: random.Random, *,
                 withdraw_probability: float = 0.2,
                 next_hop: Optional[IPv4Address] = None):
        self.announcers = announcers
        self.rng = rng
        self.withdraw_probability = withdraw_probability
        self.next_hop = (next_hop if next_hop is not None
                         else IPv4Address("172.0.0.1"))
        self.withdrawn: Set[Tuple[str, IPv4Prefix]] = set()

    def step(self, prefix: IPv4Prefix) -> Update:
        """One update touching ``prefix`` (announce or withdraw)."""
        rng = self.rng
        name, asn = rng.choice(self.announcers[prefix])
        key = (name, prefix)
        if key in self.withdrawn:
            self.withdrawn.discard(key)
            return self._reannounce(prefix, name, asn)
        if rng.random() < self.withdraw_probability:
            self.withdrawn.add(key)
            return Update.withdraw(name, prefix)
        return self._reannounce(prefix, name, asn)

    def _reannounce(self, prefix: IPv4Prefix, name: str, asn: int) -> Update:
        rng = self.rng
        origin = rng.randrange(1_000, 60_000)
        path = synthesize_as_path(origin, asn, rng,
                                  mean_extra_hops=rng.choice((1.0, 2.0, 3.0)))
        attributes = RouteAttributes(
            next_hop=self.next_hop, as_path=path,
            med=rng.choice((0, 10, 50)))
        return Update.announce(name, prefix, attributes)


def generate_trace(ixp: SyntheticIxp, *, duration_seconds: float = 3_600.0,
                   seed: SeedLike = 0,
                   fraction_prefixes_updated: float = 0.12,
                   max_updates: Optional[int] = None,
                   withdraw_probability: float = 0.2) -> List[TraceEvent]:
    """A timed update trace against an existing synthetic IXP.

    Events reference real announcers of each prefix, so replaying the
    trace through a controller exercises genuine best-path changes.
    ``seed`` is an int or a :class:`random.Random` (see
    :mod:`repro.workloads.seeding`).

    ``max_updates`` changes the stopping rule: the trace runs until that
    many updates have been emitted, however long that takes — the
    burst-size and inter-arrival *distributions* stay calibrated, and the
    clock simply extends past ``duration_seconds`` if needed. (Matching
    the paper's absolute update counts and its quantile statistics with
    one stationary process is otherwise impossible at small scale.)
    A bound of 0 gives an empty trace; a negative one is an error.
    """
    if max_updates is not None:
        if max_updates < 0:
            raise ValueError(f"max_updates must be >= 0, got {max_updates}")
        if max_updates == 0:
            return []
    rng = make_rng(seed, salt=0x5DF)
    announcers: Dict[IPv4Prefix, List[Tuple[str, int]]] = {}
    for name, prefix, path in ixp.announcements:
        asn = ixp.by_name(name).asn
        announcers.setdefault(prefix, []).append((name, asn))

    all_prefixes = list(announcers)
    prone_count = max(1, int(len(all_prefixes) * fraction_prefixes_updated))
    prone = rng.sample(all_prefixes, k=prone_count)
    sequencer = UpdateSequencer(
        announcers, rng, withdraw_probability=withdraw_probability)

    events: List[TraceEvent] = []
    clock = 0.0
    emitted = 0
    while True:
        clock += _interarrival(rng)
        if max_updates is None and clock > duration_seconds:
            break
        size = min(_burst_size(rng), len(prone))
        touched = rng.sample(prone, k=size)
        for prefix in touched:
            events.append(TraceEvent(time=clock, update=sequencer.step(prefix)))
            emitted += 1
            if max_updates is not None and emitted >= max_updates:
                return events
    return events


def generate_burst_trace(ixp: SyntheticIxp, *, bursts: int = 10,
                         burst_size: int = 100, hot_prefixes: int = 16,
                         gap_seconds: float = 30.0, seed: SeedLike = 0,
                         withdraw_probability: float = 0.2) -> List[TraceEvent]:
    """A coalescing-friendly trace: dense bursts hammering few prefixes.

    Unlike :func:`generate_trace` (whose bursts touch *distinct*
    prefixes, the Table 1 shape), each burst here draws ``burst_size``
    updates **with replacement** from a hot set of ``hot_prefixes`` — the
    flap-storm shape where per-(participant, prefix) coalescing pays
    off. All updates within a burst share one timestamp; bursts are
    ``gap_seconds`` apart, so a replayer's idle detection sees clear
    quiet periods between them.
    """
    if bursts < 1 or burst_size < 1:
        raise ValueError("bursts and burst_size must be positive")
    rng = make_rng(seed, salt=0xB0257)
    announcers: Dict[IPv4Prefix, List[Tuple[str, int]]] = {}
    for name, prefix, _path in ixp.announcements:
        asn = ixp.by_name(name).asn
        announcers.setdefault(prefix, []).append((name, asn))
    all_prefixes = list(announcers)
    hot = rng.sample(all_prefixes, k=min(hot_prefixes, len(all_prefixes)))
    sequencer = UpdateSequencer(
        announcers, rng, withdraw_probability=withdraw_probability)
    events: List[TraceEvent] = []
    clock = 0.0
    for _burst in range(bursts):
        clock += gap_seconds
        for _event in range(burst_size):
            prefix = rng.choice(hot)
            events.append(TraceEvent(time=clock, update=sequencer.step(prefix)))
    return events


def trace_stats(events: Sequence[TraceEvent],
                total_prefixes: int,
                burst_gap_seconds: float = 1.0) -> TraceStats:
    """Summarise a trace the way Table 1 / Section 4.3 summarise theirs.

    Events closer together than ``burst_gap_seconds`` count as one burst.
    """
    if not events:
        return TraceStats(0, 0, total_prefixes, 0, 0.0, 0.0, 0.0)
    prefixes: Set[IPv4Prefix] = set()
    burst_sizes: List[int] = []
    gaps: List[float] = []
    current_burst = 0
    last_time: Optional[float] = None
    for event in events:
        prefixes.update(event.update.prefixes)
        if last_time is None or event.time - last_time <= burst_gap_seconds:
            current_burst += event.prefix_count
        else:
            burst_sizes.append(current_burst)
            gaps.append(event.time - last_time)
            current_burst = event.prefix_count
        last_time = event.time
    burst_sizes.append(current_burst)
    small = sum(1 for size in burst_sizes if size <= 3)
    over_10 = sum(1 for gap in gaps if gap >= 10.0)
    over_60 = sum(1 for gap in gaps if gap >= 60.0)
    return TraceStats(
        updates=len(events),
        prefixes_updated=len(prefixes),
        total_prefixes=total_prefixes,
        bursts=len(burst_sizes),
        fraction_small_bursts=small / len(burst_sizes),
        fraction_gaps_over_10s=over_10 / len(gaps) if gaps else 1.0,
        fraction_gaps_over_60s=over_60 / len(gaps) if gaps else 1.0,
    )

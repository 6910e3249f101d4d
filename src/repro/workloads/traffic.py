"""Synthetic IXP traffic matrices with realistic locality.

Section 4.3 leans on Ager et al.'s measurement that "about 95% of all
IXP traffic is exchanged between about 5% of the participants" — it is
why composing only the policies of participants that exchange traffic
saves so much work. This generator produces flow-level demands with that
concentration: source and destination weights follow the same Zipf law
as prefix ownership (the paper itself uses advertised prefixes as the
traffic proxy), so a handful of participant pairs carry almost all
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.workloads.seeding import SeedLike, make_rng
from repro.workloads.topology import SyntheticIxp, ZIPF_EXPONENT

#: Transport ports sampled for flows, roughly web-heavy.
_FLOW_PORTS = (80, 80, 443, 443, 443, 53, 8080, 1935, 25)


@dataclass(frozen=True)
class TrafficDemand:
    """One constant-rate flow between two IXP participants."""

    source: str
    destination: str
    dst_prefix: IPv4Prefix
    packet: Packet
    rate_mbps: float

    @property
    def pair(self) -> Tuple[str, str]:
        """The (source, destination) participant pair."""
        return (self.source, self.destination)


def generate_traffic_matrix(ixp: SyntheticIxp, *, flows: int = 500,
                            seed: SeedLike = 0,
                            mean_rate_mbps: float = 10.0) -> List[TrafficDemand]:
    """A flow-level traffic matrix over an existing synthetic IXP.

    Flow endpoints are drawn with Zipf-by-size weights on both sides
    (gravity model) and flow rates are Pareto-distributed, which together
    yield the heavy pair-concentration real IXPs show. ``seed`` is an int
    or a :class:`random.Random`.
    """
    rng = make_rng(seed, salt=0xBEEF)
    specs = list(ixp.participants)
    sizes = sorted(specs, key=lambda spec: (-len(spec.prefixes), spec.name))
    weights = [1.0 / ((rank + 1) ** ZIPF_EXPONENT) for rank in range(len(sizes))]
    announcers: Dict[IPv4Prefix, List[str]] = {}
    for name, prefix, _path in ixp.announcements:
        announcers.setdefault(prefix, []).append(name)

    demands: List[TrafficDemand] = []
    attempts = 0
    while len(demands) < flows and attempts < flows * 20:
        attempts += 1
        source = rng.choices(sizes, weights=weights, k=1)[0]
        destination = rng.choices(sizes, weights=weights, k=1)[0]
        if destination.name == source.name or not destination.prefixes:
            continue
        dst_prefix = rng.choice(destination.prefixes)
        dstip = dst_prefix.first_address + rng.randrange(
            min(dst_prefix.num_addresses, 250))
        srcip = (source.prefixes[0].first_address + rng.randrange(200)
                 if source.prefixes else rng.randrange(1 << 32))
        # A truncated-Pareto rate: the heaviest flows run ~150x the mean,
        # which is what concentrates bytes onto a few participant pairs.
        rate = mean_rate_mbps * 0.3 / max(0.002, rng.random() ** 1.2)
        demands.append(TrafficDemand(
            source=source.name,
            destination=destination.name,
            dst_prefix=dst_prefix,
            packet=Packet(dstip=dstip, srcip=srcip,
                          dstport=rng.choice(_FLOW_PORTS),
                          srcport=rng.randrange(1024, 65000),
                          protocol=6),
            rate_mbps=rate))
    return demands


@dataclass(frozen=True)
class LocalityStats:
    """Concentration statistics of a traffic matrix."""

    total_mbps: float
    pairs: int
    participants: int
    pairs_for_95_percent: int

    @property
    def pair_fraction_for_95_percent(self) -> float:
        """Share of active pairs carrying 95% of the traffic."""
        if self.pairs == 0:
            return 0.0
        return self.pairs_for_95_percent / self.pairs


def locality_stats(demands: Sequence[TrafficDemand]) -> LocalityStats:
    """How concentrated a traffic matrix is across participant pairs."""
    by_pair: Dict[Tuple[str, str], float] = {}
    participants = set()
    for demand in demands:
        by_pair[demand.pair] = by_pair.get(demand.pair, 0.0) + demand.rate_mbps
        participants.add(demand.source)
        participants.add(demand.destination)
    total = sum(by_pair.values())
    running = 0.0
    needed = 0
    for rate in sorted(by_pair.values(), reverse=True):
        running += rate
        needed += 1
        if running >= 0.95 * total:
            break
    return LocalityStats(
        total_mbps=total,
        pairs=len(by_pair),
        participants=len(participants),
        pairs_for_95_percent=needed)

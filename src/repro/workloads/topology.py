"""Synthetic IXP topologies with the paper's participant structure.

Section 6.1 pins the generator to real-IXP shape: "at AMS-IX,
approximately 1% of the participating ASes announce more than 50% of the
total prefixes, and 90% of the ASes combined announce less than 1%", a
fraction of participants have multiple ports, and participants classify
as eyeball / transit / content. Prefix ownership therefore follows a
Zipf-like law whose exponent is calibrated so the top 1% of ASes hold
roughly half of the table.

Transit participants additionally re-announce a slice of other ASes'
prefixes with longer AS paths, which is what gives prefixes multiple
candidate routes (and makes the FEC computation non-trivial).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.asn import AsPath
from repro.core.controller import SdxController
from repro.net.addresses import IPv4Prefix
from repro.workloads.routing import PrefixPool, synthesize_as_path
from repro.workloads.seeding import SeedLike, make_rng

#: Participant role mix (assumption documented in DESIGN.md; the paper
#: classifies but does not publish proportions).
CATEGORY_FRACTIONS = {"eyeball": 0.60, "transit": 0.25, "content": 0.15}

#: Zipf exponent calibrated so ~1% of ASes announce ~50% of prefixes.
ZIPF_EXPONENT = 1.55

#: Fraction of participants attached with two ports ("the fraction of
#: participants with multiple ports at the exchange").
MULTI_PORT_FRACTION = 0.12


@dataclass(frozen=True)
class ParticipantSpec:
    """One synthetic IXP member."""

    name: str
    asn: int
    category: str
    ports: int
    prefixes: Tuple[IPv4Prefix, ...]


@dataclass
class SyntheticIxp:
    """A generated exchange: members plus every route announcement.

    ``seed`` records whatever was passed to :func:`generate_ixp` — an
    integer for replayable builds, or the caller's ``random.Random``.
    """

    participants: List[ParticipantSpec]
    announcements: List[Tuple[str, IPv4Prefix, AsPath]]
    seed: SeedLike

    def by_name(self, name: str) -> ParticipantSpec:
        """The participant called ``name``."""
        for participant in self.participants:
            if participant.name == name:
                return participant
        raise KeyError(name)

    def top_by_prefixes(self, count: int,
                        category: Optional[str] = None) -> List[ParticipantSpec]:
        """The ``count`` largest members (optionally of one category)."""
        pool = [p for p in self.participants
                if category is None or p.category == category]
        pool.sort(key=lambda p: (-len(p.prefixes), p.name))
        return pool[:count]

    def all_prefixes(self) -> List[IPv4Prefix]:
        """Every announced prefix, deduplicated, sorted."""
        seen = {prefix for _name, prefix, _path in self.announcements}
        return sorted(seen)

    def build_controller(self, *, with_dataplane: bool = False,
                         **kwargs) -> SdxController:
        """Instantiate an :class:`SdxController` loaded with this IXP.

        Control-plane experiments default to no data plane (no router
        objects), which is how the paper's evaluation ran too ("we
        instantiate the SDX runtime with no underlying physical
        switches").
        """
        controller = SdxController(with_dataplane=with_dataplane, **kwargs)
        for spec in self.participants:
            controller.add_participant(
                spec.name, spec.asn, ports=spec.ports, announce=False)
        from repro.bgp.attributes import RouteAttributes
        from repro.bgp.messages import Update, Announcement
        from repro.core.controller import SDX_ORIGIN_IP

        per_sender: Dict[str, List[Announcement]] = {}
        for name, prefix, path in self.announcements:
            participant = controller.topology.participant(name)
            next_hop = (participant.ports[0].ip if not participant.is_remote
                        else SDX_ORIGIN_IP)
            per_sender.setdefault(name, []).append(Announcement(
                prefix, RouteAttributes(next_hop=next_hop, as_path=path)))
        controller.load_routes(
            Update(sender=name, announcements=tuple(announcements))
            for name, announcements in per_sender.items())
        return controller


def _category_for(index: int, total: int, rng: random.Random) -> str:
    roll = rng.random()
    if roll < CATEGORY_FRACTIONS["content"]:
        return "content"
    if roll < CATEGORY_FRACTIONS["content"] + CATEGORY_FRACTIONS["transit"]:
        return "transit"
    return "eyeball"


def _zipf_share(count: int, exponent: float) -> List[float]:
    weights = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def generate_ixp(participants: int, prefixes: int, *, seed: SeedLike = 0,
                 transit_cover_fraction: float = 0.3,
                 prefix_lengths: Sequence[int] = (24, 16)) -> SyntheticIxp:
    """Generate a synthetic IXP with ``participants`` members announcing
    ``prefixes`` distinct prefixes.

    ``transit_cover_fraction`` controls how many prefixes gain a second
    (longer-path) route via some transit member. ``seed`` is an int or a
    :class:`random.Random` (see :mod:`repro.workloads.seeding`).
    """
    if participants < 2:
        raise ValueError("an IXP needs at least two participants")
    rng = make_rng(seed)
    pool = PrefixPool(lengths=prefix_lengths, seed=seed)
    owned = pool.take(prefixes)

    shares = _zipf_share(participants, ZIPF_EXPONENT)
    order = list(range(participants))
    rng.shuffle(order)

    specs: List[ParticipantSpec] = []
    allocations: List[List[IPv4Prefix]] = [[] for _ in range(participants)]
    # Deal prefixes to members proportionally to their Zipf share.
    cursor = 0
    for rank, member in enumerate(order):
        count = round(shares[rank] * prefixes)
        if rank == participants - 1:
            count = prefixes - cursor
        count = max(0, min(count, prefixes - cursor))
        allocations[member] = owned[cursor:cursor + count]
        cursor += count
    # Leftovers (rounding) go to the largest member.
    if cursor < prefixes:
        allocations[order[0]].extend(owned[cursor:])

    announcements: List[Tuple[str, IPv4Prefix, AsPath]] = []
    names: List[str] = []
    for index in range(participants):
        name = f"AS{index + 1}"
        asn = 65_001 + index
        names.append(name)
        category = _category_for(index, participants, rng)
        ports = 2 if rng.random() < MULTI_PORT_FRACTION else 1
        prefix_tuple = tuple(allocations[index])
        specs.append(ParticipantSpec(
            name=name, asn=asn, category=category, ports=ports,
            prefixes=prefix_tuple))
        for prefix in prefix_tuple:
            origin = rng.randrange(1_000, 60_000)
            announcements.append(
                (name, prefix, synthesize_as_path(origin, asn, rng)))

    # Transit cover routes: longer paths to a sample of foreign prefixes.
    transits = [spec for spec in specs if spec.category == "transit"]
    if transits and transit_cover_fraction > 0:
        covered = rng.sample(
            owned, k=min(len(owned), int(len(owned) * transit_cover_fraction)))
        owner_of = {}
        for spec in specs:
            for prefix in spec.prefixes:
                owner_of[prefix] = spec
        for prefix in covered:
            transit = rng.choice(transits)
            owner = owner_of[prefix]
            if transit.name == owner.name:
                continue
            path = synthesize_as_path(
                owner.asn, transit.asn, rng, min_length=3, mean_extra_hops=3.0)
            announcements.append((transit.name, prefix, path))

    return SyntheticIxp(participants=specs, announcements=announcements,
                        seed=seed)

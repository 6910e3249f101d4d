"""Seed -> inputs. The program under test sees only what is built here.

One ``--seed`` derives every stream through
:func:`repro.workloads.seeding.derive_seed`; the exchange *shape* comes
from :data:`catalogue.SHAPE_SEED` (see there for why). ``digest`` is a
SHA-256 over a canonical rendering of everything generated, so two runs
can prove they measured the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from catalogue import SHAPE_SEED, Sizes

from repro.bgp.asn import AsPath
from repro.bgp.messages import Announcement, Update
from repro.core.controller import SdxController
from repro.net.packet import Packet
from repro.policy.policies import Policy, fwd, match
from repro.workloads import (
    PolicyAssignment,
    SyntheticIxp,
    generate_burst_trace,
    generate_ixp,
    generate_policies,
    generate_trace,
)
from repro.workloads.policies import POLICY_FRACTIONS
from repro.workloads.seeding import derive_seed, make_rng

#: Destination ports the probes draw from: the Section 6.1 generator's
#: values plus two nothing matches.
_PROBE_DSTPORTS = (80, 443, 8080, 1935, 53, 22, 5060)


@dataclass(frozen=True)
class PolicyChange:
    """One add-then-remove pair of a single outbound clause."""

    participant: str
    target: str
    dstport: int

    def policy(self) -> Policy:
        """The clause both halves of the pair install and remove."""
        return match(dstport=self.dstport) >> fwd(self.target)


@dataclass
class Inputs:
    """Everything one workload run consumes."""

    ixp: SyntheticIxp
    policies: List[PolicyAssignment]
    updates: List[Update]
    burst_times: List[float]
    changes: List[PolicyChange]
    probes: List[Tuple[str, Packet]]
    digest: str

    @property
    def touched(self) -> tuple:
        """Every prefix some update names, first-seen order."""
        return tuple(dict.fromkeys(
            prefix for update in self.updates for prefix in update.prefixes))


def _draw_routes(shape: SyntheticIxp, seed: int) -> SyntheticIxp:
    """The shape's announcements with every AS path redrawn from ``seed``.

    Each path keeps its announcer, its length and whether it leads to the
    prefix's owner; its origin (when the announcer owns the prefix) and
    its transit hops are the seed's. Which announcer wins each multi-homed
    prefix — and with it the FEC grouping, rule count and compile time —
    turns on path length, so those stay the shape's: with lengths redrawn
    too, ten seeds spread 2.4 % in rules and 8 % in compile time on a
    quiet host, which the bound would have to absorb before any change
    to the program did.
    """
    rng = make_rng(seed)
    owner = {prefix: spec for spec in shape.participants
             for prefix in spec.prefixes}
    announcements = []
    for name, prefix, path in shape.announcements:
        first, *rest = path.asns
        if rest:
            transit = [rng.randrange(64512, 65000) for _ in rest[:-1]]
            origin = (rng.randrange(1_000, 60_000)
                      if owner[prefix].name == name else rest[-1])
            path = AsPath([first, *transit, origin])
        announcements.append((name, prefix, path))
    return SyntheticIxp(participants=shape.participants,
                        announcements=announcements, seed=seed)


def _policy_changes(ixp: SyntheticIxp, policies: Sequence[PolicyAssignment],
                    count: int, seed: int) -> List[PolicyChange]:
    rng = make_rng(seed)
    holders = sorted({p.participant for p in policies if p.direction == "out"})
    targets = [spec.name for spec in ixp.top_by_prefixes(10, "eyeball")]
    changes = []
    for _ in range(count):
        holder = rng.choice(holders)
        target = rng.choice([name for name in targets if name != holder])
        changes.append(PolicyChange(holder, target, rng.randrange(10_000, 60_000)))
    return changes


def _probes(ixp: SyntheticIxp, count: int, seed: int) -> List[Tuple[str, Packet]]:
    rng = make_rng(seed)
    prefixes = ixp.all_prefixes()
    senders = [spec.name for spec in ixp.participants]
    probes = []
    for _ in range(count):
        prefix = rng.choice(prefixes)
        probes.append((rng.choice(senders), Packet(
            dstip=prefix.first_address + rng.randrange(1, 250),
            dstport=rng.choice(_PROBE_DSTPORTS),
            srcip=rng.choice(("10.0.0.1", "200.0.0.1")),
            srcport=rng.choice((1234, 80, 443)),
            protocol=rng.choice((6, 17)))))
    return probes


def _digest(inputs: Inputs) -> str:
    sha = hashlib.sha256()
    for name, prefix, path in inputs.ixp.announcements:
        sha.update(f"A {name} {prefix} {path.asns}\n".encode())
    for assignment in inputs.policies:
        sha.update(f"P {assignment.description}\n".encode())
    for update in inputs.updates:
        sha.update(f"U {update!r}\n".encode())
    sha.update(f"T {inputs.burst_times}\n".encode())
    for change in inputs.changes:
        sha.update(f"C {change}\n".encode())
    for sender, packet in inputs.probes:
        sha.update(f"Q {sender} {sorted(packet.items())}\n".encode())
    return sha.hexdigest()


def _trace(ixp: SyntheticIxp, count: int, stable: frozenset,
           seed: int) -> List[Update]:
    """``count`` calibrated trace updates that leave ``stable`` prefixes alone."""
    events = generate_trace(ixp, seed=seed, max_updates=count + count // 4 + 8)
    updates = [event.update for event in events
               if stable.isdisjoint(event.update.prefixes)][:count]
    if len(updates) < count:
        raise ValueError(f"trace too short after filtering: {len(updates)}")
    return updates


def generate(sizes: Sizes, seed: int) -> Inputs:
    """Every input of one workload run, drawn from ``seed``.

    Transit policies pin one destination prefix of a top eyeball each
    (here: its first); the update trace leaves those prefixes alone.
    That is the paper's own observation (Section 4.3: the policy-relevant
    prefixes are the stable ones), and without it a trace withdrawal of a
    pinned prefix turns its clause into a route-less forward, which the
    strict gate then holds against every later — well-formed — policy
    change.
    """
    shape = generate_ixp(sizes.participants, sizes.prefixes, seed=SHAPE_SEED)
    ixp = _draw_routes(shape, derive_seed(seed, "routes"))
    eyeballs = sum(spec.category == "eyeball" for spec in shape.participants)
    stable = [spec.prefixes[0] for spec in shape.top_by_prefixes(
        max(1, round(eyeballs * POLICY_FRACTIONS["eyeball"])), "eyeball")]
    policies = generate_policies(shape, seed=SHAPE_SEED, prefix_sample=stable)
    updates: List[Update] = []
    burst_times: List[float] = []
    if sizes.bursts:
        events = generate_burst_trace(
            ixp, bursts=sizes.bursts, burst_size=sizes.burst_size,
            hot_prefixes=sizes.hot_prefixes, seed=derive_seed(seed, "trace"))
        updates = [event.update for event in events]
        burst_times = [event.time for event in events[::sizes.burst_size]]
    elif sizes.updates:
        updates = _trace(ixp, sizes.warmup_updates + sizes.updates,
                         frozenset(stable), derive_seed(seed, "trace"))
    inputs = Inputs(
        ixp=ixp, policies=policies, updates=updates, burst_times=burst_times,
        changes=_policy_changes(ixp, policies, sizes.warmup_pairs + sizes.pairs,
                                derive_seed(seed, "pairs")),
        probes=_probes(ixp, sizes.probes, derive_seed(seed, "probes")),
        digest="")
    inputs.digest = _digest(inputs)
    return inputs


def with_real_next_hops(updates: Sequence[Update],
                        controller: SdxController) -> List[Update]:
    """``updates`` with each announcement's next hop set to its sender's port.

    The trace generators stamp one placeholder next hop on every route;
    on a live fabric that address belongs to the first member, so an
    untagged prefix would be delivered to a router that never announced
    it. Real sessions carry the announcing router's own address.
    """
    port_ip: Dict[str, object] = {
        p.name: p.ports[0].ip for p in controller.topology.participants()
        if not p.is_remote}
    return [Update(
        sender=update.sender, withdrawals=update.withdrawals,
        announcements=tuple(
            Announcement(a.prefix, a.attributes.with_next_hop(port_ip[update.sender]))
            for a in update.announcements))
        for update in updates]

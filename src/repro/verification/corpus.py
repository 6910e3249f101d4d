"""Deterministic packet corpora for differential comparison.

A corpus is the probe set every execution forwards after every trace
step. It mixes structured probes — one per (prefix, interesting header
value) so each policy clause has packets that hit and packets that miss
it — with seeded random packets for the combinations nobody thought of.
Everything derives from the scenario seed, so a replayed artifact
compares exactly the same packets.
"""

from __future__ import annotations

from typing import List, Set, Tuple, Union

from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.verification.scenario import Scenario
from repro.workloads.seeding import SeedLike, derive_seed, make_rng

#: Destination ports always present in a corpus (hit + guaranteed miss).
_BASE_DSTPORTS = (80, 22)

#: Source addresses exercising both halves of the address space.
_BASE_SRCIPS = ("10.0.0.1", "200.0.0.1")


def _policy_values(scenario: Scenario, field: str) -> List[Union[int, str]]:
    """Distinct match values the scenario's policies use for ``field``."""
    seen: Set[Union[int, str]] = set()
    for policy in scenario.policies:
        if policy.field == field:
            seen.add(policy.value)
    return sorted(seen, key=str)


def generate_corpus(scenario: Scenario, *, size: int = 16,
                    seed: SeedLike = None) -> Tuple[Packet, ...]:
    """The probe packets for one scenario.

    Structured probes cover every announced prefix crossed with every
    destination port the policies match on (plus a port nothing matches),
    both source halves, and both transport protocols in use; ``size``
    extra packets are drawn at random from the same pools. ``seed``
    defaults to a value derived from the scenario seed.
    """
    rng = make_rng(derive_seed(scenario.seed, "corpus")
                   if seed is None else seed)
    prefixes = [IPv4Prefix(text) for text in scenario.prefixes]
    dstports = sorted(
        {int(v) for v in _policy_values(scenario, "dstport")}
        | set(_BASE_DSTPORTS))
    srcports = sorted(
        {int(v) for v in _policy_values(scenario, "srcport")} | {1234})
    protocols = sorted(
        {int(v) for v in _policy_values(scenario, "protocol")} | {6})

    packets: List[Packet] = []
    for prefix in prefixes:
        dstip = prefix.first_address + 1
        for dstport in dstports:
            for srcip in _BASE_SRCIPS:
                packets.append(Packet(
                    dstip=dstip, dstport=dstport, srcip=srcip,
                    srcport=srcports[0], protocol=protocols[0]))
        for protocol in protocols[1:]:
            packets.append(Packet(
                dstip=dstip, dstport=dstports[0], srcip=_BASE_SRCIPS[0],
                srcport=srcports[0], protocol=protocol))
        for srcport in srcports[1:]:
            packets.append(Packet(
                dstip=dstip, dstport=dstports[0], srcip=_BASE_SRCIPS[0],
                srcport=srcport, protocol=protocols[0]))

    for _ in range(size):
        prefix = rng.choice(prefixes)
        offset = rng.randrange(1, min(prefix.num_addresses, 250))
        packets.append(Packet(
            dstip=prefix.first_address + offset,
            dstport=rng.choice(dstports),
            srcip=rng.choice(_BASE_SRCIPS),
            srcport=rng.choice(srcports),
            protocol=rng.choice(protocols)))
    return tuple(packets)


__all__ = ["generate_corpus"]


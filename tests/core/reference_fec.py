"""The per-prefix FEC grouping, kept as the tests' oracle.

This is what ``compute_prefix_groups`` did before it asked its questions
once per tuple of ranked export classes: every policy-touched prefix is
ranked, export-checked and signed on its own. It reads the Adj-RIB-Ins
(through :func:`tests.bgp.reference.announced_routes`) and the topology's
participants — not the Loc-RIB, not the stored export classes.
"""

from typing import Dict, FrozenSet, Hashable, Iterable, List

from repro.bgp.decision import preference_key
from repro.bgp.routeserver import RouteServer
from repro.core.fec import ContextId
from repro.core.participant import Participant
from repro.net.addresses import IPv4Prefix

from tests.bgp.reference import announced_routes


def reference_partition(participants: Iterable[Participant],
                        route_server: RouteServer
                        ) -> Dict[Hashable, FrozenSet[IPv4Prefix]]:
    """signature -> the prefixes that bear it, prefix by prefix."""
    participant_list = list(participants)
    participant_asns = {p.asn for p in participant_list}
    toward: Dict[str, List[ContextId]] = {}
    for participant in participant_list:
        for target in participant.outbound_targets():
            toward.setdefault(target, []).append((participant.name, target))
        if participant.is_remote:
            toward.setdefault(participant.name, []).append(
                ("@origin", participant.name))

    def signature_of(prefix: IPv4Prefix):
        ranked = sorted(announced_routes(route_server, prefix),
                        key=preference_key)
        contexts = frozenset(
            context for entry in ranked
            for context in toward.get(entry.learned_from, ())
            if context[0] == "@origin"
            or route_server.route_exported(entry, context[0]))
        if not contexts:
            return None
        return (contexts, (
            tuple(entry.learned_from for entry in ranked),
            tuple((route_server.export_control_communities(entry.attributes),
                   frozenset(asn for asn in entry.attributes.as_path.asns
                             if asn in participant_asns))
                  for entry in ranked)))

    grouped: Dict[Hashable, set] = {}
    for prefix in set().union(*map(route_server.announced_set, toward)):
        signature = signature_of(prefix)
        if signature is not None:
            grouped.setdefault(signature, set()).add(prefix)
    return {signature: frozenset(prefixes)
            for signature, prefixes in grouped.items()}

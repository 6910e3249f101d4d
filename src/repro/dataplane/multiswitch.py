"""Multi-switch SDX fabrics (Section 4.1's topology abstraction).

"More generally, the SDX may consist of multiple physical switches, each
connected to a subset of the participants. Fortunately, we can rely on
Pyretic's existing support for topology abstraction to combine a policy
written for a single SDX switch with another policy for routing across
multiple physical switches."

This module implements that combination directly: the SDX compiler keeps
emitting one *big-switch* classifier over global port numbers, and
:func:`partition_classifier` derives each physical switch's table from
it —

* rules whose ingress port lives on the switch are installed there;
* actions delivering to a port on another switch are rewritten to the
  trunk port of the next hop along the (precomputed shortest) path,
  with the frame's final destination preserved by the destination MAC
  the big-switch rule already stamped;
* every switch gets transit rules forwarding by destination MAC for
  frames arriving on trunk ports.

This works because the SDX's big-switch output always carries a unique
per-egress destination MAC (the receiving router port's address) — the
same invariant the single-switch data plane relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import FabricError
from repro.net.mac import MacAddress
from repro.policy.classifier import Action, Classifier, Rule
from repro.policy.headerspace import WILDCARD, HeaderSpace


@dataclass(frozen=True)
class TrunkLink:
    """A bidirectional inter-switch link: (switch, port) <-> (switch, port)."""

    left_switch: str
    left_port: int
    right_switch: str
    right_port: int

    def endpoint(self, switch: str) -> Optional[int]:
        """The trunk port on ``switch``, if this link touches it."""
        if switch == self.left_switch:
            return self.left_port
        if switch == self.right_switch:
            return self.right_port
        return None

    def other_end(self, switch: str) -> Tuple[str, int]:
        """The (switch, port) across the link from ``switch``."""
        if switch == self.left_switch:
            return self.right_switch, self.right_port
        if switch == self.right_switch:
            return self.left_switch, self.left_port
        raise FabricError(f"link {self} does not touch switch {switch!r}")


class SdxTopology:
    """Which switch owns which (globally numbered) edge port, plus trunks."""

    def __init__(self) -> None:
        self._switch_of_port: Dict[int, str] = {}
        self._switches: Set[str] = set()
        self._links: List[TrunkLink] = []

    def add_switch(self, name: str) -> None:
        """Declare a physical switch."""
        if name in self._switches:
            raise FabricError(f"switch {name!r} already declared")
        self._switches.add(name)

    def assign_port(self, port: int, switch: str) -> None:
        """Place global edge port ``port`` on ``switch``."""
        if switch not in self._switches:
            raise FabricError(f"unknown switch {switch!r}")
        if port in self._switch_of_port:
            raise FabricError(f"port {port} already assigned")
        self._switch_of_port[port] = switch

    def add_link(self, left_switch: str, left_port: int,
                 right_switch: str, right_port: int) -> None:
        """Connect two switches with a trunk link."""
        for name in (left_switch, right_switch):
            if name not in self._switches:
                raise FabricError(f"unknown switch {name!r}")
        if left_switch == right_switch:
            raise FabricError("a trunk link must join two distinct switches")
        for endpoint, switch in ((left_port, left_switch), (right_port, right_switch)):
            if endpoint in self._switch_of_port:
                raise FabricError(
                    f"trunk port {endpoint} collides with an edge port")
        self._links.append(TrunkLink(left_switch, left_port,
                                     right_switch, right_port))

    @property
    def switches(self) -> Tuple[str, ...]:
        """All declared switches, sorted."""
        return tuple(sorted(self._switches))

    @property
    def links(self) -> Tuple[TrunkLink, ...]:
        """All trunk links."""
        return tuple(self._links)

    def switch_of(self, port: int) -> str:
        """The switch owning edge port ``port``."""
        try:
            return self._switch_of_port[port]
        except KeyError:
            raise FabricError(f"edge port {port} not assigned to a switch") from None

    def edge_ports(self, switch: str) -> Tuple[int, ...]:
        """Edge ports on ``switch``, sorted."""
        return tuple(sorted(
            port for port, owner in self._switch_of_port.items()
            if owner == switch))

    def trunk_ports(self, switch: str) -> Tuple[int, ...]:
        """Trunk ports on ``switch``, sorted."""
        ports = []
        for link in self._links:
            endpoint = link.endpoint(switch)
            if endpoint is not None:
                ports.append(endpoint)
        return tuple(sorted(ports))

    def next_hops(self) -> Dict[Tuple[str, str], Tuple[str, int]]:
        """Shortest-path routing table between switches.

        Maps (from switch, to switch) to (neighbour switch, trunk port to
        use on the *from* switch). Computed by BFS; raises if the trunk
        graph is disconnected.
        """
        neighbours: Dict[str, List[Tuple[str, int]]] = {
            name: [] for name in self._switches}
        for link in self._links:
            neighbours[link.left_switch].append(
                (link.right_switch, link.left_port))
            neighbours[link.right_switch].append(
                (link.left_switch, link.right_port))
        table: Dict[Tuple[str, str], Tuple[str, int]] = {}
        for source in self._switches:
            # BFS from source.
            parent: Dict[str, Tuple[str, int]] = {}
            frontier = [source]
            seen = {source}
            while frontier:
                current = frontier.pop(0)
                for neighbour, via_port in neighbours[current]:
                    if neighbour in seen:
                        continue
                    seen.add(neighbour)
                    parent[neighbour] = (current, via_port)
                    frontier.append(neighbour)
            for target in self._switches:
                if target == source:
                    continue
                if target not in parent:
                    raise FabricError(
                        f"switches {source!r} and {target!r} are not connected")
                # Walk back to find the first hop out of source.
                node = target
                while parent[node][0] != source:
                    node = parent[node][0]
                table[(source, target)] = (node, parent[node][1])
        return table


def partition_classifier(big_switch: Classifier,
                         topology: SdxTopology) -> Dict[str, Classifier]:
    """Split a big-switch classifier into per-physical-switch tables.

    See the module docstring for the scheme. The result maps switch name
    to its classifier over *local* port numbers (edge ports keep their
    global numbers; trunk ports are as declared in the topology).
    """
    next_hops = topology.next_hops()
    tables: Dict[str, List[Rule]] = {name: [] for name in topology.switches}

    # Destination-MAC transit rules: collected from the big-switch rules'
    # final delivery actions (dstmac -> egress port).
    delivery_of_mac: Dict[MacAddress, int] = {}
    for rule in big_switch.rules:
        for action in rule.actions:
            egress = action.output_port
            dstmac = action.get("dstmac")
            if egress is not None and dstmac is not None:
                existing = delivery_of_mac.get(dstmac)
                if existing is not None and existing != egress:
                    raise FabricError(
                        f"dstmac {dstmac} delivered to two ports "
                        f"({existing} and {egress})")
                delivery_of_mac[dstmac] = egress

    for rule in big_switch.rules:
        homes = _ingress_switches(rule.match, topology)
        for home in homes:
            local_match = rule.match
            local_actions = []
            for action in rule.actions:
                egress = action.output_port
                if egress is None:
                    local_actions.append(action)
                    continue
                target_switch = topology.switch_of(egress)
                if target_switch == home:
                    local_actions.append(action)
                else:
                    _next, trunk_port = next_hops[(home, target_switch)]
                    assignments = dict(action)
                    assignments["port"] = trunk_port
                    local_actions.append(Action(**assignments))
            tables[home].append(Rule(local_match, tuple(local_actions)))

    # Transit rules: frames arriving on trunk ports forward by dstmac.
    for name in topology.switches:
        trunk_ports = topology.trunk_ports(name)
        if not trunk_ports:
            continue
        for dstmac, egress in sorted(delivery_of_mac.items()):
            target_switch = topology.switch_of(egress)
            if target_switch == name:
                out_port = egress
            else:
                _next, out_port = next_hops[(name, target_switch)]
            for trunk in trunk_ports:
                tables[name].append(Rule(
                    HeaderSpace(port=trunk, dstmac=dstmac),
                    (Action(port=out_port),)))

    partitioned: Dict[str, Classifier] = {}
    for name, rules in tables.items():
        rules.append(Rule(WILDCARD, ()))
        partitioned[name] = Classifier(rules)
    return partitioned


def _ingress_switches(match: HeaderSpace,
                      topology: SdxTopology) -> Tuple[str, ...]:
    """The switches where a big-switch rule must be installed.

    A rule pinned to one ingress port installs only on that port's
    switch; an ingress-wildcard rule (shared defaults, MAC-learning)
    installs everywhere.
    """
    port = match.get("port")
    if port is None:
        return topology.switches
    return (topology.switch_of(port),)


class MultiSwitchDataPlane:
    """Several software switches wired by trunks, processing as one fabric.

    Intended for verification: :meth:`process` carries a packet from its
    ingress edge port across however many switches the partitioned tables
    require, returning the final (edge port, packet) deliveries — which
    must equal what the big-switch classifier produces directly (a
    property the test suite checks).
    """

    def __init__(self, topology: SdxTopology,
                 tables: Dict[str, Classifier], max_hops: int = 8):
        self.topology = topology
        self.tables = tables
        self.max_hops = max_hops
        # trunk port -> (other switch, other port)
        self._peer_of_trunk: Dict[Tuple[str, int], Tuple[str, int]] = {}
        for link in topology.links:
            self._peer_of_trunk[(link.left_switch, link.left_port)] = (
                link.right_switch, link.right_port)
            self._peer_of_trunk[(link.right_switch, link.right_port)] = (
                link.left_switch, link.left_port)

    def process(self, packet) -> List[Tuple[int, "object"]]:
        """Deliveries at edge ports for a packet entering at its ``port``."""
        ingress = packet.port
        if ingress is None:
            raise FabricError("packet has no ingress port")
        switch = self.topology.switch_of(ingress)
        pending = [(switch, packet, 0)]
        deliveries: List[Tuple[int, object]] = []
        while pending:
            current_switch, current_packet, hops = pending.pop()
            if hops > self.max_hops:
                raise FabricError("forwarding loop across switches")
            table = self.tables[current_switch]
            rule = table.first_match(current_packet)
            if rule is None or rule.is_drop:
                continue
            for result in rule.apply(current_packet):
                egress = result.port
                if egress is None:
                    continue
                peer = self._peer_of_trunk.get((current_switch, egress))
                if peer is None:
                    deliveries.append((egress, result))
                else:
                    peer_switch, peer_port = peer
                    pending.append(
                        (peer_switch, result.at_port(peer_port), hops + 1))
        return deliveries

"""A software SDN switch: ports plus a flow table plus counters.

Mirrors the Open vSwitch instance of the paper's deployment (Section 5.2)
at the level the experiments need: rule-driven forwarding between
numbered ports with per-port statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import FabricError
from repro.net.packet import Packet
from repro.dataplane.flowtable import DEFAULT_PACKET_BYTES, FlowTable


@dataclass
class PortStats:
    """Packet and byte counters for one switch port."""

    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0


class SoftwareSwitch:
    """An OpenFlow-style switch with numbered ports.

    ``process`` takes a packet already stamped with its ingress ``port``
    field and returns ``(egress_port, packet)`` pairs after applying the
    flow table. Packets emitted on the ingress port are allowed (the SDX
    never generates them, but hairpinning is legal at an IXP).
    """

    def __init__(self, name: str = "sdx-switch"):
        self.name = name
        self.table = FlowTable()
        self._ports: Set[int] = set()
        self._stats: Dict[int, PortStats] = {}

    def add_port(self, port: int) -> None:
        """Register a port number."""
        if port in self._ports:
            raise FabricError(f"switch {self.name}: port {port} already exists")
        if port < 0:
            raise FabricError(f"switch {self.name}: negative port {port}")
        self._ports.add(port)
        self._stats[port] = PortStats()

    @property
    def ports(self) -> Tuple[int, ...]:
        """All registered port numbers, sorted."""
        return tuple(sorted(self._ports))

    def stats(self, port: int) -> PortStats:
        """Counters for ``port``."""
        try:
            return self._stats[port]
        except KeyError:
            raise FabricError(f"switch {self.name}: unknown port {port}") from None

    def process(self, packet: Packet, *,
                size_bytes: Optional[int] = None) -> List[Tuple[int, Packet]]:
        """Run one packet through the flow table.

        Returns the list of (egress port, rewritten packet) pairs; an
        empty list means the packet was dropped (by rule or table miss).
        ``size_bytes`` is threaded to the flow table's per-rule byte
        counters and the per-port byte stats.
        """
        ingress = packet.port
        if ingress is None or ingress not in self._ports:
            raise FabricError(f"switch {self.name}: packet on unknown port {ingress}")
        size = DEFAULT_PACKET_BYTES if size_bytes is None else size_bytes
        self._stats[ingress].rx_packets += 1
        self._stats[ingress].rx_bytes += size
        out: List[Tuple[int, Packet]] = []
        for result in self.table.process(packet, size_bytes=size):
            egress = result.port
            if egress is None or egress not in self._ports:
                # A rule forwarding to a non-existent port silently drops,
                # matching hardware behaviour.
                continue
            self._stats[egress].tx_packets += 1
            self._stats[egress].tx_bytes += size
            out.append((egress, result))
        return out

    def __repr__(self) -> str:
        return f"SoftwareSwitch({self.name!r}, {len(self._ports)} ports)"

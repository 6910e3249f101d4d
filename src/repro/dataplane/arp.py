"""ARP: address resolution for physical hosts and SDX virtual next hops.

The SDX controller "directs its own ARP server to respond to requests for
the VNH IP address with the corresponding VMAC" (Section 4.2). The
:class:`ArpService` therefore consults, in order:

1. static bindings for physical router ports at the exchange;
2. the SDX :class:`ArpResponder`, which owns the virtual next-hop space.

Participant border routers resolve BGP next hops exclusively through this
service — which is exactly the transparency trick that lets unmodified
routers tag packets with FEC VMACs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exceptions import FabricError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress


class ArpResponder:
    """The SDX-operated responder for virtual next-hop addresses.

    Bindings are installed by the VNH assigner; queries for addresses
    outside the VNH pool return ``None`` so the service can fall through
    to physical bindings.
    """

    def __init__(self, pool: IPv4Prefix, telemetry=None):
        self.pool = pool
        self._bindings: Dict[IPv4Address, MacAddress] = {}
        self.queries_answered = 0
        self._answered_counter = None
        self._miss_counter = None
        if telemetry is not None:
            self.bind_telemetry(telemetry)

    def bind_telemetry(self, telemetry) -> None:
        """Record resolution activity into ``telemetry``'s registry.

        Registers ``sdx_arp_queries_total`` (answered) and
        ``sdx_arp_misses_total`` — unanswerable queries for in-pool
        addresses, i.e. routers that could not resolve a VNH.
        """
        self._answered_counter = telemetry.registry.counter(
            "sdx_arp_queries_total", "VNH ARP queries answered")
        self._miss_counter = telemetry.registry.counter(
            "sdx_arp_misses_total",
            "ARP queries for in-pool addresses with no binding")

    def bind(self, vnh: IPv4Address, vmac: MacAddress) -> None:
        """Answer future queries for ``vnh`` with ``vmac``."""
        if not self.pool.contains_address(vnh):
            raise FabricError(f"VNH {vnh} outside responder pool {self.pool}")
        self._bindings[vnh] = vmac

    def replace(self, bindings: Dict[IPv4Address, MacAddress]) -> None:
        """Answer for exactly ``bindings`` (pairs drawn from the pool)."""
        self._bindings = dict(bindings)

    def unbind(self, vnh: IPv4Address) -> None:
        """Remove the binding for ``vnh`` (no-op if absent)."""
        self._bindings.pop(vnh, None)

    def owns(self, address: IPv4Address) -> bool:
        """True if ``address`` lies in the responder's VNH pool."""
        return self.pool.contains_address(address)

    def resolve(self, address: IPv4Address) -> Optional[MacAddress]:
        """The VMAC bound to ``address``, if any."""
        mac = self._bindings.get(address)
        if mac is not None:
            self.queries_answered += 1
            if self._answered_counter is not None:
                self._answered_counter.inc()
        elif self._miss_counter is not None and self.owns(address):
            self._miss_counter.inc()
        return mac

    def bindings(self) -> Dict[IPv4Address, MacAddress]:
        """A copy of every current binding."""
        return dict(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        return f"ArpResponder(pool={self.pool}, {len(self)} bindings)"


class ArpService:
    """The exchange-wide resolution service border routers query."""

    def __init__(self) -> None:
        self._static: Dict[IPv4Address, MacAddress] = {}
        self._responder: Optional[ArpResponder] = None

    def add_static(self, address: IPv4Address, mac: MacAddress) -> None:
        """Register a physical router-port address."""
        existing = self._static.get(address)
        if existing is not None and existing != mac:
            raise FabricError(f"conflicting static ARP binding for {address}")
        self._static[address] = mac

    def attach_responder(self, responder: ArpResponder) -> None:
        """Install the SDX VNH responder."""
        self._responder = responder

    def resolve(self, address: IPv4Address) -> Optional[MacAddress]:
        """Resolve ``address`` to a MAC, or ``None`` if nobody answers."""
        mac = self._static.get(address)
        if mac is not None:
            return mac
        if self._responder is not None:
            return self._responder.resolve(address)
        return None

    def __repr__(self) -> str:
        responder = "with responder" if self._responder else "no responder"
        return f"ArpService({len(self._static)} static, {responder})"

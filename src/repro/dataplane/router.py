"""Participant border routers: unmodified BGP routers at the exchange.

The SDX's data-plane scaling trick (Section 4.2) rides on what every
BGP-speaking router already does with a route: extract the next-hop IP,
resolve it with ARP, and install a FIB entry that *rewrites the
destination MAC* before emitting the packet. :class:`BorderRouter`
reproduces exactly that pipeline, so when the route server advertises a
virtual next hop and the SDX ARP responder answers with a virtual MAC,
packets arrive at the fabric already tagged with their forwarding
equivalence class — the router's own FIB acting as stage one of the
multi-stage FIB of Figure 2, with zero router modification.

With VNHs every router holding a route for a prefix is given the same
next hop, so the exchange keeps that stage once: one :class:`SharedTable`
of prefix → next hop (resolved once), which every router reads beneath an
*overlay* of its own — routes withheld from it, routes of its own whose
next hop differs, anything installed on it directly. A router answers
:meth:`~BorderRouter.emit` and :meth:`~BorderRouter.route_for` by the
longest match over both, the overlay first.

The router also enforces the realism check the paper calls out: a frame
whose destination MAC is not one of the router's interface MACs is
dropped ("Without rewriting, AS B would drop the traffic").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.bgp.messages import Update
from repro.bgp.rib import PrefixTrie
from repro.exceptions import FabricError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import Packet

#: Resolves an IP address to a MAC (wired to the fabric's ArpService).
Resolver = Callable[[IPv4Address], Optional[MacAddress]]


@dataclass
class RouterPort:
    """One physical interface of a border router at the exchange."""

    mac: MacAddress
    ip: IPv4Address
    switch_port: Optional[int] = None

    def __repr__(self) -> str:
        return f"RouterPort(mac={self.mac}, ip={self.ip}, port={self.switch_port})"


@dataclass(frozen=True)
class FibEntry:
    """A forwarding entry: next hop and the MAC to stamp on packets."""

    next_hop: IPv4Address
    dstmac: MacAddress
    egress_index: int


class SharedTable:
    """The routes every border router holding one is given: per prefix its
    next hop — the VNH of a tagged prefix — and, when that resolved, the
    FIB entry stamping its MAC. Written once per prefix; each router reads
    it beneath its own overlay."""

    def __init__(self) -> None:
        #: Prefix -> next hop, and prefix -> FIB entry where it resolved.
        self.rib: PrefixTrie[IPv4Address] = PrefixTrie()
        self.fib: PrefixTrie[FibEntry] = PrefixTrie()

    def install(self, prefix: IPv4Prefix, next_hop: IPv4Address,
                dstmac: Optional[MacAddress]) -> None:
        """Give ``prefix`` next hop ``next_hop``, resolved to ``dstmac``
        (``None``: unresolved — a route with no FIB entry)."""
        self.rib.insert(prefix, next_hop)
        if dstmac is None:
            self.fib.remove(prefix)
        else:
            self.fib.insert(prefix, FibEntry(next_hop, dstmac, 0))

    def withdraw(self, prefix: IPv4Prefix) -> None:
        """Nobody holds a route for ``prefix``."""
        self.rib.remove(prefix)
        self.fib.remove(prefix)

    def refresh(self, resolve: Callable[[IPv4Address],
                                        Optional[MacAddress]]) -> None:
        """Resolve every route's next hop again through ``resolve``: an
        entry written unresolved is mended, one that no longer resolves
        dropped."""
        for prefix, next_hop in list(self.rib.items()):
            self.install(prefix, next_hop, resolve(next_hop))

    def __len__(self) -> int:
        return len(self.rib)

    def __repr__(self) -> str:
        return f"SharedTable({len(self.rib)} routes, {len(self.fib)} resolved)"


class BorderRouter:
    """A BGP border router connected to the SDX fabric.

    Its own RIB and FIB are its *overlay*; beneath them it reads the
    exchange's :class:`SharedTable` (a fresh, empty one of its own if not
    given one), less the prefixes withheld from it (:meth:`withdraw_route`).
    """

    def __init__(self, name: str, asn: int, ports: List[RouterPort],
                 resolver: Optional[Resolver] = None,
                 shared: Optional[SharedTable] = None):
        if not ports:
            raise FabricError(f"router {name!r} needs at least one port")
        self.name = name
        self.asn = asn
        self.ports = ports
        self._resolver = resolver
        self.shared = shared if shared is not None else SharedTable()
        self._rib: PrefixTrie[IPv4Address] = PrefixTrie()
        self._fib: PrefixTrie[FibEntry] = PrefixTrie()
        # Shared prefixes the router does not read: withheld from it, or
        # overridden by a route of its own.
        self._hidden: Set[IPv4Prefix] = set()
        self._arp_cache: Dict[IPv4Address, MacAddress] = {}
        self._local: PrefixTrie[bool] = PrefixTrie()
        self.received: List[Packet] = []
        self.dropped_foreign_mac = 0
        self.fib_misses = 0

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def set_resolver(self, resolver: Resolver) -> None:
        """Wire the router to an ARP resolution service."""
        self._resolver = resolver

    def add_local_prefix(self, prefix: IPv4Prefix) -> None:
        """Mark a prefix as reachable inside this router's own AS."""
        self._local.insert(prefix, True)

    def local_prefixes(self) -> Tuple[IPv4Prefix, ...]:
        """Prefixes this AS hosts behind the router."""
        return tuple(sorted(self._local))

    def install_route(self, prefix: IPv4Prefix, next_hop: IPv4Address,
                      egress_index: int = 0) -> None:
        """Accept a route of its own and build its FIB entry (next-hop ARP
        included); it overrides the shared table's at ``prefix``."""
        if not 0 <= egress_index < len(self.ports):
            raise FabricError(f"router {self.name!r}: no port index {egress_index}")
        self._hidden.add(prefix)
        self._rib.insert(prefix, next_hop)
        dstmac = self._resolve(next_hop)
        if dstmac is None:
            # Unresolvable next hop: keep the route but no FIB entry,
            # as a real router would until ARP succeeds.
            self._fib.remove(prefix)
            return
        self._fib.insert(prefix, FibEntry(next_hop, dstmac, egress_index))

    def withdraw_route(self, prefix: IPv4Prefix) -> None:
        """Hold no route for ``prefix``: remove its own, and withhold the
        shared table's."""
        self._rib.remove(prefix)
        self._fib.remove(prefix)
        self._hidden.add(prefix)

    def follow_shared(self, prefix: IPv4Prefix) -> None:
        """Drop the overlay at ``prefix``: the router holds what the shared
        table holds there."""
        self._rib.remove(prefix)
        self._fib.remove(prefix)
        self._hidden.discard(prefix)

    def withdraw_all(self) -> None:
        """Hold no route at all, as a router whose route-server session is
        gone: drop its own routes and read an empty shared table of its
        own, not the exchange's."""
        self.shared = SharedTable()
        self._rib, self._fib = PrefixTrie(), PrefixTrie()
        self._hidden.clear()

    @property
    def overlay(self) -> FrozenSet[IPv4Prefix]:
        """The prefixes at which the router reads something other than the
        shared table: its own routes, and the shared ones withheld from it.
        Two routers on one shared table forward an address no prefix of
        their overlays covers alike."""
        return frozenset(self._hidden)

    def receive_update(self, update: Update) -> None:
        """Apply a route-server UPDATE to the RIB/FIB."""
        for withdrawal in update.withdrawals:
            self.withdraw_route(withdrawal.prefix)
        for announcement in update.announcements:
            self.install_route(announcement.prefix, announcement.attributes.next_hop)

    def _resolve(self, address: IPv4Address) -> Optional[MacAddress]:
        cached = self._arp_cache.get(address)
        if cached is not None:
            return cached
        if self._resolver is None:
            return None
        mac = self._resolver(address)
        if mac is not None:
            self._arp_cache[address] = mac
        return mac

    def flush_arp(self) -> None:
        """Drop the ARP cache (the SDX gratuitously re-ARPs on VNH moves)."""
        self._arp_cache.clear()

    def refresh_fib(self) -> None:
        """Re-resolve the next hop of every route it holds (after an ARP
        flush): its own, and the shared table's."""
        for prefix, next_hop in list(self._rib.items()):
            entry = self._fib.exact(prefix)
            egress = entry.egress_index if entry else 0
            self.install_route(prefix, next_hop, egress)
        self.shared.refresh(self._resolve)

    def _longest(self, own: PrefixTrie, shared: PrefixTrie,
                 address: IPv4Address) -> Optional[tuple]:
        """The longest match for ``address`` over the overlay trie ``own``
        and, beneath it, the shared table's ``shared``: a shared prefix the
        router withholds or holds a route of its own for does not count."""
        found = own.longest_match(address) if own else None
        if shared:
            for entry in shared.matching(address):
                if found is not None and entry[0].length <= found[0].length:
                    break
                if entry[0] not in self._hidden:
                    return entry
        return found

    def route_for(self, address: IPv4Address) -> Optional[IPv4Prefix]:
        """The most specific RIB prefix covering ``address``."""
        found = self._longest(self._rib, self.shared.rib, address)
        return found[0] if found else None

    def routes(self) -> Dict[IPv4Prefix, IPv4Address]:
        """Every route the router holds: prefix → next hop."""
        held = {prefix: next_hop
                for prefix, next_hop in self.shared.rib.items()
                if prefix not in self._hidden}
        held.update(self._rib.items())
        return held

    @property
    def fib_size(self) -> int:
        """Number of installed FIB entries."""
        return (len(self._fib) + len(self.shared.fib)
                - sum(1 for prefix in self._hidden if prefix in self.shared.fib))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def emit(self, packet: Packet) -> Optional[Packet]:
        """Forward a packet from inside the AS toward the exchange.

        Performs the longest-prefix FIB match on the destination address,
        stamps source/destination MACs, and locates the packet on the
        egress port. Returns ``None`` on a FIB miss (no route).
        """
        dstip = packet.get("dstip")
        if dstip is None:
            raise FabricError(f"router {self.name!r}: packet without dstip")
        found = self._longest(self._fib, self.shared.fib, dstip)
        if found is None:
            self.fib_misses += 1
            return None
        entry = found[1]
        port = self.ports[entry.egress_index]
        if port.switch_port is None:
            raise FabricError(f"router {self.name!r}: port not attached to fabric")
        return packet.modify(
            srcmac=port.mac, dstmac=entry.dstmac, port=port.switch_port)

    def receive(self, packet: Packet) -> bool:
        """Accept a frame from the fabric.

        Frames not addressed to one of this router's interface MACs are
        dropped — the check that makes the SDX's destination-MAC rewrite
        on egress mandatory. Returns True if the packet was accepted.
        """
        dstmac = packet.get("dstmac")
        if dstmac is None or all(port.mac != dstmac for port in self.ports):
            self.dropped_foreign_mac += 1
            return False
        self.received.append(packet)
        return True

    def hosts_address(self, address: IPv4Address) -> bool:
        """True if ``address`` belongs to a local prefix of this AS."""
        return self._local.longest_match(address) is not None

    def __repr__(self) -> str:
        return (f"BorderRouter({self.name!r}, AS{self.asn}, "
                f"{len(self.ports)} ports, fib={self.fib_size})")

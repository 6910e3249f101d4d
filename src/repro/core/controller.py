"""The top-level SDX controller (Figure 3).

:class:`SdxController` wires together every piece of the system:

* a :class:`~repro.bgp.routeserver.RouteServer` participants peer with;
* a simulated :class:`~repro.dataplane.fabric.Fabric` (switch + ARP +
  border routers) — optional, so control-plane-only experiments can scale
  to hundreds of participants without materialising routers;
* the :class:`~repro.core.compiler.SdxCompiler` and the two-stage
  :class:`~repro.core.incremental.IncrementalEngine`;
* VNH allocation and the ARP responder;
* the per-participant policy API (:mod:`repro.core.sdxpolicy`).

Event flow after :meth:`start`: a BGP update reaches the route server →
best-route changes fire the controller's listener → the incremental fast
path installs shadow rules and the new VNH is advertised to the affected
border routers → :meth:`run_background_recompilation` later swaps in the
optimal table (the paper runs this between update bursts; the simulation
makes it an explicit, deterministic call).

Every change of the main table — the start, a policy edit, an explicit or
background recompilation, degrade mode — is one *change transaction*
(:meth:`SdxController._transaction`), and whatever raises inside one is
undone by its one undo.
"""

from __future__ import annotations

import contextlib
import logging
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.bgp.rib import RouteEntry
from repro.bgp.routeserver import BestRouteChanges, RouteServer
from repro.core.compiler import CompilationResult, SdxCompiler
from repro.core.incremental import FastPathResult, IncrementalEngine
from repro.core.participant import Participant
from repro.core.sdxpolicy import OwnershipRegistry, ParticipantHandle
from repro.core.vnh import DEFAULT_VNH_POOL, VnhAllocator
from repro.core.vswitch import VirtualTopology
from repro.dataplane.fabric import Delivery, Fabric
from repro.dataplane.flowtable import FlowTable
from repro.dataplane.router import BorderRouter, RouterPort, SharedTable
from repro.exceptions import ParticipantError, StaticDataplaneError, StaticPolicyError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.southbound.engine import SouthboundConfig, SouthboundEngine
from repro.telemetry import Telemetry
from repro.telemetry.log import kv

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.runtime.clock import Clock
    from repro.runtime.loop import ControlPlaneRuntime, RuntimeConfig
    from repro.statics.dataplane import CommittedSpaces

logger = logging.getLogger("repro.core.controller")

#: The peering LAN participants' router ports live on.
PEERING_LAN = IPv4Prefix("172.0.0.0/16")

#: Base of the locally-administered MAC space used for router ports.
ROUTER_MAC_BASE = 0x02_00_00_00_00_00

#: Next-hop address used when a remote participant originates a prefix.
SDX_ORIGIN_IP = IPv4Address("172.0.255.254")

#: How many of the latest fast-path results ``fast_path_log`` keeps.
FAST_PATH_LOG_SIZE = 1024


@dataclass(frozen=True)
class ClausePreview:
    """What one clause of a previewed policy would do."""

    description: str
    eligible_prefixes: Optional[int]
    eligible_groups: Optional[int]


@dataclass(frozen=True)
class PolicyPreview:
    """A what-if report for a policy that was *not* installed."""

    participant: str
    direction: str
    clauses: List[ClausePreview]

    @property
    def estimated_rules(self) -> int:
        """Rough flow-rule cost: one rule per eligible group per clause
        (one rule flat for drop/inbound clauses)."""
        return sum(
            clause.eligible_groups if clause.eligible_groups is not None else 1
            for clause in self.clauses)

    def render(self) -> str:
        """A printable summary."""
        lines = [f"preview: {self.participant} ({self.direction}), "
                 f"{len(self.clauses)} clause(s)"]
        for index, clause in enumerate(self.clauses):
            extra = ""
            if clause.eligible_prefixes is not None:
                extra = (f"  [{clause.eligible_prefixes} eligible prefixes"
                         + (f", {clause.eligible_groups} groups"
                            if clause.eligible_groups is not None else "")
                         + "]")
            lines.append(f"  #{index}: {clause.description}{extra}")
        return "\n".join(lines)


class SdxController:
    """The SDX: route server + policy compiler + (optional) data plane."""

    def __init__(self, *, use_vnh: bool = True, optimized: bool = True,
                 with_dataplane: bool = True, reduce_table: bool = True,
                 vnh_pool: IPv4Prefix = DEFAULT_VNH_POOL,
                 southbound_config: Optional[SouthboundConfig] = None,
                 telemetry: Optional[Telemetry] = None,
                 statics_mode: str = "off",
                 dataplane_statics_mode: str = "off"):
        # Imported lazily, like the verifier below, so repro.core keeps no
        # hard dependency on repro.statics.
        from repro.statics.diagnostics import gate_mode
        self.statics_mode = gate_mode(statics_mode)
        self.dataplane_statics_mode = gate_mode(
            dataplane_statics_mode, "dataplane_statics_mode")
        self.last_statics_report = None
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.route_server = RouteServer(telemetry=self.telemetry)
        self.topology = VirtualTopology()
        self.allocator = VnhAllocator(vnh_pool, telemetry=self.telemetry)
        self.fabric: Optional[Fabric] = Fabric() if with_dataplane else None
        if self.fabric is not None:
            self.fabric.arp.attach_responder(self.allocator.responder)
        #: The border routers' one table of what every router holding a
        #: route for a prefix is given; :meth:`_advertise_routers` writes
        #: it, and each router's overlay where that router is given
        #: something else (``_overlaid``: prefix -> those routers).
        self.shared_routes = SharedTable()
        self._overlaid: Dict[IPv4Prefix, List[BorderRouter]] = {}
        #: Every member's border router by name; and the peer-name snapshot
        #: the last push read, with the routers of members not among them.
        self._routers: Dict[str, BorderRouter] = {}
        self._absent: Tuple[Optional[frozenset], List[BorderRouter]] = (
            None, [])
        self._advertisements = {
            op: self.telemetry.registry.counter(
                "sdx_router_advertisements_total",
                "(prefix, border router) routes given (install) or taken "
                "away (withdraw) by re-advertisement", op=op)
            for op in ("install", "withdraw")}
        self.table: FlowTable = (
            self.fabric.switch.table if self.fabric is not None else FlowTable())
        self.table.bind_telemetry(self.telemetry)
        self.southbound = SouthboundEngine(self.table, southbound_config,
                                           telemetry=self.telemetry)
        self.compiler = SdxCompiler(
            self.topology, self.route_server, self.allocator,
            use_vnh=use_vnh, optimized=optimized, reduce_table=reduce_table,
            telemetry=self.telemetry)
        self.engine = IncrementalEngine(
            self.compiler, self.southbound, self.telemetry)
        self.dataplane_verifier = None
        self._committed: Optional["CommittedSpaces"] = None
        self._committed_at: Optional[List[int]] = None
        self._advertised_at: Optional[List[int]] = None
        if dataplane_statics_mode != "off":
            # Verifies every southbound apply window against the installed
            # table (SDX010-SDX014); strict mode raises StaticDataplaneError
            # for a window that introduces an error, which undoes the change.
            from repro.statics.dataplane import DataplaneVerifier
            self.dataplane_verifier = DataplaneVerifier(
                self.table,
                committed_spaces=self._committed_spaces,
                vmac_index=lambda: self.allocator.live_vmacs,
                mode=dataplane_statics_mode,
                telemetry=self.telemetry)
            self.southbound.add_observer(self.dataplane_verifier)
        self.ownership = OwnershipRegistry()
        self.started = False
        #: The latest fast-path results, newest last — a window, not a
        #: history: memory stays flat however long the controller runs.
        self.fast_path_log: Deque[FastPathResult] = deque(
            maxlen=FAST_PATH_LOG_SIZE)
        self._handles: Dict[str, ParticipantHandle] = {}
        self._next_switch_port = 1
        self._next_host = 1
        self._next_mac = 1
        self.route_server.add_update_listener(self._on_update)
        self.route_server.set_next_hop_rewriter(self._rewrite_next_hop)

    def _changed_since(self, versions: Optional[List[int]]
                       ) -> Tuple[List[int], Optional[set]]:
        """The versions of the route server's and the allocator's change
        logs now, and the prefixes either names since ``versions`` — whose
        routes or whose tag moved; ``None`` when either cannot say."""
        logs = (self.route_server.rib_changes, self.allocator.changes)
        named = [None] if versions is None else [
            log.since(version) for log, version in zip(logs, versions)]
        return ([log.version for log in logs],
                None if None in named else set().union(*named))

    def _committed_spaces(self) -> "CommittedSpaces":
        """Committed-traffic spaces, kept per prefix.

        Deriving the population builds a space for every tagged prefix —
        far too hot to redo on every FlowMod delta the dataplane verifier
        checks. A prefix's space only changes when its routes or its tag
        do, so only the prefixes a change log names since the last call are
        derived again; everything, when a log cannot say. What that moved is on the
        result's own change log, which the verifier reads.
        """
        from repro.statics.dataplane import CommittedSpaces

        if self._committed is None:
            self._committed = CommittedSpaces()
        self._committed_at, changed = self._changed_since(self._committed_at)
        self._committed.update(self, changed)
        return self._committed

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, participants: Mapping[str, int], **kwargs) -> "SdxController":
        """Convenience constructor: one single-port participant per entry."""
        controller = cls(**kwargs)
        for name, asn in participants.items():
            controller.add_participant(name, asn)
        return controller

    def add_participant(self, name: str, asn: int, *, ports: int = 1,
                        local_prefixes: Iterable[IPv4Prefix] = (),
                        announce: bool = True) -> ParticipantHandle:
        """Register a participant with ``ports`` physical interfaces.

        ``ports=0`` creates a *remote* participant (virtual switch only).
        ``local_prefixes`` are registered in the ownership registry and —
        for physical participants with ``announce=True`` — announced to
        the route server with the participant's port address as next hop.
        """
        prefixes = tuple(local_prefixes)
        router: Optional[BorderRouter] = None
        if ports > 0:
            router_ports = [self._allocate_port() for _ in range(ports)]
            router = BorderRouter(name, asn, router_ports,
                                  shared=self.shared_routes)
            for prefix in prefixes:
                router.add_local_prefix(prefix)
        participant = Participant(
            name=name, asn=asn, router=router, local_prefixes=prefixes)
        if router is not None and self.fabric is not None:
            for index in range(ports):
                self.fabric.attach(router, index, self._next_switch_port)
                self._next_switch_port += 1
        elif router is not None:
            # Control-plane-only mode: assign switch ports without a fabric.
            for port in router.ports:
                port.switch_port = self._next_switch_port
                self._next_switch_port += 1
        self.topology.register(participant)
        if router is not None:
            self._routers[name] = router
            self._absent = (None, [])
        self.route_server.add_peer(name, asn)
        handle = ParticipantHandle(participant, self)
        self._handles[name] = handle
        for prefix in prefixes:
            self.ownership.register(prefix, name)
        if self.started:
            # A new peer moves decisions anywhere: every router, the new
            # one too, holds what it is now given.
            self._advertise_moved()
        if announce and router is not None:
            for prefix in prefixes:
                self.announce_route(name, prefix, AsPath([asn]))
        return handle

    def _allocate_port(self) -> RouterPort:
        mac = MacAddress(ROUTER_MAC_BASE + self._next_mac)
        ip = PEERING_LAN.first_address + self._next_host
        self._next_mac += 1
        self._next_host += 1
        if not PEERING_LAN.contains_address(ip):
            raise ParticipantError("peering LAN exhausted")
        return RouterPort(mac=mac, ip=ip)

    def participant(self, name: str) -> ParticipantHandle:
        """The policy handle of participant ``name``."""
        try:
            return self._handles[name]
        except KeyError:
            raise ParticipantError(f"unknown participant {name!r}") from None

    def participants(self) -> Tuple[ParticipantHandle, ...]:
        """Every participant handle, sorted by name."""
        return tuple(self._handles[name] for name in sorted(self._handles))

    # ------------------------------------------------------------------
    # Routing input
    # ------------------------------------------------------------------

    def announce_route(self, name: str, prefix: IPv4Prefix,
                       as_path: AsPath, *,
                       med: int = 0, local_pref: int = 100,
                       communities: Iterable[Tuple[int, int]] = ()) -> None:
        """Have participant ``name`` announce ``prefix`` to the SDX.

        Models both locally originated prefixes and transit routes learned
        upstream (longer AS paths). ``communities`` may carry route-server
        export-control values — ``(0, peer-asn)`` withholds the route from
        one peer (see :class:`~repro.bgp.routeserver.RouteServer`). Before
        :meth:`start` the announcement takes the bulk-load path (no
        diffing); afterwards it flows through the live update pipeline.
        """
        participant = self.topology.participant(name)
        next_hop = (participant.ports[0].ip if not participant.is_remote
                    else SDX_ORIGIN_IP)
        attributes = RouteAttributes(
            next_hop=next_hop, as_path=as_path, med=med,
            local_pref=local_pref, communities=frozenset(communities))
        update = Update.announce(name, prefix, attributes)
        self.submit_update(update)

    def withdraw_route(self, name: str, prefix: IPv4Prefix) -> None:
        """Have participant ``name`` withdraw ``prefix``."""
        self.submit_update(Update.withdraw(name, prefix))

    def submit_update(self, update: Update) -> None:
        """Deliver one BGP update into the SDX. It is a fact: the route
        server keeps it even if reacting to it fails (a listener raises, a
        strict dataplane gate refuses the fast path's window) — what was
        derived from it is undone, and the next background recompilation
        picks the prefix up."""
        if not self.started:
            self.route_server.bulk_load([update])
            return
        try:
            self._transaction(None, lambda: self.route_server.submit(update))
        except BaseException:
            self.engine.dirty = True
            raise

    def load_routes(self, updates: Iterable[Update]) -> int:
        """Bulk-load an initial routing table (pre-start only path)."""
        return self.route_server.bulk_load(updates)

    def originate(self, name: str, prefix: IPv4Prefix,
                  as_path: Optional[AsPath] = None) -> None:
        """Originate ``prefix`` on behalf of ``name`` (ownership-checked)."""
        self.ownership.verify(name, prefix)
        participant = self.topology.participant(name)
        self.announce_route(name, prefix,
                            as_path if as_path is not None else AsPath([participant.asn]))

    def withdraw_origination(self, name: str, prefix: IPv4Prefix) -> None:
        """Withdraw a previously originated prefix."""
        self.withdraw_route(name, prefix)

    def register_ownership(self, prefix: IPv4Prefix, name: str) -> None:
        """Record address-space ownership (the RPKI stand-in)."""
        self.ownership.register(prefix, name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def last_compilation(self) -> Optional[CompilationResult]:
        """The compilation whose table is installed."""
        return self.engine.installed

    def lint_policies(self, *, enforce: bool = False):
        """Run the static policy verifier over the current state — of the
        exchange, or (this is ``FederatedController.lint_policies`` too) of
        the federation, SDX008/SDX009 included.

        Returns the :class:`~repro.statics.diagnostics.StaticsReport`
        (also stored as ``last_statics_report``); error-severity findings
        are logged and, with ``enforce=True``, raise
        :class:`~repro.exceptions.StaticPolicyError`.
        """
        from repro.statics import analyze_controller, diagnostics

        report = analyze_controller(self, telemetry=self.telemetry)
        self.last_statics_report = report
        diagnostics.enforce(report.errors, "statics",
                            StaticPolicyError if enforce else None, report)
        return report

    def lint_dataplane(self, *, enforce: bool = False):
        """Run the dataplane verifier over the installed flow table.

        One-shot SDX010-SDX013 analysis of what is in the table right
        now, against live allocator and routing state (the continuous
        per-window gate is ``dataplane_statics_mode``). With
        ``enforce=True``, error-severity findings raise
        :class:`~repro.exceptions.StaticDataplaneError`.
        """
        from repro.statics import analyze_controller_dataplane, diagnostics

        report = analyze_controller_dataplane(self)
        diagnostics.enforce(report.errors, "dataplane statics",
                            StaticDataplaneError if enforce else None, report)
        return report

    def _transaction(self, span: Optional[str],
                     stage: Optional[Callable[[], object]] = None,
                     participants: Sequence[Participant] = (),
                     gate: Optional[object] = None
                     ) -> Optional[CompilationResult]:
        """One change, whole or not at all: the only compile-and-install
        sequence there is, under the one undo.

        *Stage*: ``stage()`` edits the policies of ``participants``, or
        takes a BGP update in; a start or a recompilation stages nothing.
        *Admit*: the policy gate of ``gate`` — this controller, or its
        federation — refuses an edit that introduces an error finding, a
        start any that stands (:func:`repro.statics.diagnostics.admit`).
        *Compile*, under ``span`` (an update has none: its background swap
        comes later; nor has an edit before :meth:`start`). *Southbound
        window*: the new rules go in, the border routers are re-pointed at
        the next hops that moved, only then are the superseded rules
        deleted — every packet follows the old path or the new one
        throughout — and the dataplane gate judges each half. *Commit* is
        getting that far: whatever raises first, the participants'
        policies, all :meth:`IncrementalEngine.atomic` covers and the
        border routers' tables are as before. Only the RIB and the change
        logs keep what happened; the logs name the prefixes that moved and
        moved back, so who follows them re-derives a few too many, never
        one too few.
        """
        def put(states: list) -> None:
            for participant, state in states:
                participant.restore_policy_state(state)

        @contextlib.contextmanager
        def unstaged() -> Iterator[None]:
            staged = [(p, p.policy_state()) for p in participants]
            put(before)
            try:
                yield
            finally:
                put(staged)

        before = [(p, p.policy_state()) for p in participants]
        advertised = self._advertised_at
        try:
            with self.engine.atomic():
                if stage is not None:
                    stage()
                if gate is not None:
                    from repro.statics.diagnostics import admit
                    admit(gate, unstaged if stage is not None else None)
                if span is None or not (self.started
                                        or span == "controller.start"):
                    return None
                with self.telemetry.span(span):
                    result = self.compiler.compile()
                    self.engine.install_full(
                        result, before_deletes=self._advertise_moved)
        except BaseException:
            put(before)
            self._advertised_at = advertised
            if self.started:
                self._advertise_moved()  # from the old marker: what moved
            raise
        self.started = True
        logger.info("%s %s", span, kv(
            participants=len(self._handles), rules=len(self.table),
            groups=result.prefix_group_count, seconds=result.total_seconds))
        return result

    def start(self) -> CompilationResult:
        """Admit the configured policies, compile and install the initial
        table, then advertise routes."""
        return self._transaction("controller.start", gate=self)

    def recompile(self) -> Optional[CompilationResult]:
        """Force a full recompilation and a consistency-preserving table
        swap (:meth:`_transaction`); nothing, before :meth:`start`."""
        return self._transaction("controller.recompile")

    def run_background_recompilation(self) -> Optional[CompilationResult]:
        """The background stage of the two-stage update path: if the fast
        path left anything behind, the same :meth:`_transaction` re-groups
        prefixes, swaps the optimal table in, reclaims fast-path rules and
        ephemeral VNHs, and re-advertises next hops that moved."""
        return self.engine.background_recompile(
            lambda: self._transaction("recompile"))

    # ------------------------------------------------------------------
    # Degrade mode (runtime overload)
    # ------------------------------------------------------------------

    @property
    def policies_suspended(self) -> bool:
        """True while degrade mode has participant policies masked."""
        return any(
            p.policies_suspended for p in self.topology.participants())

    def suspend_policies(self) -> bool:
        """Fall back to default-BGP-route-only forwarding (degrade mode).

        Every participant's policies are masked (not forgotten) and the
        table is recompiled without them, so subsequent per-update work
        composes no policy clauses at all. The runtime's ``degrade``
        overload policy enters this state under sustained queue
        saturation; :meth:`restore_policies` is the exit. Returns True
        if anything actually changed.
        """
        return self._set_policies_suspended(True)

    def restore_policies(self) -> bool:
        """Re-enable suspended policies and recompile them back in."""
        return self._set_policies_suspended(False)

    def _set_policies_suspended(self, suspended: bool) -> bool:
        participants = [p for p in self.topology.participants()
                        if p.policies_suspended != suspended]
        if participants:
            logger.info("degrade %s", kv(
                policies="suspended" if suspended else "restored"))
            self._transaction(
                "controller.recompile",
                lambda: [p.set_policies_suspended(suspended)
                         for p in participants], participants)
        return bool(participants)

    def build_runtime(self, config: Optional["RuntimeConfig"] = None,
                      clock: Optional["Clock"] = None) -> "ControlPlaneRuntime":
        """Construct a control-plane runtime fronting this controller.

        Imported lazily so :mod:`repro.core` keeps no hard dependency on
        :mod:`repro.runtime` (which imports core itself).
        """
        from repro.runtime.loop import ControlPlaneRuntime
        return ControlPlaneRuntime(self, config=config, clock=clock)

    # ------------------------------------------------------------------
    # Route advertisement toward border routers
    # ------------------------------------------------------------------

    def _rewrite_next_hop(self, prefix: IPv4Prefix,
                          route: RouteEntry) -> IPv4Address:
        vnh = self.allocator.next_hop_for_prefix(prefix)
        return vnh if vnh is not None else route.attributes.next_hop

    def _advertise_moved(self) -> None:
        """Bring every border router's table up to date: push what the
        change logs name since the last push — a route or a VNH that moved,
        an ephemeral reclaimed, a stuck route nobody was told about — and
        every prefix the first time or when a log cannot say."""
        if self.fabric is None:
            return
        self._advertised_at, changed = self._changed_since(self._advertised_at)
        with self.telemetry.span("controller.advertise"):
            self._advertise_routers(self.route_server.all_prefixes()
                                    if changed is None else changed)

    def _advertise_routers(self, prefixes: Iterable[IPv4Prefix]) -> None:
        """Give every border router its route for each of ``prefixes``, as
        the route server's decision for it says. The shared table takes the
        next hop every router holding a route is given — the prefix's VNH,
        or an untagged prefix's best route's own — and only a router given
        something else takes an overlay entry: no route, or an untagged
        prefix's other route. What a route server would send per (prefix,
        router) is counted, not done: a prefix costs its exceptions, not
        the membership."""
        routers = self._routers
        resolve = self.fabric.arp.resolve
        given = taken = 0
        for prefix in prefixes:
            for router in self._overlaid.pop(prefix, ()):
                router.follow_shared(prefix)
            decision = self.route_server.decide(prefix)
            best = decision.best
            if best is None:
                self.shared_routes.withdraw(prefix)
                taken += len(routers)
                continue
            vnh = self.allocator.next_hop_for_prefix(prefix)
            next_hop = vnh if vnh is not None else best.attributes.next_hop
            self.shared_routes.install(prefix, next_hop, resolve(next_hop))
            if decision.peers is not self._absent[0]:
                self._absent = (decision.peers, [
                    router for name, router in routers.items()
                    if name not in decision.peers])
            withheld = list(self._absent[1])
            other = []
            for name, route in decision.exceptions.items():
                router = routers.get(name)
                if router is None:
                    continue
                if route is None:
                    withheld.append(router)
                elif (vnh is None
                      and route.attributes.next_hop != next_hop):
                    router.install_route(prefix, route.attributes.next_hop)
                    other.append(router)
            for router in withheld:
                router.withdraw_route(prefix)
            if withheld or other:
                self._overlaid[prefix] = withheld + other
            given += len(routers) - len(withheld)
            taken += len(withheld)
        self._advertisements["install"].inc(given)
        self._advertisements["withdraw"].inc(taken)

    def _on_update(self, update: Update, changes: BestRouteChanges) -> None:
        if not self.started:
            return
        prefixes = tuple(dict.fromkeys(update.prefixes))
        with self.telemetry.span("controller.update",
                                 prefixes=len(prefixes),
                                 changes=len(changes)):
            fast = self.engine.handle_prefixes(prefixes)
            self.fast_path_log.append(fast)
            # Session-level re-advertisement (what ExaBGP puts on the wire).
            self.route_server.readvertise(changes)
            if self.fabric is None:
                return
            # Push the touched prefixes to every border router: even
            # participants whose best route is unchanged must learn the
            # fresh VNH so their tags line up with the fast-path rules —
            # one shared-table write per prefix gives it them all.
            self._advertise_routers(prefixes)
            if not self.route_server.is_peer(update.sender):
                # The sender left the route server: its router is given
                # nothing, every prefix it held included, and is no longer
                # pushed to.
                router = self._routers.pop(update.sender, None)
                if router is not None:
                    self._advertisements["withdraw"].inc(len(router.routes()))
                    router.withdraw_all()
                    self._absent = (None, [])
                    for prefix, held in list(self._overlaid.items()):
                        if router in held:
                            held.remove(router)
                            if not held:
                                del self._overlaid[prefix]

    # ------------------------------------------------------------------
    # What-if preview
    # ------------------------------------------------------------------

    def preview_policy(self, name: str, policy, *,
                       direction: str = "out") -> "PolicyPreview":
        """Validate a policy and estimate its data-plane cost — without
        installing anything.

        Per clause: the prefixes eligible toward its target and, when a
        compilation exists, how many prefix groups (≈ flow rules) the
        clause would add. Raises the same errors installation would.
        """
        participant = self.topology.participant(name)
        clauses = participant.validate_policy(policy, inbound=direction == "in")
        rows: List[ClausePreview] = []
        groups = (self.last_compilation.groups
                  if self.last_compilation is not None else ())
        for clause in clauses:
            eligible = None
            group_count = None
            if direction == "out" and not clause.drops:
                target = str(clause.target)
                if target not in self.topology.names():
                    raise ParticipantError(
                        f"policy forwards to unknown participant {target!r}")
                eligible = len(self.route_server.reachable_prefixes(
                    name, via=target))
                group_count = sum(
                    1 for group in groups
                    if (name, target) in group.contexts)
            rows.append(ClausePreview(
                description=clause.describe(),
                eligible_prefixes=eligible,
                eligible_groups=group_count))
        return PolicyPreview(participant=name, direction=direction,
                             clauses=rows)

    # ------------------------------------------------------------------
    # Traffic (simulation convenience)
    # ------------------------------------------------------------------

    def send(self, name: str, packet: Packet, *,
             size_bytes: Optional[int] = None) -> List[Delivery]:
        """Source a packet from inside participant ``name``'s AS.

        ``size_bytes`` attributes that volume to data-plane byte counters
        (see :mod:`repro.monitoring`); ``None`` means a default-size packet.
        """
        if self.fabric is None:
            raise ParticipantError("controller built without a data plane")
        return self.fabric.originate(name, packet, size_bytes=size_bytes)

    def egress_of(self, name: str, packet: Packet) -> Optional[str]:
        """Which participant a packet from ``name`` exits through.

        Returns ``None`` when the packet is dropped anywhere along the
        path (router FIB miss, switch drop, or MAC-mismatch refusal).
        """
        deliveries = self.send(name, packet)
        accepted = [d.participant for d in deliveries if d.accepted]
        return accepted[0] if accepted else None

    def summary(self) -> Dict[str, int]:
        """A status snapshot for dashboards and logs.

        Counts participants (physical/remote), installed policies, flow
        rules, prefix groups, live ephemeral VNHs, fast-path rule debt,
        and route-server activity.
        """
        participants = self.topology.participants()
        return {
            "participants": len(participants),
            "remote_participants": sum(1 for p in participants if p.is_remote),
            "policies": sum(
                len(p.outbound_policies) + len(p.inbound_policies)
                for p in participants),
            "announced_prefixes": len(self.route_server.all_prefixes()),
            "flow_rules": len(self.table),
            "prefix_groups": (self.last_compilation.prefix_group_count
                              if self.last_compilation else 0),
            "ephemeral_vnhs": len(self.allocator.ephemeral_prefixes()),
            "fast_path_rules": self.engine.fast_path_rules_live,
            "updates_processed": self.route_server.updates_processed,
            "flowmods_sent": self.southbound.stats.mods_sent,
            "flowmods_coalesced": self.southbound.stats.mods_coalesced,
        }

    def __repr__(self) -> str:
        state = "started" if self.started else "configured"
        return (f"SdxController({len(self._handles)} participants, {state}, "
                f"{len(self.table)} rules)")

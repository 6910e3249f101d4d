"""The SDX route server (Section 3.2 / Figure 3, right pipeline).

Participants peer with the route server exactly as at a conventional IXP:
they send UPDATE messages, and the server selects one best route per
prefix *on behalf of each participant* and re-advertises it. Two SDX
extensions sit on top of the conventional behaviour:

* every best-route change is reported to registered listeners (the SDX
  policy compiler subscribes, Section 5.1);
* outgoing announcements pass through a next-hop rewriter hook, which the
  SDX uses to substitute the virtual next-hop (VNH) of the prefix's
  forwarding equivalence class (Section 4.2).

The server keeps what it ranked and what it decided. Every RIB write goes
through :meth:`RouteServer._apply`, which re-ranks the prefixes it changed
into the Loc-RIB — per prefix, every announced route, best first — and
stamps each stored route with its *export class*: what of it the export
check reads. :meth:`RouteServer.decide` turns a prefix's ranking into a
:class:`Decision`, a partition of the receivers in which everyone gets the
best route except the few it may not be exported to, who fall through to
the next one, and keeps it until a write re-ranks the prefix or a peering
or export-policy change could move any answer. Ingest diffs two partitions
and reports them per prefix (:class:`BestRouteChanges`, a per-peer view
expanded only when read), re-advertisement sends one shared UPDATE per
cell, a one-receiver read (:meth:`~RouteServer.best_route_for`) takes the
first entry of the same ranking it may have, and FEC grouping asks its
questions once per distinct tuple of ranked classes instead of once per
prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import (
    Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Mapping,
    Optional, Sequence, Set, Tuple)

from repro.bgp.decision import rank_routes
from repro.bgp.messages import Update, Withdrawal
from repro.bgp.rib import (
    AdjRibIn, ChangeLog, RibView, RouteEntry, changelog_unknown_counter)
from repro.bgp.session import BgpSession
from repro.exceptions import BgpError, ParticipantError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.telemetry import Telemetry

#: Hook rewriting the next hop of a re-advertised route. Receives (prefix,
#: chosen route) and returns the next-hop address to announce — the same
#: for every receiver of that route, since a VNH belongs to the prefix's
#: forwarding equivalence class (Section 4.2), not to a receiver.
NextHopRewriter = Callable[[IPv4Prefix, RouteEntry], IPv4Address]

#: Listener invoked with the per-participant best-route changes caused by
#: one inbound update.
ChangeListener = Callable[["BestRouteChanges"], None]

#: Listener invoked with (update, best-route changes) for *every* processed
#: update, even when no best route changed. The SDX needs this because an
#: announcement can change policy *eligibility* (which next hops may carry
#: a prefix) without moving anyone's best route.
UpdateListener = Callable[["Update", "BestRouteChanges"], None]


@dataclass(frozen=True)
class BestRouteChange:
    """One participant's best route for one prefix changed."""

    participant: str
    prefix: IPv4Prefix
    old: Optional[RouteEntry]
    new: Optional[RouteEntry]

    def __repr__(self) -> str:
        def render(entry: Optional[RouteEntry]) -> str:
            return "none" if entry is None else f"via {entry.learned_from}"
        return (f"BestRouteChange({self.participant}: {self.prefix} "
                f"{render(self.old)} -> {render(self.new)})")


@dataclass(frozen=True, slots=True)
class Decision:
    """The decision process's answer for one prefix, for every receiver.

    ``ranked`` holds every announced route, best first. Each of ``peers``
    (a snapshot of the peer names, so a decision held past a peering
    change stays what it was) receives ``ranked[0]`` except the keys of
    ``exceptions`` — its announcer, peers whose AS is on its path, peers
    its export policy or communities exclude — which map to the first
    later route they may have (``None`` when there is none).
    """

    ranked: Tuple[RouteEntry, ...]
    exceptions: Mapping[str, Optional[RouteEntry]]
    peers: FrozenSet[str]

    @property
    def best(self) -> Optional[RouteEntry]:
        """The route every non-excepted peer receives."""
        return self.ranked[0] if self.ranked else None

    def route_for(self, receiver: str) -> Optional[RouteEntry]:
        """The route ``receiver`` is given (``None`` for a non-peer)."""
        if receiver in self.exceptions:
            return self.exceptions[receiver]
        return self.best if receiver in self.peers else None


#: One moved prefix of a :class:`BestRouteChanges`: the prefix, the common
#: cell's (old, new) route when it moved (else ``None``), every peer either
#: decision excepts, and those of them whose own route moved, with it.
_Moved = Tuple[IPv4Prefix,
               Optional[Tuple[Optional[RouteEntry], Optional[RouteEntry]]],
               FrozenSet[str],
               Dict[str, Tuple[Optional[RouteEntry], Optional[RouteEntry]]]]


class BestRouteChanges:
    """The per-participant best-route changes of one RIB write, kept per
    prefix: each moved prefix's (old, new) :class:`Decision` pair.

    A lazy per-peer view over those pairs. Iterating it yields one
    :class:`BestRouteChange` per participant whose route moved — peer by
    peer in peering order (``peers``), each peer's in the order the write
    touched its prefixes; ``len`` counts them off the common cells and the
    exceptions, without expanding; it compares equal to the list of the
    same changes.
    """

    __slots__ = ("peers", "_moved", "_len")

    def __init__(self, peers: Tuple[str, ...] = (),
                 pairs: Iterable[Tuple[IPv4Prefix, Decision, Decision]] = ()):
        self.peers = peers
        self._moved: List[_Moved] = []
        self._len = 0
        for prefix, old, new in pairs:
            excepted = frozenset(old.exceptions.keys() | new.exceptions.keys())
            common = (old.best, new.best) if old.best != new.best else None
            movers = {
                peer: (was, now) for peer in sorted(excepted)
                if peer in new.peers
                and (was := old.route_for(peer)) != (now := new.route_for(peer))}
            if common is None and not movers:
                continue
            self._moved.append((prefix, common, excepted, movers))
            self._len += len(movers)
            if common is not None:  # every peer but the excepted moves with it
                self._len += len(peers) - len(excepted & new.peers)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator["BestRouteChange"]:
        for peer in self.peers:
            for prefix, common, excepted, movers in self._moved:
                if peer in excepted:
                    if peer in movers:
                        yield BestRouteChange(peer, prefix, *movers[peer])
                elif common is not None:
                    yield BestRouteChange(peer, prefix, *common)

    def by_route(self) -> Iterator[Tuple[IPv4Prefix, Optional[RouteEntry],
                                         Sequence[str]]]:
        """Per moved prefix, each route it now gives and to whom: the
        common cell's once, to its peers in peering order, then each moved
        exception's own, by name — so each peer is given its prefixes in
        :meth:`__iter__`'s order."""
        for prefix, common, excepted, movers in self._moved:
            if common is not None:
                yield prefix, common[1], [
                    peer for peer in self.peers if peer not in excepted]
            for peer, (_was, now) in movers.items():
                yield prefix, now, (peer,)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BestRouteChanges, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"BestRouteChanges({self._len} changes over "
                f"{len(self._moved)} prefixes)")


#: ASN conventionally used in blocking communities ("0:peer-asn").
BLOCK_COMMUNITY_ASN = 0

#: The export-control communities of most routes: none.
NO_COMMUNITIES: frozenset = frozenset()


class RouteServer:
    """A multi-participant BGP route server with SDX hooks.

    Export control operates at two granularities, mirroring operational
    IXP route servers:

    * **per session** via :meth:`set_export_policy` (allow/deny peer
      lists);
    * **per announcement** via BGP communities: ``(0, 0)`` blocks export
      to everyone, ``(0, peer-asn)`` blocks one peer, and the presence of
      any ``(server-asn, x)`` community switches the route to allow-list
      mode where only peers named by ``(server-asn, peer-asn)`` receive
      it.
    """

    def __init__(self, asn: int = 64_496,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.asn = asn
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        registry = self.telemetry.registry
        self._updates_counter = registry.counter(
            "sdx_bgp_updates_total", "BGP UPDATE messages processed")
        self._announcements_counter = registry.counter(
            "sdx_bgp_announcements_total", "Prefix announcements received")
        self._withdrawals_counter = registry.counter(
            "sdx_bgp_withdrawals_total", "Prefix withdrawals received")
        self._changes_counter = registry.counter(
            "sdx_bgp_best_route_changes_total",
            "Per-participant best-route changes produced by the decision process")
        self._decision_runs_counter = registry.counter(
            "sdx_bgp_decision_runs_total",
            "Per-prefix rankings performed at RIB writes")
        self._readvertised_counter = registry.counter(
            "sdx_bgp_readvertised_total", "UPDATEs re-advertised to participants")
        self._readvertise_skipped_counter = registry.counter(
            "sdx_bgp_readvertise_skipped_total",
            "Re-advertisements dropped because the peer session was down")
        self._session_down_counters = {
            reason: registry.counter(
                "sdx_bgp_session_downs_total",
                "Session teardowns processed by the route server",
                reason=reason)
            for reason in ("reset", "fail")}
        self._implied_withdrawals_counter = registry.counter(
            "sdx_bgp_implied_withdrawals_total",
            "Prefixes flushed by implied withdrawal on session teardown")
        self._unnotified_counter = registry.counter(
            "sdx_bgp_unnotified_updates_total",
            "Updates applied to the Adj-RIB-In without listener "
            "notification (chaos stuck-route injection)")
        self._sessions: Dict[str, BgpSession] = {}
        #: The peer names as a set and in peering order, taken anew on
        #: every peering change: what a decision and a change list snapshot.
        self._peer_names: FrozenSet[str] = frozenset()
        self._peer_order: Tuple[str, ...] = ()
        self._adj_in: Dict[str, AdjRibIn] = {}
        self._peers_by_asn: Dict[int, List[str]] = {}
        #: The Loc-RIB: per announced prefix its routes, best first. Written
        #: by :meth:`_apply` alone (and re-stamped by :meth:`_reclass`).
        self._loc_rib: Dict[IPv4Prefix, Tuple[RouteEntry, ...]] = {}
        #: Export classes by value, so that equal ones are one object. Holds
        #: the distinct classes ever stored: a few per announcer.
        self._export_classes: Dict[tuple, tuple] = {}
        #: Per prefix asked for, its :meth:`decide` answer until what it
        #: read moves: a write re-ranking the prefix drops its entry, a
        #: peering or export-policy change (which can move any) all of them.
        self._decisions: Dict[IPv4Prefix, Decision] = {}
        self._export_deny: Dict[str, Set[str]] = {}
        self._export_allow: Dict[str, Optional[Set[str]]] = {}
        self._listeners: List[ChangeListener] = []
        self._update_listeners: List[UpdateListener] = []
        self._next_hop_rewriter: Optional[NextHopRewriter] = None
        self.updates_processed = 0
        #: Every mutation that can change a ``decide`` / ``route_exported``
        #: answer: a RIB write (diffed or silent) names the prefixes whose
        #: entry changed; a bulk table transfer, an export-policy edit or a
        #: peering change nothing ("anything"). What is derived from routing —
        #: grouping, defaults, committed spaces, re-advertisement — follows it.
        self.rib_changes: ChangeLog[IPv4Prefix] = ChangeLog(
            changelog_unknown_counter(self.telemetry.registry, "rib").inc)
        self._last_down_changes = BestRouteChanges()

    @property
    def state_version(self) -> int:
        """The version counter of :attr:`rib_changes`."""
        return self.rib_changes.version

    # ------------------------------------------------------------------
    # Peering management
    # ------------------------------------------------------------------

    def add_peer(self, name: str, asn: int, connect: bool = True) -> BgpSession:
        """Create (and by default establish) a session with ``name``."""
        if name in self._sessions:
            raise ParticipantError(f"peer {name!r} already exists")
        session = BgpSession(name, asn, on_update=self._process_update,
                             on_down=self._session_down)
        self._sessions[name] = session
        self._peering_changed()
        self._adj_in[name] = AdjRibIn(name)
        self._peers_by_asn.setdefault(asn, []).append(name)
        self._reclass()
        self.rib_changes.record()
        if connect:
            session.connect()
        return session

    def _peering_changed(self) -> None:
        """Take the peer-name snapshots anew after a session came or went."""
        self._peer_names = frozenset(self._sessions)
        self._peer_order = tuple(self._sessions)
        self._decisions.clear()

    def remove_peer(self, name: str) -> BestRouteChanges:
        """Drop a peer and withdraw everything it announced."""
        session = self._sessions.pop(name, None)
        if session is None:
            raise ParticipantError(f"unknown peer {name!r}")
        self._peering_changed()
        update = Update(sender=name, withdrawals=tuple(
            Withdrawal(p) for p in self._adj_in[name].prefixes()))
        changes = self._apply_and_diff(
            update, settle=lambda: self._forget_peer(name, session.asn))
        self.rib_changes.record()
        self._notify(update, changes)
        return changes

    def _forget_peer(self, name: str, asn: int) -> None:
        """Drop what a removed peer leaves once its routes are withdrawn:
        its Adj-RIB-In, its ASN among the members (re-stamping the stored
        routes) and its export policy."""
        del self._adj_in[name]
        self._peers_by_asn[asn].remove(name)
        if not self._peers_by_asn[asn]:
            del self._peers_by_asn[asn]
        self._reclass()
        self._export_deny.pop(name, None)
        self._export_allow.pop(name, None)

    def session(self, name: str) -> BgpSession:
        """The session for peer ``name``."""
        try:
            return self._sessions[name]
        except KeyError:
            raise ParticipantError(f"unknown peer {name!r}") from None

    def peers(self) -> Tuple[str, ...]:
        """Every peer name, sorted."""
        return tuple(sorted(self._sessions))

    def is_peer(self, name: str) -> bool:
        """True while ``name`` holds a session with the route server."""
        return name in self._sessions

    def reset_session(self, name: str) -> BestRouteChanges:
        """Simulate an administrative session reset: flush + reconnect.

        The session's own teardown synthesizes the implied withdrawal
        (see :meth:`BgpSession.reset`), which :meth:`_session_down`
        pushes through the normal decision/notify pipeline; the session
        then reconnects immediately. The peer must re-announce its
        routes afterwards, exactly as after a real reset.
        """
        session = self.session(name)
        session.reset()
        session.connect()
        return self._last_down_changes

    def fail_peer(self, name: str) -> BestRouteChanges:
        """Simulate a session failure: flush the peer's routes, stay DOWN.

        Unlike :meth:`reset_session` the session is *not* reconnected:
        re-advertisements to the peer are skipped (counted in
        ``sdx_bgp_readvertise_skipped_total``) until
        :meth:`recover_peer` brings it back.
        """
        session = self.session(name)
        session.fail()
        return self._last_down_changes

    def recover_peer(self, name: str) -> BgpSession:
        """Re-establish a DOWN (or IDLE) session after a failure.

        The Adj-RIB-In stays empty — BGP has no state transfer across a
        session death — so the caller models the peer-up re-announcement
        storm by submitting the peer's routes again.
        """
        session = self.session(name)
        session.open()
        session.establish()
        return session

    def _session_down(self, update: Update, reason: str) -> None:
        """Apply a teardown's implied withdrawal through the pipeline.

        Wired as every session's ``on_down`` hook, so the flush happens
        no matter who tears the session down (the server's own
        :meth:`reset_session` / :meth:`fail_peer`, or a chaos driver
        poking the session directly).
        """
        self._session_down_counters[reason].inc()
        self._last_down_changes = BestRouteChanges()
        if not update.withdrawals:
            return
        self._implied_withdrawals_counter.inc(len(update.withdrawals))
        with self.telemetry.span("bgp.session_down", sender=update.sender,
                                 reason=reason):
            self._count_update(update)
            changes = self._apply_and_diff(update)
            self._changes_counter.inc(len(changes))
            self.updates_processed += 1
            self._notify(update, changes)
        self._last_down_changes = changes

    # ------------------------------------------------------------------
    # Export policy
    # ------------------------------------------------------------------

    def set_export_policy(self, announcer: str, *,
                          deny: Iterable[str] = (),
                          allow: Optional[Iterable[str]] = None) -> None:
        """Control which peers receive ``announcer``'s routes.

        ``deny`` blacklists receivers; ``allow``, when given, whitelists
        them (deny still wins). The paper's Figure 1b example — AS B not
        exporting p4 to AS A — is modelled at this session granularity.
        """
        if announcer not in self._sessions:
            raise ParticipantError(f"unknown peer {announcer!r}")
        self.rib_changes.record()
        self._decisions.clear()
        self._export_deny[announcer] = set(deny)
        self._export_allow[announcer] = None if allow is None else set(allow)

    def exports_to(self, announcer: str, receiver: str) -> bool:
        """True if routes from ``announcer`` may reach ``receiver``
        (session-level check; per-route communities apply on top)."""
        if announcer == receiver:
            return False
        if receiver in self._export_deny.get(announcer, ()):  # deny wins
            return False
        allowed = self._export_allow.get(announcer)
        return allowed is None or receiver in allowed

    def export_control_communities(self, attributes) -> frozenset:
        """The communities of a route that affect its export."""
        if not attributes.communities:
            return NO_COMMUNITIES
        return frozenset(
            community for community in attributes.communities
            if community[0] in (BLOCK_COMMUNITY_ASN, self.asn))

    def _export_class(self, announcer: str, attributes) -> tuple:
        """Everything :meth:`route_exported` reads of a route from
        ``announcer``: who announced it, its export-control communities and
        the member ASNs on its path — two routes of one class are given to
        the same peers. Interned: equal classes are the same object."""
        key = (announcer, self.export_control_communities(attributes),
               frozenset(self._peers_by_asn.keys() & attributes.as_path.asns))
        return self._export_classes.setdefault(key, key)

    def _reclass(self) -> None:
        """Membership changed under the stored routes: stamp them anew. A
        re-stamped route takes its old place — ranking reads no class."""
        self._decisions.clear()
        if not self._loc_rib:
            return  # an exchange being set up: members first, routes after
        for adj in self._adj_in.values():
            for entry in adj.reclass(partial(self._export_class, adj.peer)):
                self._loc_rib[entry.prefix] = tuple(
                    entry if ranked.learned_from == adj.peer else ranked
                    for ranked in self._loc_rib[entry.prefix])

    def route_exported(self, entry: RouteEntry, receiver: str) -> bool:
        """True if one specific route may be given to ``receiver``.

        Besides session policy and communities, this applies standard
        AS-path loop prevention: a route whose path already contains the
        receiver's AS number is never exported to it (the receiver's
        router would reject it anyway, RFC 4271 §9.1.2).
        """
        if not self.exports_to(entry.learned_from, receiver):
            return False
        receiver_session = self._sessions.get(receiver)
        if receiver_session is None:
            return False  # no session (peer removed), nothing to export to
        receiver_asn = receiver_session.asn
        if entry.attributes.as_path.contains_loop(receiver_asn):
            return False
        communities = entry.attributes.communities
        if not communities:
            return True
        if (BLOCK_COMMUNITY_ASN, 0) in communities:
            return False
        if (BLOCK_COMMUNITY_ASN, receiver_asn) in communities:
            return False
        allow_mode = any(community[0] == self.asn for community in communities)
        if allow_mode:
            return (self.asn, receiver_asn) in communities
        return True

    # ------------------------------------------------------------------
    # Update processing
    # ------------------------------------------------------------------

    def submit(self, update: Update) -> None:
        """Deliver an update through the sender's session."""
        self.session(update.sender).receive(update)

    def announce(self, sender: str, prefix: IPv4Prefix, attributes) -> None:
        """Convenience: submit a single announcement."""
        self.submit(Update.announce(sender, prefix, attributes))

    def withdraw(self, sender: str, prefix: IPv4Prefix) -> None:
        """Convenience: submit a single withdrawal."""
        self.submit(Update.withdraw(sender, prefix))

    def bulk_load(self, updates: Iterable[Update]) -> int:
        """Apply many updates without per-change diffing or notification.

        This is the initial-table-transfer path: when a peer first comes
        up it sends its whole table, and diffing every prefix against
        every receiver would be quadratic waste — the SDX controller runs
        one full recompilation afterwards instead (Section 4.3 treats
        initial compilation separately from incremental updates for the
        same reason). Returns the number of updates applied.
        """
        count = 0
        for update in updates:
            session = self.session(update.sender)
            if not session.is_established:
                raise BgpError(f"bulk load from unestablished peer {update.sender!r}")
            session.note_update(update)
            self._apply_silent(update, named=False)
            count += 1
        # A table transfer is one unnamed change: what follows it starts over.
        self.rib_changes.record()
        return count

    def _apply_silent(self, update: Update, named: bool = True) -> None:
        """Apply one update to the Adj-RIB-In with no diffing or notify.

        Shared by :meth:`bulk_load` (initial table transfer) and
        :meth:`inject_unnotified` (chaos stuck-route injection).
        """
        self._count_update(update)
        self._apply(update, named)
        self.updates_processed += 1

    def _apply(self, update: Update, named: bool = True) -> List[IPv4Prefix]:
        """Write ``update`` into the sender's Adj-RIB-In and re-rank, in the
        Loc-RIB, the prefixes whose entry actually changed; returns them —
        which the change log is told, unless the caller records the change.
        The one place the decision process ranks
        (``sdx_bgp_decision_runs_total``); what was decided from the old
        ranking goes with it."""
        adj = self._adj_in[update.sender]
        changed = adj.apply(update, partial(self._export_class, adj.peer))
        if named:
            self.rib_changes.record(changed)
        self._decision_runs_counter.inc(len(changed))
        for prefix in changed:
            self._decisions.pop(prefix, None)
            routes = [entry for entry in self._loc_rib.get(prefix, ())
                      if entry.learned_from != update.sender]
            entry = adj.route(prefix)
            if entry is not None:
                routes.append(entry)
            if routes:
                self._loc_rib[prefix] = tuple(rank_routes(routes))
            else:
                del self._loc_rib[prefix]
        return changed

    def inject_unnotified(self, update: Update) -> None:
        """Chaos hook: apply ``update`` without notifying any listener.

        Models a *stuck route* — a best-route change whose notification
        was lost between the route server and the SDX controller. The
        server's RIBs move, but no fast-path compilation and no router
        re-advertisement happen, so the compiled state wedges until an
        explicit flush (a full recompilation, which re-reads route-server
        state) resynchronises it. Counted in
        ``sdx_bgp_unnotified_updates_total``.
        """
        session = self.session(update.sender)
        if not session.is_established:
            raise BgpError(
                f"cannot inject from unestablished peer {update.sender!r}")
        session.note_update(update)
        self._unnotified_counter.inc()
        self._apply_silent(update)

    def _count_update(self, update: Update) -> None:
        """Account one inbound UPDATE's announcements and withdrawals."""
        self._updates_counter.inc()
        self._announcements_counter.inc(len(update.announcements))
        self._withdrawals_counter.inc(len(update.withdrawals))

    def _process_update(self, update: Update) -> None:
        with self.telemetry.span("bgp.ingest", sender=update.sender) as span:
            self._count_update(update)
            with self.telemetry.span("bgp.decision") as decision:
                runs = self._decision_runs_counter.value
                changes = self._apply_and_diff(update)
                decision.set_tag(
                    runs=self._decision_runs_counter.value - runs)
            self._changes_counter.inc(len(changes))
            span.set_tag(changes=len(changes))
            self.updates_processed += 1
            self._notify(update, changes)

    def _notify(self, update: Update, changes: BestRouteChanges) -> None:
        if changes:
            for listener in self._listeners:
                listener(changes)
        for listener in self._update_listeners:
            listener(update, changes)

    def _apply_and_diff(self, update: Update,
                        settle: Optional[Callable[[], None]] = None
                        ) -> BestRouteChanges:
        """Apply ``update`` to the sender's Adj-RIB-In and report every
        per-participant best-route change it caused: each touched prefix's
        decision before the write (kept, unless a peering change dropped
        it) and after it, and the pair is the report — per prefix, not per
        peer; :class:`BestRouteChanges` reads it peer by peer (in peering
        order), as the per-session UPDATE streams it becomes. ``settle``
        runs between the write and the second decision: what else the
        write takes with it, so that the decisions reported are the ones
        the listeners read."""
        touched = set(update.prefixes)
        before = {prefix: self.decide(prefix) for prefix in touched}
        changed = set(self._apply(update))
        if settle is not None:
            settle()
        return BestRouteChanges(
            self._peer_order,
            ((prefix, before[prefix], self.decide(prefix))
             for prefix in touched if prefix in changed))

    # ------------------------------------------------------------------
    # Route queries (the SDX controller's read API)
    # ------------------------------------------------------------------

    def ranked_routes(self, prefix: IPv4Prefix) -> Tuple[RouteEntry, ...]:
        """Every route announced for ``prefix``, best first: a read of the
        Loc-RIB, which was ranked when it was written."""
        return self._loc_rib.get(prefix, ())

    def decide(self, prefix: IPv4Prefix) -> Decision:
        """Which route every peer gets for ``prefix``, decided once per
        ranking and kept (``_decisions``) until what it read moves.

        :data:`~repro.bgp.decision.preference_key` is a total order, so a
        peer's best route is the first of the one ranking it may be given;
        only peers the top entry may be withheld from are asked one by one.
        """
        decision = self._decisions.get(prefix)
        if decision is not None:
            return decision
        ranked = self.ranked_routes(prefix)
        exceptions: Dict[str, Optional[RouteEntry]] = {}
        if ranked:
            best, rest = ranked[0], ranked[1:]
            for peer in self._possibly_withheld(best):
                if not self.route_exported(best, peer):
                    exceptions[peer] = self._first_exported(rest, peer)
        decision = self._decisions[prefix] = Decision(
            ranked, MappingProxyType(exceptions), self._peer_names)
        return decision

    def _first_exported(self, ranked: Sequence[RouteEntry],
                        receiver: str) -> Optional[RouteEntry]:
        """The first (hence best) of ``ranked`` ``receiver`` may be given."""
        for entry in ranked:
            if self.route_exported(entry, receiver):
                return entry
        return None

    def _possibly_withheld(self, entry: RouteEntry) -> Iterable[str]:
        """A superset of the peers :meth:`route_exported` refuses ``entry``."""
        announcer = entry.learned_from
        communities = entry.attributes.communities
        if self._export_allow.get(announcer) is not None or any(
                community[0] == self.asn
                or community == (BLOCK_COMMUNITY_ASN, 0)
                for community in communities):
            return self._sessions  # allow-list or blanket block: ask everyone
        peers = {announcer, *self._export_deny.get(announcer, ())}
        named = [peer_asn for _block, peer_asn in communities]
        for asn in (*entry.attributes.as_path.asns, *named):
            if asn in self._peers_by_asn:
                peers.update(self._peers_by_asn[asn])
        return peers

    def best_route_for(self, participant: str,
                       prefix: IPv4Prefix) -> Optional[RouteEntry]:
        """The best route the server selects for ``participant`` (one
        receiver off the ranking; :meth:`decide` settles all of them)."""
        return self._first_exported(self.ranked_routes(prefix), participant)

    def reachable_prefixes(self, participant: str,
                           via: str) -> Tuple[IPv4Prefix, ...]:
        """Prefixes ``participant`` may forward to next-hop ``via``.

        This is the BGP-consistency filter of Section 4.1: only prefixes
        ``via`` announced *and* exports to ``participant`` are eligible.
        """
        return tuple(sorted(self.reachable_prefix_set(participant, via)))

    def reachable_prefix_set(self, participant: str,
                             via: str) -> FrozenSet[IPv4Prefix]:
        """:meth:`reachable_prefixes` as a set, for callers (the FEC
        computation) that need membership, not order."""
        if via not in self._adj_in:
            raise ParticipantError(f"unknown peer {via!r}")
        if not self.exports_to(via, participant):
            return frozenset()
        return frozenset(
            entry.prefix for entry in self._adj_in[via].routes()
            if self.route_exported(entry, participant))

    def is_reachable(self, participant: str, prefix: IPv4Prefix,
                     via: str) -> bool:
        """True if ``participant`` may forward ``prefix`` to next-hop ``via``.

        Constant-time variant of :meth:`reachable_prefixes` for the
        incremental fast path.
        """
        if via not in self._adj_in:
            raise ParticipantError(f"unknown peer {via!r}")
        entry = self._adj_in[via].route(prefix)
        return entry is not None and self.route_exported(entry, participant)

    def announced_by(self, participant: str) -> Tuple[IPv4Prefix, ...]:
        """Prefixes currently announced by ``participant``."""
        return tuple(sorted(self.announced_set(participant)))

    def announced_set(self, participant: str) -> Iterable[IPv4Prefix]:
        """:meth:`announced_by` unordered, for callers that only take unions."""
        if participant not in self._adj_in:
            raise ParticipantError(f"unknown peer {participant!r}")
        return self._adj_in[participant].prefixes()

    def routes_from(self, participant: str) -> Tuple[RouteEntry, ...]:
        """Every route ``participant`` currently announces, sorted."""
        try:
            adj = self._adj_in[participant]
        except KeyError:
            raise ParticipantError(f"unknown peer {participant!r}") from None
        return tuple(sorted(adj.routes(), key=lambda entry: entry.prefix))

    def export_policy(self, announcer: str) -> Tuple[Tuple[str, ...],
                                                     Optional[Tuple[str, ...]]]:
        """The (deny, allow) session-level export policy of ``announcer``."""
        if announcer not in self._sessions:
            raise ParticipantError(f"unknown peer {announcer!r}")
        deny = tuple(sorted(self._export_deny.get(announcer, ())))
        allowed = self._export_allow.get(announcer)
        return deny, None if allowed is None else tuple(sorted(allowed))

    def all_prefixes(self) -> Tuple[IPv4Prefix, ...]:
        """Every prefix announced by anyone, sorted."""
        return tuple(sorted(self._loc_rib))

    def prefix_set(self) -> Iterable[IPv4Prefix]:
        """:meth:`all_prefixes` unordered (a live view of the Loc-RIB's
        keys), for callers that sort only what they keep."""
        return self._loc_rib.keys()

    def view_for(self, participant: str) -> RibView:
        """The participant's Loc-RIB view (best route per prefix)."""
        routes: Dict[IPv4Prefix, RouteEntry] = {}
        for prefix, ranked in self._loc_rib.items():
            best = self._first_exported(ranked, participant)
            if best is not None:
                routes[prefix] = best
        return RibView(routes)

    # ------------------------------------------------------------------
    # Re-advertisement
    # ------------------------------------------------------------------

    def set_next_hop_rewriter(self, rewriter: Optional[NextHopRewriter]) -> None:
        """Install the VNH rewriting hook used on re-advertisement."""
        self._next_hop_rewriter = rewriter

    def add_listener(self, listener: ChangeListener) -> None:
        """Register for per-participant best-route change notifications."""
        self._listeners.append(listener)

    def add_update_listener(self, listener: UpdateListener) -> None:
        """Register for every processed update (see :data:`UpdateListener`)."""
        self._update_listeners.append(listener)

    def readvertise(self, changes: Collection[BestRouteChange]) -> List[Update]:
        """Build and send the UPDATEs that propagate ``changes``.

        Each change produces an announcement (or withdrawal) on the
        affected participant's session, with the next hop rewritten by the
        installed hook; a session that is not established is skipped.
        Every peer given the same route is sent the same (immutable)
        :class:`Update` object: a :class:`BestRouteChanges` is read route
        by route (:meth:`BestRouteChanges.by_route`), so the common cell's
        UPDATE is built once and handed to all of its sessions in one loop.
        Returns the UPDATEs sent, one per session, route by route.
        """
        sent: List[Update] = []
        shared: Dict[Tuple[IPv4Prefix, int], Update] = {}
        sessions = self._sessions
        routes = (changes.by_route() if isinstance(changes, BestRouteChanges)
                  else ((change.prefix, change.new, (change.participant,))
                        for change in changes))
        for prefix, route, receivers in routes:
            key = (prefix, id(route))
            update = shared.get(key)
            if update is None:
                update = shared[key] = self._outbound(prefix, route)
            sent.extend([update] * BgpSession.send_on_established(
                map(sessions.get, receivers), update))
        self._readvertised_counter.inc(len(sent))
        self._readvertise_skipped_counter.inc(len(changes) - len(sent))
        return sent

    def _outbound(self, prefix: IPv4Prefix,
                  route: Optional[RouteEntry]) -> Update:
        """The UPDATE telling a peer its route for ``prefix`` is ``route``."""
        if route is None:
            return Update.withdraw("route-server", prefix)
        next_hop = route.attributes.next_hop
        if self._next_hop_rewriter is not None:
            next_hop = self._next_hop_rewriter(prefix, route)
        return Update.announce("route-server", prefix,
                               route.attributes.with_next_hop(next_hop))

    def __repr__(self) -> str:
        return (f"RouteServer({len(self._sessions)} peers, "
                f"{len(self._loc_rib)} prefixes)")

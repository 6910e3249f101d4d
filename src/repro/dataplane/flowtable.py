"""A priority flow table with OpenFlow-like first-match semantics.

A rule's identity is its ``(priority, match)`` key. Every installed rule
is filed once, by its match, in one
:class:`~repro.policy.matchindex.MatchIndex` — whatever its priority: the
fast path opens a priority level per update — beside plain per-priority
dictionaries that give the keys and table order. A FlowMod is dictionary
work; :meth:`FlowTable.lookup` and :meth:`FlowTable.overlapping` ask the
index once and visit only the buckets a packet can hit or a match region
meet, a lookup trying their matches in table order. Rules of one priority
that do overlap (reference tables, tests) resolve to the one installed
first — OpenFlow's undefined-but-stable behaviour in practice.
Per-rule packet *and byte* counters support the rule-utilisation
measurements in the benchmark harness and the data-plane monitoring
subsystem (:mod:`repro.monitoring`), which samples them to estimate
per-FEC and per-egress traffic rates.

Mutation comes in two granularities: whole-rule installation (reference
tables), and :meth:`FlowTable.apply_delta` — the switch-side half of the
southbound flow-update engine, executing add/modify/delete FlowMods keyed
by ``(priority, match)``. Delta application leaves untouched rules' objects
(and therefore their packet and byte counters) alone, which is what makes
update cost measurable across recompiles — and what lets the monitoring
collector's per-rule deltas survive background table swaps.

Counter-survival invariant: a rule's counters are preserved across
:meth:`apply_delta` and phased swaps exactly when the rule is untouched
(or modified idempotently / with its actions rewritten in place at the
same key); they reset to zero when the key is deleted and re-added.
Each installed rule also carries a *cookie* — a monotonically increasing
token assigned at installation and preserved by MODIFY, mirroring the
OpenFlow cookie field. Counter consumers key per-rule state by cookie:
a surviving cookie means the counters are a monotonic continuation, a
fresh cookie means they restarted from zero, with no way to confuse a
modified rule (new object, old counters) for a new one.
"""

from __future__ import annotations

from heapq import heapify, heappop
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.net.packet import Packet
from repro.policy.classifier import Classifier
from repro.policy.flowrules import FlowRule, render_flow_table, to_flow_rules
from repro.policy.headerspace import HeaderSpace
from repro.policy.matchindex import MatchIndex, packet_pins
from repro.southbound.diff import Delta, FlowMod, FlowModOp

#: Bytes attributed to a processed packet when the caller gives no size.
#: A full-size Ethernet payload: callers that only care about forwarding
#: behaviour (tests, examples) keep byte counters plausible for free.
DEFAULT_PACKET_BYTES = 1500

#: What the table keeps per installed rule, by position in its entry.
RULE, COOKIE, PACKETS, BYTES = range(4)


def _place(entry: list) -> Tuple[int, int]:
    """An entry's place in table order: by priority, then as installed."""
    return -entry[RULE].priority, entry[COOKIE]


class FlowTable:
    """An installed set of flow rules plus match counters."""

    def __init__(self) -> None:
        # priority -> match -> [rule, cookie, packets, bytes], each level
        # in install order — which is cookie order.
        self._levels: Dict[int, Dict[HeaderSpace, list]] = {}
        # Every installed match -> its entries, one per priority it is
        # installed at, highest first.
        self._index: MatchIndex[Tuple[list, ...]] = MatchIndex()
        self._size = 0
        self._next_cookie = 1
        self._generation = 0
        # Derived, rebuilt on demand: the levels' priorities, highest first
        # (dropped when a level appears or empties), and the rules in table
        # order (dropped by every mutation).
        self._priorities: Optional[List[int]] = None
        self._rules: Optional[Tuple[FlowRule, ...]] = None
        #: Installed matches :meth:`overlapping` has tested, ever: the work
        #: count of every walk over this table.
        self.overlap_tests = 0
        # Telemetry handles, absent until bind_telemetry() is called:
        # standalone tables (property tests, ad-hoc scripts) pay one
        # None-check per operation and record nothing.
        self._bound_registry = None
        self._rules_gauge = None
        self._mod_counters: Dict[FlowModOp, object] = {}
        self._packets_counter = None
        self._bytes_counter = None
        self._misses_counter = None

    def bind_telemetry(self, telemetry) -> None:
        """Record table activity into ``telemetry``'s registry.

        Registers the ``sdx_flowtable_*`` families: a rule-count gauge,
        per-op FlowMod counters, processed-packet and -byte counts, and
        the table-miss (dropped traffic) loss counter.

        Idempotent per registry: rebinding the same table to the same
        registry — which happens when a controller-owned table is bound
        again after a phased swap or by a test harness — is a no-op, so
        the rule gauge is not gratuitously re-set mid-swap and handles
        are never re-fetched. Binding to a *different* registry rebinds
        every handle there (the previous registry stops receiving).
        """
        registry = telemetry.registry
        if registry is self._bound_registry:
            return
        self._bound_registry = registry
        self._rules_gauge = registry.gauge(
            "sdx_flowtable_rules", "Rules currently installed")
        self._mod_counters = {
            op: registry.counter("sdx_flowtable_mods_total",
                                 "FlowMods executed by the table",
                                 op=op.name.lower())
            for op in FlowModOp
        }
        self._packets_counter = registry.counter(
            "sdx_flowtable_packets_total", "Packets run through the table")
        self._bytes_counter = registry.counter(
            "sdx_flowtable_bytes_total",
            "Bytes carried by packets that matched a rule")
        self._misses_counter = registry.counter(
            "sdx_flowtable_misses_total",
            "Packets dropped by a table miss (no rule matched)")
        self._rules_gauge.set(self._size)

    def _changed(self) -> None:
        self._generation += 1
        self._rules = None
        if self._rules_gauge is not None:
            self._rules_gauge.set(self._size)

    def _entry(self, priority: int, match: HeaderSpace) -> Optional[list]:
        level = self._levels.get(priority)
        return None if level is None else level.get(match)

    def install(self, rule: FlowRule) -> None:
        """Put ``rule`` on its key. A free key gets a fresh entry — a new
        cookie, counters at zero, last of its priority in table order; a
        taken one has its actions rewritten in place, which keeps all
        three (and does nothing at all when the actions are the same)."""
        level = self._levels.get(rule.priority)
        if level is None:
            level = self._levels[rule.priority] = {}
            self._priorities = None
        entry = level.get(rule.match)
        if entry is None:
            entry = level[rule.match] = [rule, self._next_cookie, 0, 0]
            self._next_cookie += 1
            self._size += 1
            self._file(rule.match, entry)
        elif entry[RULE].actions == rule.actions:
            return
        else:
            entry[RULE] = rule
        self._changed()

    def _file(self, match: HeaderSpace, entry: list) -> None:
        """File a new entry in the index, beside its match's others."""
        held = self._index.get(match, ())
        self._index.add(match, tuple(sorted((*held, entry), key=_place)))

    def _unfile(self, match: HeaderSpace, entry: list) -> None:
        """Take an entry out of the index; its match too, if last."""
        held = tuple(other for other in self._index.get(match)
                     if other is not entry)
        if held:
            self._index.add(match, held)
        else:
            self._index.pop(match)

    def install_many(self, rules: Iterable[FlowRule]) -> int:
        """Install several rules; returns how many were given."""
        count = 0
        for rule in rules:
            self.install(rule)
            count += 1
        return count

    def install_classifier(self, classifier: Classifier,
                           base_priority: int = 0) -> int:
        """Install a compiled classifier at ``base_priority``."""
        return self.install_many(to_flow_rules(classifier, base_priority))

    def clear(self) -> None:
        """Remove every rule."""
        self._levels.clear()
        self._index = MatchIndex()
        self._size = 0
        self._priorities = None
        self._changed()

    # ------------------------------------------------------------------
    # FlowMod application (the southbound engine's switch-side half)
    # ------------------------------------------------------------------

    def rule_for_key(self, priority: int, match) -> Optional[FlowRule]:
        """The rule installed at ``(priority, match)``, if any."""
        entry = self._entry(priority, match)
        return None if entry is None else entry[RULE]

    def apply_mod(self, mod: FlowMod) -> None:
        """Execute one FlowMod.

        * ``ADD`` / ``MODIFY`` — :meth:`install` the mod's rule: OpenFlow
          leaves an add onto an exact existing key to rewrite it, and a
          modify of an absent key to install it.
        * ``DELETE`` — free the key.
        """
        counter = self._mod_counters.get(mod.op)
        if counter is not None:
            counter.inc()
        if mod.op is not FlowModOp.DELETE:
            self.install(mod.rule)
            return
        level = self._levels.get(mod.priority)
        entry = None if level is None else level.pop(mod.match, None)
        if entry is None:
            return
        self._unfile(mod.match, entry)
        if not level:
            del self._levels[mod.priority]
            self._priorities = None
        self._size -= 1
        self._changed()

    def apply_delta(self, delta: Union[Delta, Iterable[FlowMod]]) -> int:
        """Apply a delta (or any FlowMod sequence) in order; returns mods applied.

        Callers that expose intermediate states (the southbound engine's
        batches) are expected to pre-order mods with
        :func:`repro.southbound.engine.schedule_two_phase`.
        """
        mods = delta.mods if isinstance(delta, Delta) else tuple(delta)
        for mod in mods:
            self.apply_mod(mod)
        return len(mods)

    def _descending(self) -> List[int]:
        if self._priorities is None:
            self._priorities = sorted(self._levels, reverse=True)
        return self._priorities

    def _entries(self, floor: Optional[int] = None) -> Iterator[list]:
        """Every entry in table order: by priority, then as installed — down
        to priority ``floor``, if given."""
        for priority in self._descending():
            if floor is not None and priority < floor:
                return
            yield from self._levels[priority].values()

    @property
    def rules(self) -> Tuple[FlowRule, ...]:
        """Installed rules, highest priority first and, within a priority,
        in install order; the same tuple until the table next changes."""
        if self._rules is None:
            self._rules = tuple(map(itemgetter(RULE), self._entries()))
        return self._rules

    def rules_from(self, floor: int) -> List[FlowRule]:
        """Installed rules at priority ``floor`` or above, in table order:
        the top levels alone, whatever the size of the rest."""
        return list(map(itemgetter(RULE), self._entries(floor)))

    def overlapping(self, match: HeaderSpace, *,
                    before: Optional[FlowRule] = None) -> List[FlowRule]:
        """Installed rules that share a packet with ``match``, in table
        order — only those ahead of the installed rule ``before``, if given.

        A rule pinning another ingress port, tag or ``dstip`` prefix than
        ``match`` shares no packet with it, so one index query
        (:meth:`MatchIndex.meeting`) gives the only buckets to visit,
        whatever the number of priority levels. Each installed match in
        them with a rule ahead of ``before`` costs one
        :meth:`HeaderSpace.overlaps` test, counted in :attr:`overlap_tests`.
        """
        cut = None
        if before is not None:
            entry = self._entry(before.priority, before.match)
            if entry is None:
                raise ValueError(f"not installed: {before.describe()}")
            cut = _place(entry)
        hits: List[list] = []
        tested = 0
        for bucket in self._index.meeting(match):
            for other, held in bucket.items():
                if cut is not None:
                    held = [entry for entry in held if _place(entry) < cut]
                    if not held:
                        continue
                tested += 1
                if match.overlaps(other):
                    hits.extend(held)
        self.overlap_tests += tested
        hits.sort(key=_place)
        return [entry[RULE] for entry in hits]

    def __len__(self) -> int:
        return self._size

    @property
    def generation(self) -> int:
        """Bumped on every table mutation (used to detect staleness)."""
        return self._generation

    def _winner(self, packet: Packet) -> Optional[list]:
        """The entry of the first rule in table order matching ``packet``.
        One index query gives the buckets it can hit; their matches are
        tried in table order — each by its best entry, the one a packet it
        matches would take — off a heap, so a lookup orders no more of them
        than it tries."""
        # (place, match, entry): places are unique, so the heap never
        # compares two matches.
        tried = [(_place(held[0]), match, held[0])
                 for bucket in self._index.hit_by(packet_pins(packet))
                 for match, held in bucket.items()]
        heapify(tried)
        while tried:
            _at, match, entry = heappop(tried)
            if match.matches(packet):
                return entry
        return None

    def lookup(self, packet: Packet) -> Optional[FlowRule]:
        """The highest-priority rule matching ``packet``, if any."""
        entry = self._winner(packet)
        return None if entry is None else entry[RULE]

    def process(self, packet: Packet, *,
                size_bytes: Optional[int] = None) -> Tuple[Packet, ...]:
        """Apply the table to ``packet``; empty tuple means dropped.

        A table miss also drops (OpenFlow default for SDX: the controller
        installs explicit defaults, so misses indicate unmatched traffic).

        ``size_bytes`` attributes that many bytes to the matched rule's
        byte counter; traffic drivers use it to fold a whole sampling
        interval's volume into one representative packet. Defaults to
        :data:`DEFAULT_PACKET_BYTES`.
        """
        if self._packets_counter is not None:
            self._packets_counter.inc()
        size = DEFAULT_PACKET_BYTES if size_bytes is None else size_bytes
        entry = self._winner(packet)
        if entry is None:
            if self._misses_counter is not None:
                self._misses_counter.inc()
            return ()
        entry[PACKETS] += 1
        entry[BYTES] += size
        if self._bytes_counter is not None:
            self._bytes_counter.inc(size)
        return tuple(action.apply(packet) for action in entry[RULE].actions)

    def _kept(self, rule: FlowRule, column: int) -> int:
        entry = self._entry(rule.priority, rule.match)
        return entry[column] if entry is not None and entry[RULE] is rule else 0

    def packets_matched(self, rule: FlowRule) -> int:
        """How many packets have hit ``rule`` since installation."""
        return self._kept(rule, PACKETS)

    def bytes_matched(self, rule: FlowRule) -> int:
        """How many bytes have hit ``rule`` since installation."""
        return self._kept(rule, BYTES)

    def cookie_of(self, rule: FlowRule) -> int:
        """The installed rule's cookie (0 if the rule is not installed).

        Cookies are unique, never recycled, and survive MODIFY-in-place —
        the stable identity counter consumers key their state by.
        """
        return self._kept(rule, COOKIE)

    def counters_snapshot(self) -> Tuple[Tuple[FlowRule, int, int, int], ...]:
        """``(rule, cookie, packets, bytes)`` for every installed rule, in
        table order — the monitoring collector's sampling surface (the
        simulator's ``FlowStatsReply``). Key per-rule state by cookie:
        unlike ``id(rule)``, a cookie is never recycled and follows the
        rule through MODIFY, so counter continuations and resets are
        unambiguous across samples."""
        return tuple(map(tuple, self._entries()))

    def render(self) -> str:
        """The table as ``ovs-ofctl``-style text."""
        return render_flow_table(self.rules)

    def __repr__(self) -> str:
        return f"FlowTable({self._size} rules)"

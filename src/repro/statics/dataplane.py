"""Incremental static verification of *installed* flow rules.

The SDX001-SDX009 checks lint policies before compilation; nothing
verified the artifact the fabric actually runs. This module closes that
gap with a VeriFlow-style incremental verifier over the live
:class:`~repro.dataplane.flowtable.FlowTable`:

* the installed rule set is modeled as prioritized match regions over
  :class:`~repro.policy.headerspace.HeaderSpace`, whose constraints are
  read as integer ``(value, mask)`` pairs: CIDR prefixes nest or are
  disjoint and exact values are points, so every per-field domain splits
  into *atoms* (:func:`~repro.policy.headerspace.atoms`) — maximal
  regions on which every installed match is constant;
* a region splits into equivalence classes (one atom per constrained
  field), which :func:`walk_classes` walks field by field, narrowing the
  rules that can still match, so whole blocks of classes with one first
  matching rule are judged at once, each through a concrete
  representative packet;
* a :class:`FlowMod` batch only re-verifies the classes its deltas
  touch — untouched rules keep their cached verdicts, which is what
  makes per-delta gating cheap enough to run inline in the southbound
  engine.

Check catalogue (stable IDs, documented in ``docs/ANALYSIS.md``):

========  ==========================================================
SDX010    fully-shadowed installed rule (never wins any packet)
SDX011    committed traffic falls to the table miss / wildcard drop
SDX012    VMAC rewrite to a tag with no live next-hop (blackhole)
SDX013    intra-fabric forwarding loop across multi-switch tables
SDX014    two-phase-swap phase violation inside one apply window
========  ==========================================================

Every spatial finding carries a witness packet; the fuzz harness
(:mod:`repro.verification.dataplane`) re-executes witnesses through the
reference machinery to enforce each check's soundness contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bgp.rib import ChangeLog
from repro.exceptions import StaticDataplaneError
from repro.net.addresses import IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import (HeaderSpace, Pair, atoms, holds,
                                      value_mask)
from repro.policy.matchindex import MatchIndex
from repro.southbound.diff import FlowMod, FlowModOp, RuleKey, rule_key
from repro.statics.diagnostics import (
    Diagnostic,
    Severity,
    SourceLocation,
    StaticsReport,
    enforce,
    gate_mode,
)
from repro.telemetry import Telemetry, get_telemetry

#: Past this many blocks of a class walk judged, SDX010 falls back to the
#: conservative single-cover test (sound: it only *misses* union shadows,
#: never fabricates one) and SDX011 skips the space.
CLASS_BUDGET = 4096

#: Check IDs this module owns, in catalogue order.
DATAPLANE_CHECK_IDS: Tuple[str, ...] = (
    "SDX010", "SDX011", "SDX012", "SDX013", "SDX014")

# ----------------------------------------------------------------------
# The class walk
# ----------------------------------------------------------------------


def walk_classes(base: HeaderSpace, rules: Sequence[FlowRule], *,
                 port_domain: Optional[Sequence[int]] = None,
                 ) -> Iterator[Tuple[Packet, Optional[FlowRule], int]]:
    """Walk the equivalence classes of ``base`` that ``rules`` induce,
    yielding blocks ``(representative, winner, classes)``.

    The classes are the product of one atom per field some rule overlapping
    ``base`` constrains (plus the ingress port when ``port_domain`` limits
    it to a finite population), fields in name order. The walk takes the
    fields in that order and, at each, keeps the rules (in ``rules``'
    order) that match the atom chosen. Once the first rule kept constrains
    no field still open, or none is kept, every class below the choice
    has the same first matching rule: the walk yields them as one block,
    with that rule (``None``: none) and their number. Blocks come in the
    order the product lists its classes, and a block's representative is
    its first class's: ``base``'s value on the fields only it constrains,
    then the atoms' on the split fields.
    """
    rules = [rule for rule in rules if rule.match.overlaps(base)]
    # Each rule's constraints as (value, mask) pairs, read once.
    held = [{fieldname: value_mask(constraint)
             for fieldname, constraint in rule.match.items()}
            for rule in rules]
    constraints: Dict[str, List[Pair]] = {}
    for pairs in held:
        for fieldname, pair in pairs.items():
            constraints.setdefault(fieldname, []).append(pair)
    if port_domain is not None:
        constraints.setdefault("port", [])
    fields = sorted(constraints)
    split: List[List[Tuple[Optional[Pair], int]]] = []
    for fieldname in fields:
        pin = base.get(fieldname)
        split.append(atoms(fieldname, constraints[fieldname],
                           None if pin is None else value_mask(pin),
                           port_domain if fieldname == "port" else None))
        if not split[-1]:
            # Only a finite domain can exclude every value: the space is
            # uninhabited.
            return
    values: Dict[str, Any] = {
        fieldname: value_mask(constraint)[0]
        for fieldname, constraint in base.items()
        if fieldname not in constraints}
    # Every field below the walk's depth holds its first atom.
    values.update((fieldname, field_atoms[0][1])
                  for fieldname, field_atoms in zip(fields, split))
    # The depth from which a rule constrains no open field.
    closes = {fieldname: depth + 1 for depth, fieldname in enumerate(fields)}
    closed = [max(map(closes.__getitem__, rule.match), default=0)
              for rule in rules]
    # The classes under one choice of the fields above each depth.
    weights = [1]
    for field_atoms in reversed(split):
        weights.insert(0, weights[0] * len(field_atoms))

    def walk(depth: int, live: List[int]
             ) -> Iterator[Tuple[Packet, Optional[FlowRule], int]]:
        if not live or closed[live[0]] <= depth:
            yield (Packet(**values), rules[live[0]] if live else None,
                   weights[depth])
            return
        fieldname = fields[depth]
        for atom, rep in split[depth]:
            values[fieldname] = rep
            # A rule matches an atom whole or misses it: it leaves the
            # field open or holds the atom; the rest lies outside every
            # constraint.
            yield from walk(depth + 1, [
                index for index in live
                if (pair := held[index].get(fieldname)) is None
                or atom is not None and holds(pair, atom)])
        values[fieldname] = split[depth][0][1]

    yield from walk(0, list(range(len(rules))))


# ----------------------------------------------------------------------
# Committed traffic
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CommittedSpace:
    """Traffic the control plane has promised to carry.

    One (VMAC tag, FEC prefix) pair plus the finite set of ingress ports
    whose participants hold a best route for the prefix — their border
    routers stamp exactly this tag on exactly this traffic, so the
    installed table must not let it fall to the miss or the catch-all
    drop.
    """

    label: str
    space: HeaderSpace
    ports: Tuple[int, ...]


def member_ports(controller: Any) -> Tuple[Dict[str, Tuple[int, ...]],
                                           Tuple[int, ...]]:
    """Each physical peer's switch ports, and all of them sorted."""
    peers = set(controller.route_server.peers())
    ports_of = {participant.name: participant.switch_ports
                for participant in controller.topology.participants()
                if not participant.is_remote and participant.name in peers}
    return ports_of, tuple(sorted({
        port for ports in ports_of.values() for port in ports}))


def committed_space(controller: Any, prefix: IPv4Prefix,
                    ports: Tuple[Dict[str, Tuple[int, ...]], Tuple[int, ...]]
                    ) -> Optional[CommittedSpace]:
    """The committed space of one prefix (``ports`` from
    :func:`member_ports`), or ``None`` when it carries no tag or nobody
    holds a route for it.

    The prefix is attributed to the tag its senders actually stamp (an
    ephemeral override retags only its own prefix), and the senders are
    read off the shape of the route server's ``Decision``: every physical
    port but those of the excepted members left without a route — a
    sender without one never reaches the fabric.
    """
    vmac = controller.allocator.vmac_for_prefix(prefix)
    if vmac is None:
        return None
    decision = controller.route_server.decide(prefix)
    if decision.best is None:
        return None
    ports_of, senders = ports
    routeless = {port for name, route in decision.exceptions.items()
                 if route is None for port in ports_of.get(name, ())}
    if routeless:
        senders = tuple(port for port in senders if port not in routeless)
    if not senders:
        return None
    return CommittedSpace(label=f"{vmac}->{prefix}",
                          space=HeaderSpace(dstmac=vmac, dstip=prefix),
                          ports=senders)


def committed_spaces_from_controller(controller: Any) -> List[CommittedSpace]:
    """Derive the committed-traffic population from live controller state:
    the :func:`committed_space` of every prefix the allocator's group and
    fast-path assignments tag, in prefix order."""
    allocator = controller.allocator
    prefixes: Set[IPv4Prefix] = set(allocator.ephemeral_prefixes())
    for group in allocator.groups():
        prefixes.update(group.prefixes)
    ports = member_ports(controller)
    spaces = (committed_space(controller, prefix, ports)
              for prefix in sorted(prefixes))
    return [space for space in spaces if space is not None]


class CommittedSpaces:
    """A controller's committed-space population, kept per prefix, and a
    log of the labels whose space moved.

    :meth:`update` derives again the spaces of the prefixes it is given
    and records in :attr:`changes` the label of every space that came,
    went or changed, so a verifier holding the log's version reads what
    moved since instead of comparing every space. Iterates in prefix order.
    """

    def __init__(self) -> None:
        self.by_label: Dict[str, CommittedSpace] = {}
        self.changes: ChangeLog[str] = ChangeLog()
        self._by_prefix: Dict[IPv4Prefix, CommittedSpace] = {}
        self._ports: Tuple[Dict[str, Tuple[int, ...]], Tuple[int, ...]] = (
            {}, ())

    def update(self, controller: Any,
               prefixes: Optional[Iterable[IPv4Prefix]]) -> None:
        """Derive ``prefixes``' spaces again — every tagged prefix's, and
        an unknown change in the log, when ``prefixes`` is ``None``."""
        if prefixes is None:
            self._ports = member_ports(controller)
            spaces = committed_spaces_from_controller(controller)
            self._by_prefix = {space.space["dstip"]: space for space in spaces}
            self.by_label = {space.label: space for space in spaces}
            self.changes.record()
            return
        moved: List[str] = []
        for prefix in prefixes:
            old = self._by_prefix.get(prefix)
            new = committed_space(controller, prefix, self._ports)
            if new == old:
                continue
            if old is not None:
                del self._by_prefix[prefix], self.by_label[old.label]
                moved.append(old.label)
            if new is not None:
                self._by_prefix[prefix] = self.by_label[new.label] = new
                moved.append(new.label)
        if moved:
            self.changes.record(moved)

    def __iter__(self) -> Iterator[CommittedSpace]:
        by_prefix = self._by_prefix
        return iter([by_prefix[prefix] for prefix in sorted(by_prefix)])

    def __len__(self) -> int:
        return len(self._by_prefix)


#: SDX011 verdicts of a committed space.
_CLEAN, _EATEN, _OVER_BUDGET = "clean", "eaten", "over-budget"


def _share_key(committed: CommittedSpace,
               cuts: Sequence[Optional[IPv4Prefix]]) -> Optional[Tuple[Any, ...]]:
    """What an SDX011 verdict of ``committed`` depends on beyond its
    ``dstip``, given the ``dstip`` constraint of each rule its tag meets:
    its ports and which of those rules it meets. ``None`` when the verdict
    may depend on where in the prefix a packet lies — the space pins more
    than a tag and a prefix, or a rule it meets cuts the prefix."""
    space = committed.space
    prefix = space.get("dstip")
    if len(space) != 2 or prefix is None or space.get("dstmac") is None:
        return None
    met: List[int] = []
    for index, cut in enumerate(cuts):
        if cut is None or cut.contains_prefix(prefix):
            met.append(index)
        elif prefix.contains_prefix(cut):
            return None
    return (committed.ports, tuple(met))


# ----------------------------------------------------------------------
# The verifier
# ----------------------------------------------------------------------

#: Cache key of one state diagnostic.
_DiagKey = Tuple[Any, ...]


def _winner(table: Any, packet: Packet) -> Any:
    """First-match lookup over a :class:`FlowTable` or a `Classifier`.

    The multi-switch partitioner emits per-switch ``Classifier`` tables
    (``first_match``); the live big-switch table is a ``FlowTable``
    (``lookup``) — the loop walk accepts either.
    """
    first_match = getattr(table, "first_match", None)
    if first_match is not None:
        return first_match(packet)
    return table.lookup(packet)


def _diag_sort_key(diag: Diagnostic) -> Tuple[Any, ...]:
    location = diag.location
    return (diag.check_id, location.participant,
            location.clause_index if location.clause_index is not None else -1,
            diag.message)


class DataplaneVerifier:
    """Incremental SDX010-SDX014 verification of one installed table.

    Attach an instance as a :class:`SouthboundEngine` batch observer and
    it re-verifies exactly the rules each apply window touched, keeping
    a diagnostic cache whose rendering is byte-identical to a fresh
    whole-table analysis. ``mode`` is the gate contract of
    :func:`repro.statics.diagnostics.admit`, applied to an apply window:
    ``"warn"`` logs the error findings the window introduced, ``"strict"``
    raises :class:`~repro.exceptions.StaticDataplaneError` for them —
    and the engine, every apply window being atomic, takes the window
    back out of the table and has this cache start over from it.

    ``committed_spaces`` / ``vmac_index`` are zero-argument callables so
    the verifier always sees current allocator and routing state (a
    :class:`CommittedSpaces` names what moved since the last pass on its
    change log, and so do the allocator's
    :attr:`~repro.core.vnh.VnhAllocator.live_vmacs`; any other sequence
    or collection of live VMACs is compared whole);
    ``topology``/``tables`` enable the multi-switch loop check
    (SDX013) when the table under verification is partitioned.
    """

    def __init__(self, table: Any, *,
                 committed_spaces: Optional[Callable[[], Sequence[CommittedSpace]]] = None,
                 vmac_index: Optional[Callable[[], Collection[MacAddress]]] = None,
                 topology: Optional[Any] = None,
                 tables: Optional[Mapping[str, Any]] = None,
                 mode: str = "warn",
                 switch: str = "table",
                 telemetry: Optional[Telemetry] = None):
        self.table = table
        self.mode = gate_mode(mode, "dataplane statics mode")
        self.switch = switch
        self._committed_spaces = committed_spaces or (lambda: ())
        self._vmac_index = vmac_index
        self.topology = topology
        self.tables = tables
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        registry = self.telemetry.registry
        self._runs_counter = registry.counter(
            "sdx_statics_dataplane_runs_total",
            "Dataplane verification passes (full or incremental)")
        self._checks_counter = registry.counter(
            "sdx_statics_dataplane_checks_total",
            "Individual dataplane check evaluations")
        self._diag_counters = {
            check_id: registry.counter(
                "sdx_statics_dataplane_diagnostics_total",
                "Diagnostics emitted by the dataplane verifier",
                check_id=check_id)
            for check_id in DATAPLANE_CHECK_IDS
        }
        self._classes_counter = registry.counter(
            "sdx_statics_dataplane_classes_total",
            "Blocks of equivalence classes judged by dataplane verification")
        self._batches_counter = registry.counter(
            "sdx_statics_dataplane_batches_total",
            "Southbound apply windows verified")
        self._examined_counter = registry.counter(
            "sdx_statics_dataplane_rules_examined_total",
            "Installed rules whose match the verifier tested against a "
            "region: the index walks of its passes")
        self._budget_counters = {
            check_id: registry.counter(
                "sdx_statics_dataplane_budget_exceeded_total",
                "Checks degraded because a class walk passed the block "
                "budget: SDX010 falls back to the single-cover test, "
                "SDX011 is skipped for that space", check=check_id)
            for check_id in ("SDX010", "SDX011")
        }
        # State diagnostics, keyed so incremental updates replace exactly
        # the findings their rules own.
        self._diags: Dict[_DiagKey, Diagnostic] = {}
        # VMAC -> keys of the rules whose SDX012 verdict reads whether it
        # is live by rewriting to it, and each such key's tags.
        self._rewrites: Dict[MacAddress, Set[RuleKey]] = {}
        self._rewrite_tags: Dict[RuleKey, Tuple[MacAddress, ...]] = {}
        self._space_snapshot: Dict[str, CommittedSpace] = {}
        # The provider's change-log version the snapshot reflects (None:
        # compare every space).
        self._spaces_version: Optional[int] = None
        # The snapshot's spaces, filed for overlap: each space's labels.
        self._space_index: MatchIndex[FrozenSet[str]] = MatchIndex()
        self._vmac_snapshot: Set[MacAddress] = set()
        # The live VMACs' change-log version the snapshot reflects (None:
        # compare the whole set).
        self._vmac_version: Optional[int] = None
        # Apply-window bookkeeping (observer protocol).
        self._window: Optional[List[FlowMod]] = None
        self._pre_window_errors: Set[_DiagKey] = set()
        self.last_report: Optional[StaticsReport] = None
        self.refresh_full()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _build_report(self, extra: Sequence[Diagnostic] = ()) -> StaticsReport:
        ordered = sorted(self._diags.values(), key=_diag_sort_key)
        ordered.extend(sorted(extra, key=_diag_sort_key))
        report = StaticsReport(checks_run=DATAPLANE_CHECK_IDS)
        report.participants_analyzed = 1 if self.tables is None else len(self.tables)
        report.clauses_analyzed = len(self.table)
        report.extend(ordered)
        return report

    def state_report(self) -> StaticsReport:
        """The cached whole-table verdict (no window findings).

        Byte-identical to :func:`analyze_flowtable` over the same table
        and providers — the property the incremental soundness gate
        asserts. Reads reconcile provider drift first: the allocator can
        retire a VMAC or the route server can shift a committed space
        *after* the apply window that installed the affected rules, so
        cached verdicts are refreshed against the current index before
        rendering.
        """
        self._reconcile_providers()
        return self._build_report()

    def _reconcile_providers(self) -> None:
        """Re-verify whatever allocator/route-server drift invalidated."""
        examined = self.table.overlap_tests
        index = self._vmac_index() if self._vmac_index else None
        changed = self._changed_vmacs(index)
        if changed:
            self._reverify(self._referencing(changed), index)
        self._verify_committed(())
        self._examined_counter.inc(self.table.overlap_tests - examined)

    # ------------------------------------------------------------------
    # Full and incremental verification
    # ------------------------------------------------------------------

    def refresh_full(self) -> StaticsReport:
        """Recompute every diagnostic from scratch."""
        examined = self.table.overlap_tests
        with self.telemetry.span("statics.dataplane", kind="full"):
            self._diags.clear()
            self._rewrites.clear()
            self._rewrite_tags.clear()
            index = self._vmac_index() if self._vmac_index else None
            self._vmac_snapshot, self._vmac_version = set(), None
            self._changed_vmacs(index)
            for rule in self.table.rules:
                self._verify_rule(rule, index)
            self._space_snapshot, self._space_index = {}, MatchIndex()
            self._spaces_version = None
            self._verify_committed(())
            self._verify_loops()
        self._runs_counter.inc()
        self._examined_counter.inc(self.table.overlap_tests - examined)
        report = self._build_report()
        self.last_report = report
        return report

    def verify_delta(self, mods: Sequence[FlowMod]) -> StaticsReport:
        """Re-verify only what ``mods`` can have touched.

        Affected rules are the modded keys, plus every installed rule at
        or below a mod's priority whose match overlaps the mod's (a
        rule's verdict and witness are a function of the rules ahead of
        it that overlap it, so nothing else can change), plus every rule
        matching or rewriting to a VMAC whose allocator-index membership
        changed since the last pass (a tag can die or come alive without
        any FlowMod touching the rules that carry it). All of them are
        found through the table's match index — no pass over the table.
        Committed spaces re-verify when their space overlaps a mod or their
        definition changed since the last pass. Returns the post-delta
        state report plus any window-ordering (SDX014) findings for
        ``mods``.
        """
        table = self.table
        examined = table.overlap_tests
        with self.telemetry.span("statics.dataplane", kind="delta",
                                 mods=len(mods)):
            affected: Set[RuleKey] = {mod.key for mod in mods}
            for mod in mods:
                affected.update(rule_key(rule) for rule in
                                table.overlapping(mod.match)
                                if rule.priority <= mod.priority)
            index = self._vmac_index() if self._vmac_index else None
            changed_vmacs = self._changed_vmacs(index)
            if changed_vmacs:
                affected |= self._referencing(changed_vmacs)
            self._reverify(affected, index)
            self._verify_committed({mod.match for mod in mods})
            self._verify_loops()
        self._runs_counter.inc()
        self._examined_counter.inc(table.overlap_tests - examined)
        ordering = list(self._check_phase_order(mods))
        report = self._build_report(extra=ordering)
        self.last_report = report
        return report

    def _changed_vmacs(self, live: Optional[Collection[MacAddress]]
                       ) -> Set[MacAddress]:
        """VMACs that came alive or died since the last pass: of those the
        live set's change log names, when it keeps one, else of all."""
        if live is None:
            return set()
        log = getattr(live, "changes", None)
        named = (None if log is None or self._vmac_version is None
                 else log.since(self._vmac_version))
        self._vmac_version = None if log is None else log.version
        if named is None:
            current = set(live)
            changed = current ^ self._vmac_snapshot
            self._vmac_snapshot = current
            return changed
        changed = {vmac for vmac in named
                   if (vmac in live) != (vmac in self._vmac_snapshot)}
        self._vmac_snapshot ^= changed
        return changed

    def _referencing(self, vmacs: Set[MacAddress]) -> Set[RuleKey]:
        """Keys of the installed rules that match one of ``vmacs`` (off
        the match index) or rewrite to one (off the rewrite index)."""
        keys: Set[RuleKey] = set()
        for vmac in vmacs:
            keys.update(self._rewrites.get(vmac, ()))
            keys.update(rule_key(rule) for rule in
                        self.table.overlapping(HeaderSpace(dstmac=vmac))
                        if rule.match.get("dstmac") == vmac)
        return keys

    def _reverify(self, keys: Set[RuleKey],
                  index: Optional[Collection[MacAddress]]) -> None:
        """Drop the per-rule verdicts of ``keys`` and take them again, in
        table order, for those still installed, against ``index`` (the
        allocator index, read once per pass)."""
        stale = [diag_key for diag_key in self._diags
                 if diag_key[0] in ("SDX010", "SDX012")
                 and (diag_key[1], diag_key[2]) in keys]
        for diag_key in stale:
            del self._diags[diag_key]
        table = self.table
        rules = []
        for key in keys:
            for tag in self._rewrite_tags.pop(key, ()):
                holders = self._rewrites[tag]
                holders.discard(key)
                if not holders:
                    del self._rewrites[tag]
            rule = table.rule_for_key(*key)
            if rule is not None:
                rules.append(rule)
        rules.sort(key=lambda rule: (-rule.priority, table.cookie_of(rule)))
        for rule in rules:
            self._verify_rule(rule, index)

    # ------------------------------------------------------------------
    # SDX010 + SDX012: per-rule verdicts
    # ------------------------------------------------------------------

    def _reachability(self, rule: FlowRule) -> Tuple[bool, Optional[Packet]]:
        """Whether installed ``rule`` wins some packet, with a witness.

        Reachable: the witness is a packet the rule wins. Unreachable:
        the witness is a packet in the rule's match that a higher rule
        steals. Only the rules ahead of it that overlap it split its
        match: the rule wins the first block of the walk that none of
        them matches. Budget overrun degrades to the conservative
        single-cover test (no union shadows reported, never a false
        shadow).

        A drop that pins neither tag nor port (the catch-all) meets every
        rule ahead of it, so its representative packet is looked up first:
        a reachable drop reports no witness, and one that wins that packet
        is reachable whatever the rules ahead split.
        """
        if rule.is_drop and rule.match.get("port") is None and (
                rule.match.get("dstmac") is None):
            probe = rule.match.concretise(port=0)
            if self.table.lookup(probe) is rule:
                return True, probe
        earlier = self.table.overlapping(rule.match, before=rule)
        if not earlier:
            # One implicit class: the whole match region.
            return True, rule.match.concretise(port=0)
        stolen: Optional[Packet] = None
        for judged, (packet, winner, _) in enumerate(
                walk_classes(rule.match, earlier)):
            if judged == CLASS_BUDGET:
                self._budget_counters["SDX010"].inc()
                if any(other.match.covers(rule.match) for other in earlier):
                    return False, rule.match.concretise(port=0)
                return True, None
            self._classes_counter.inc()
            if winner is None:
                return True, packet
            if stolen is None:
                stolen = packet
        return False, stolen

    def _verify_rule(self, rule: FlowRule,
                     index_map: Optional[Collection[MacAddress]]) -> None:
        key = rule_key(rule)
        self._checks_counter.inc()
        reachable, witness = self._reachability(rule)
        if not reachable:
            diag = Diagnostic(
                check_id="SDX010", check_name="shadowed-rule",
                severity=Severity.WARNING,
                location=self._rule_location(rule),
                message=(f"rule [{rule.describe()}] is fully shadowed by "
                         "higher-priority rules and can never win a packet"),
                witness=witness,
                data=(("rule_priority", rule.priority),
                      ("rule_match", rule.match)))
            self._diags[("SDX010", key[0], key[1])] = diag
            self._count(diag)
            return
        if index_map is None:
            return
        self._checks_counter.inc()
        matched = rule.match.get("dstmac")
        if (matched is not None and matched.is_virtual
                and matched not in index_map):
            diag = Diagnostic(
                check_id="SDX012", check_name="dead-vmac",
                severity=Severity.WARNING,
                location=self._rule_location(rule),
                message=(f"rule [{rule.describe()}] matches VMAC {matched} "
                         "which tags no live forwarding equivalence class"),
                data=(("rule_priority", rule.priority),
                      ("rule_match", rule.match),
                      ("vmac", matched), ("kind", "match")))
            self._diags[("SDX012", key[0], key[1], matched, "match")] = diag
            self._count(diag)
        tags = tuple(dict.fromkeys(
            rewritten for rewritten in (action.get("dstmac")
                                        for action in rule.actions)
            if isinstance(rewritten, MacAddress) and rewritten.is_virtual))
        if tags:
            self._rewrite_tags[key] = tags
            for tag in tags:
                self._rewrites.setdefault(tag, set()).add(key)
        for rewritten in tags:
            if rewritten not in index_map:
                diag = Diagnostic(
                    check_id="SDX012", check_name="dead-vmac",
                    severity=Severity.ERROR,
                    location=self._rule_location(rule),
                    message=(f"rule [{rule.describe()}] rewrites traffic to "
                             f"VMAC {rewritten} with no live next-hop: "
                             "compiled blackhole"),
                    witness=witness,
                    data=(("rule_priority", rule.priority),
                          ("rule_match", rule.match),
                          ("vmac", rewritten), ("kind", "rewrite")))
                self._diags[("SDX012", key[0], key[1], rewritten,
                             "rewrite")] = diag
                self._count(diag)

    def _rule_location(self, rule: FlowRule) -> SourceLocation:
        return SourceLocation(participant=self.switch, direction="rule",
                              clause_index=rule.priority)

    # ------------------------------------------------------------------
    # SDX011: committed traffic vs the table miss
    # ------------------------------------------------------------------

    def _verify_committed(self, mod_matches: Iterable[HeaderSpace]) -> None:
        """Take again the SDX011 verdict of every committed space that
        moved since the last pass or that overlaps a modded match."""
        with self.telemetry.span("statics.committed") as span:
            current, moved = self._moved_spaces()
            snapshot, index = self._space_snapshot, self._space_index
            recheck = {label for match in mod_matches
                       for _space, labels in index.overlapping(match)
                       for label in labels}
            for label in moved:
                old, new = snapshot.get(label), current.get(label)
                if old == new:
                    continue
                if old is not None:
                    del snapshot[label]
                    labels = index.pop(old.space) - {label}
                    if labels:
                        index.add(old.space, labels)
                    self._diags.pop(("SDX011", label), None)
                if new is not None:
                    snapshot[label] = new
                    index.add(new.space, index.get(new.space, frozenset())
                              | {label})
                    recheck.add(label)
            judged = [snapshot[label] for label in sorted(recheck)
                      if label in snapshot]
            span.set_tag(spaces=len(judged))
            self._judge_spaces(judged)

    def _moved_spaces(self) -> Tuple[Mapping[str, CommittedSpace],
                                     Iterable[str]]:
        """The provider's spaces by label, and the labels that may have
        moved since the last pass: what a :class:`CommittedSpaces` log
        names, else every label either side holds."""
        provided = self._committed_spaces()
        moved: Optional[Iterable[str]] = None
        if isinstance(provided, CommittedSpaces):
            current: Mapping[str, CommittedSpace] = provided.by_label
            if self._spaces_version is not None:
                moved = provided.changes.since(self._spaces_version)
            self._spaces_version = provided.changes.version
        else:
            current = {space.label: space for space in provided}
        if moved is None:
            moved = current.keys() | self._space_snapshot.keys()
        return current, moved

    def _judge_spaces(self, spaces: Sequence[CommittedSpace]) -> None:
        """Give each of ``spaces`` its SDX011 verdict.

        The table is read once per tag, off its match index. Spaces of one
        tag that pin only it and a ``dstip`` prefix, have the same ports,
        and meet the same rules — each of which leaves ``dstip`` open or
        covers the whole prefix — have partitions that differ only in the
        ``dstip`` of their representatives, which no rule they meet tells
        apart: one verdict serves them all. Only an eaten verdict is taken
        again per space, for its own label and witness.
        """
        by_tag: Dict[Optional[MacAddress], List[CommittedSpace]] = {}
        for committed in spaces:
            by_tag.setdefault(committed.space.get("dstmac"),
                              []).append(committed)
        for tag, group in by_tag.items():
            rules = self.table.overlapping(
                HeaderSpace() if tag is None else HeaderSpace(dstmac=tag))
            cuts = [rule.match.get("dstip") for rule in rules]
            shared: Dict[Tuple[Any, ...], str] = {}
            for committed in group:
                self._checks_counter.inc()
                self._diags.pop(("SDX011", committed.label), None)
                key = _share_key(committed, cuts)
                verdict = shared.get(key) if key is not None else None
                if verdict == _OVER_BUDGET:
                    self._budget_counters["SDX011"].inc()
                    continue
                if verdict == _CLEAN:
                    continue
                verdict, diag = self._check_committed_space(committed, rules)
                if key is not None:
                    shared[key] = verdict
                if diag is not None:
                    self._diags[("SDX011", committed.label)] = diag
                    self._count(diag)

    def _check_committed_space(
            self, committed: CommittedSpace, rules: Sequence[FlowRule]
    ) -> Tuple[str, Optional[Diagnostic]]:
        """The SDX011 verdict and finding of one space, judged against
        ``rules`` (a superset, in table order, of the installed rules
        overlapping it)."""
        eaten = total = 0
        witness: Optional[Packet] = None
        for judged, (packet, winner, classes) in enumerate(walk_classes(
                committed.space, rules, port_domain=committed.ports)):
            if judged == CLASS_BUDGET:
                self._budget_counters["SDX011"].inc()
                return _OVER_BUDGET, None
            self._classes_counter.inc()
            total += classes
            if winner is None or (winner.is_drop and winner.match.is_wildcard):
                eaten += classes
                if witness is None:
                    witness = packet
        if not eaten:
            return _CLEAN, None
        return _EATEN, Diagnostic(
            check_id="SDX011", check_name="committed-miss",
            severity=Severity.ERROR,
            location=SourceLocation(participant=self.switch,
                                    direction="committed"),
            message=(f"committed traffic {committed.label} falls to the "
                     f"table miss or catch-all drop in {eaten} of "
                     f"{total} traffic class(es)"),
            witness=witness,
            data=(("label", committed.label), ("classes_eaten", eaten),
                  ("classes_total", total)))

    # ------------------------------------------------------------------
    # SDX013: inter-switch forwarding loops
    # ------------------------------------------------------------------

    def _verify_loops(self) -> None:
        if self.topology is None or self.tables is None:
            return
        self._checks_counter.inc()
        stale = [diag_key for diag_key in self._diags
                 if diag_key[0] == "SDX013"]
        for diag_key in stale:
            del self._diags[diag_key]
        macs: Set[MacAddress] = set()
        for table in self.tables.values():
            for rule in table.rules:
                constraint = rule.match.get("dstmac")
                if constraint is not None:
                    macs.add(constraint)
        trunk_peer: Dict[Tuple[str, int], Tuple[str, int]] = {}
        for link in self.topology.links:
            trunk_peer[(link.left_switch, link.left_port)] = (
                link.right_switch, link.right_port)
            trunk_peer[(link.right_switch, link.right_port)] = (
                link.left_switch, link.left_port)
        for mac in sorted(macs):
            cycle = self._find_loop(mac, trunk_peer)
            if cycle is None:
                continue
            switches, start = cycle
            witness = Packet(port=start[1], dstmac=mac)
            diag = Diagnostic(
                check_id="SDX013", check_name="fabric-loop",
                severity=Severity.ERROR,
                location=SourceLocation(participant=start[0],
                                        direction="trunk",
                                        clause_index=start[1]),
                message=(f"traffic tagged {mac} loops across switches "
                         f"{' -> '.join(switches)}"),
                witness=witness,
                data=(("dstmac", mac), ("switches", tuple(switches))))
            self._diags[("SDX013", mac)] = diag
            self._count(diag)

    def _find_loop(self, mac: MacAddress,
                   trunk_peer: Dict[Tuple[str, int], Tuple[str, int]],
                   ) -> Optional[Tuple[List[str], Tuple[str, int]]]:
        """Walk trunk forwarding for one tag from every trunk ingress."""
        assert self.tables is not None
        for start in sorted(trunk_peer):
            seen: List[Tuple[str, int]] = []
            hop: Optional[Tuple[str, int]] = start
            while hop is not None:
                if hop in seen:
                    return [s for s, _ in seen[seen.index(hop):]], start
                seen.append(hop)
                switch, in_port = hop
                table = self.tables.get(switch)
                if table is None:
                    break
                probe = Packet(port=in_port, dstmac=mac)
                winner = _winner(table, probe)
                if winner is None or winner.is_drop:
                    break
                out_port = None
                for action in winner.actions:
                    out_port = action.output_port
                    if out_port is not None:
                        break
                if out_port is None:
                    break
                hop = trunk_peer.get((switch, out_port))
        return None

    # ------------------------------------------------------------------
    # SDX014: apply-window phase ordering
    # ------------------------------------------------------------------

    def _check_phase_order(
            self, mods: Sequence[FlowMod]) -> Iterable[Diagnostic]:
        """Flag installs observable *after* a delete in one window.

        :func:`~repro.southbound.engine.schedule_two_phase` guarantees
        every add/modify precedes every delete inside a flush; a delete
        exposed before a later install means some intermediate table
        state may drop or misroute traffic that both the old and new
        tables carry.
        """
        self._checks_counter.inc()
        first_delete: Optional[int] = None
        for position, mod in enumerate(mods):
            if mod.op is FlowModOp.DELETE:
                if first_delete is None:
                    first_delete = position
                continue
            if first_delete is None:
                continue
            diag = Diagnostic(
                check_id="SDX014", check_name="phase-violation",
                severity=Severity.ERROR,
                location=SourceLocation(participant=self.switch,
                                        direction="window",
                                        clause_index=mod.priority),
                message=(f"{mod.op.value} of [{mod.describe()}] observable "
                         f"after a delete at position {first_delete} in the "
                         "same apply window: two-phase ordering violated"),
                data=(("position", position),
                      ("first_delete", first_delete),
                      ("rule_priority", mod.priority),
                      ("rule_match", mod.match)))
            self._count(diag)
            yield diag

    # ------------------------------------------------------------------
    # Southbound observer protocol
    # ------------------------------------------------------------------

    def on_rollback(self) -> None:
        """The engine put the table back as it was before a failed change:
        take every verdict again from what is installed. Costs a full pass,
        and only then — accepting a window costs no copy of the cache."""
        self._window = None
        self.refresh_full()

    def on_apply_begin(self) -> None:
        """An apply window opens: start accumulating its batches."""
        self._window = []
        self._pre_window_errors = {
            key for key, diag in self._diags.items()
            if diag.severity is Severity.ERROR}

    def __call__(self, batch: Sequence[FlowMod]) -> None:
        """BatchObserver entry point: accumulate one applied batch."""
        if self._window is None:
            self.on_apply_begin()
        self._window.extend(batch)

    def on_apply_end(self) -> None:
        """The apply window closed: verify its whole delta at once.

        Verification happens here rather than per batch because an
        in-progress full-table swap is legitimately inconsistent between
        batches; the two-phase schedule only promises safety for the
        window's end state.
        """
        mods, self._window = self._window, None
        if mods is None or self.mode == "off":
            return
        self._batches_counter.inc()
        report = self.verify_delta(mods)
        new_errors = [
            diag for key, diag in self._diags.items()
            if diag.severity is Severity.ERROR
            and key not in self._pre_window_errors
        ]
        new_errors.extend(d for d in report.diagnostics
                          if d.check_id == "SDX014")
        enforce(new_errors, "dataplane statics gate",
                StaticDataplaneError if self.mode == "strict" else None,
                report)

    def _count(self, diag: Diagnostic) -> None:
        counter = self._diag_counters.get(diag.check_id)
        if counter is not None:
            counter.inc()

    def __repr__(self) -> str:
        return (f"DataplaneVerifier(mode={self.mode}, "
                f"{len(self.table)} rules, "
                f"{len(self._diags)} cached diagnostics)")


# ----------------------------------------------------------------------
# Whole-table entry point
# ----------------------------------------------------------------------


def analyze_flowtable(table: Any, *,
                      committed_spaces: Sequence[CommittedSpace] = (),
                      vmac_index: Optional[Mapping[MacAddress, str]] = None,
                      topology: Optional[Any] = None,
                      tables: Optional[Mapping[str, Any]] = None,
                      telemetry: Optional[Telemetry] = None) -> StaticsReport:
    """One-shot SDX010-SDX013 analysis of an installed flow table.

    Builds a throwaway verifier and returns its state report; the
    incremental path must render byte-identically to this for the same
    table and inputs (the fuzz soundness gate holds it to that).
    """
    spaces = tuple(committed_spaces)
    index = dict(vmac_index) if vmac_index is not None else None
    verifier = DataplaneVerifier(
        table,
        committed_spaces=(lambda: spaces),
        vmac_index=(None if index is None else (lambda: index)),
        topology=topology, tables=tables, mode="off", telemetry=telemetry)
    return verifier.state_report()


def analyze_controller_dataplane(controller: Any, *,
                                 telemetry: Optional[Telemetry] = None,
                                 ) -> StaticsReport:
    """Analyze a controller's installed table with live committed state."""
    return analyze_flowtable(
        controller.table,
        committed_spaces=committed_spaces_from_controller(controller),
        vmac_index=controller.allocator.vmac_index(),
        telemetry=telemetry if telemetry is not None else controller.telemetry)

"""The SDX policy compiler: policies + BGP state -> one flow table.

Runs the four syntactic transformations of Section 4.1 with the Section
4.2/4.3 scalability machinery:

1. **FEC computation** — group prefixes into forwarding equivalence
   classes (:mod:`repro.core.fec`) and assign VNH/VMAC pairs
   (:mod:`repro.core.vnh`).
2. **Default forwarding** — VMAC group clauses plus MAC-learning clauses
   (:mod:`repro.core.defaults`), layered *under* the policy rules.
3. **Per-participant outbound pipelines** — clause form with an ingress
   isolation guard and a VMAC (or prefix) eligibility guard per clause;
   traffic failing a clause's predicate or guard falls through to the
   default layer exactly (the paper's ``if_(matched, policy, default)``).
4. **Inbound pipelines** — per participant; remote participants'
   pipelines are composed through the physical ones.
5. **Composition** — disjoint stacking plus index-pruned sequential
   composition (:mod:`repro.core.composition`), block by block — each
   participant's outbound part, then the default layer — or the naive
   cross product when ``optimized=False`` (ablation).
6. **Reduction** — rules covered by an earlier rule are removed and the
   rest given their priorities, block by block (:meth:`SdxCompiler._reduce`).

Every stage is reused from the previous compilation when what it reads
has not changed (:meth:`SdxCompiler._reuse`, the paper's "memoize all the
intermediate compilation results"): a one-clause policy change rebuilds
one participant's block; a BGP update patches grouping and the default
layer for the prefixes it named and touches no inbound pipeline.

Flags:

``use_vnh=False``
    disables the whole tag architecture: eligibility guards match
    destination prefixes directly and no VNHs are advertised — the naive
    data plane whose rule explosion the MDS ablation quantifies.
``optimized=False``
    disables the control-plane composition optimisations (Section 4.3).
``reduce_table=False``
    skips shadow elimination, this library's own addition (Figures 7/8).
"""

from __future__ import annotations

import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple)

from repro.bgp.rib import PrefixTrie
from repro.bgp.routeserver import Decision, RouteServer
from repro.core.clauses import Clause
from repro.core.dynamic import resolve_dynamic
from repro.core.composition import (
    CompositionReport,
    compose_naive,
    compose_rules,
    sequential_compose_indexed,
    stack_fallback,
    strip_drop_tail,
)
from repro.core.defaults import (
    Entry,
    build_default_forwarding,
    build_participant_defaults,
    ingress_guard,
    mac_learning_clauses,
)
from repro.core.fec import (
    ContextId, Grouping, PrefixGroup, compute_prefix_groups, outbound_contexts)
from repro.core.participant import Participant
from repro.core.vnh import VnhAllocator
from repro.core.vswitch import VirtualTopology
from repro.exceptions import CompilationError
from repro.net.addresses import IPv4Prefix
from repro.net.mac import MacAddress
from repro.policy.classifier import Action, Classifier, ComposeStats, Rule, merge_drop_tail
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace, WILDCARD
from repro.policy.matchindex import MatchIndex
from repro.policy.policies import Conjunction, Predicate, match
from repro.policy.predicates import match_any
from repro.southbound.diff import DEFAULT_BAND_TOP, DROP_PRIORITY, PRIORITY_CEILING
from repro.telemetry import Telemetry

#: The stages :meth:`SdxCompiler._reuse` carries from one compilation to
#: the next (the ``stage`` label of ``sdx_compile_reuse_total``).
REUSE_STAGES = ("groups", "defaults", "inbound", "stage2",
                "outbound", "composition", "reduction")


def compile_clause_rules(predicate: Predicate, actions: Tuple[Action, ...],
                         fallback: Optional[Classifier],
                         stats: Optional[ComposeStats] = None,
                         masks: Optional[List[HeaderSpace]] = None) -> List[Rule]:
    """Rules for "``predicate`` → ``actions``, otherwise fall through".

    Compiles the predicate to a filter classifier and keeps only what the
    clause owns: identity rules become action rules, interior drop rules
    (negation masks) are expanded against ``fallback`` so masked traffic
    gets default treatment instead of vanishing, and the trailing
    "predicate didn't match" drops are removed so lower layers see the
    traffic. With ``fallback=None`` masks stay as drops. The match of each
    mask expanded is appended to ``masks``, if given.
    """
    filter_classifier = predicate.compile(stats)
    rules = filter_classifier.rules
    if not any(rule.is_identity for rule in rules):
        return []
    out: List[Rule] = []
    for index, rule in enumerate(rules):
        if rule.is_identity:
            out.append(Rule(rule.match, actions))
            continue
        if not rule.is_drop:
            raise CompilationError(
                f"clause predicate compiled to a non-filter rule: {rule!r}")
        # A drop rule here means "the predicate does not hold". It only
        # needs to stay if it *masks* a later identity rule (negation
        # produces these); plain fall-through drops are removed so lower
        # layers see the traffic.
        masks_later_match = any(
            later.is_identity and rule.match.intersect(later.match) is not None
            for later in rules[index + 1:])
        if not masks_later_match:
            continue
        if fallback is None:
            out.append(rule)
        else:
            if masks is not None:
                masks.append(rule.match)
            for fallback_rule in fallback.rules:
                merged = rule.match.intersect(fallback_rule.match)
                if merged is not None:
                    out.append(Rule(merged, fallback_rule.actions))
    return out


def compile_guarded_clauses(pairs: Iterable[Tuple[Predicate, Tuple[Action, ...]]],
                            fallback: Optional[Classifier],
                            stats: Optional[ComposeStats] = None,
                            masks: Optional[List[HeaderSpace]] = None
                            ) -> Classifier:
    """A (partial) classifier stacking clause rules in priority order.

    Compiled bottom-up so that a clause's negation masks expand against
    everything *below it* — later clauses first, then ``fallback`` — and
    masked traffic gets exactly the treatment it would get if the clause
    did not exist. Mask expansion copies below-stack rules, so it is paid
    only by clauses that actually contain negation; their matches go to
    ``masks``, if given.
    """
    pair_list = list(pairs)
    below = fallback
    layers: List[List[Rule]] = []
    for predicate, actions in reversed(pair_list):
        rules = compile_clause_rules(predicate, actions, below, stats, masks)
        layers.append(rules)
        if below is None:
            below = Classifier(rules)
        else:
            below = Classifier(tuple(rules) + below.rules)
    out: List[Rule] = []
    for rules in reversed(layers):
        out.extend(rules)
    return Classifier(out)


def clause_action(clause: Clause, port: Optional[int]) -> Tuple[Action, ...]:
    """The action tuple a clause installs (empty = drop)."""
    if clause.drops:
        return ()
    assignments = dict(clause.modifications)
    if port is not None:
        assignments["port"] = port
    return (Action(**assignments),)


def stack_pieces(pieces: Iterable[tuple],
                 below: Iterable[Rule] = ()) -> Classifier:
    """The default layer of ``pieces`` — each group's (exception rules,
    shared rules) — as one classifier: every exception over every shared
    rule, then ``below`` and the catch-all drop."""
    pieces = list(pieces)
    return Classifier([
        *(rule for exceptions, _shared in pieces for rule in exceptions),
        *(rule for _exceptions, shared in pieces for rule in shared),
        *below, Rule(WILDCARD, ())])


class _DefaultLayer:
    """The default layer, tag by tag: per VMAC, in group order, the group's
    ``(basis, (exception rules, shared rules))`` — every one of them pins
    that ``dstmac`` — then the MAC-learning rules. Stacked into one
    classifier only when something reads it whole (a negation mask
    expanded against it, the ablation, a test)."""

    __slots__ = ("pieces", "learning", "_classifier")

    def __init__(self, pieces: Dict[MacAddress, tuple],
                 learning: Tuple[Rule, ...]):
        self.pieces, self.learning = pieces, learning
        self._classifier: Optional[Classifier] = None

    @property
    def classifier(self) -> Classifier:
        """The layer stacked: exceptions, shared rules, learning, drop."""
        if self._classifier is None:
            self._classifier = stack_pieces(
                (piece for _basis, piece in self.pieces.values()),
                self.learning)
        return self._classifier

    @property
    def rules(self) -> Tuple[Rule, ...]:
        """:attr:`classifier`'s rules."""
        return self.classifier.rules

    def __len__(self) -> int:
        return 1 + len(self.learning) + sum(
            len(above) + len(shared)
            for _basis, (above, shared) in self.pieces.values())


class _OutboundPart:
    """One holder's stage 1, unit by unit: per tag (``None``: the whole
    block, where a rule pins no tag) its rules, in order. Laid out tag by
    tag, it also holds the clause filters and, per tag, the positions of
    the clauses eligible for it; compiled whole, the negation masks
    expanded against the fallback, that fallback and the rules of it they
    read."""

    __slots__ = ("units", "positions", "filters", "masks", "fallback", "read")

    def __init__(self, units: Dict[Optional[MacAddress], Tuple[Rule, ...]],
                 positions: Optional[dict] = None,
                 filters: Optional[tuple] = None, masks: tuple = (),
                 fallback: Any = None, read: tuple = ()):
        self.units, self.positions, self.filters = units, positions or {}, filters
        self.masks, self.fallback, self.read = masks, fallback, read

    @property
    def classifier(self) -> Classifier:
        """The block, unit after unit."""
        return Classifier(list(chain.from_iterable(self.units.values())))

    def __len__(self) -> int:
        return sum(map(len, self.units.values()))


class _ComposedDefaults:
    """A :class:`_DefaultLayer` through stage 2, tag by tag: per VMAC the
    piece it was composed from, what its rules became — the exceptions'
    first — and how many of those are the exceptions'; then the learning
    rules and what they became."""

    __slots__ = ("units", "learning")

    def __init__(self, units: Dict[MacAddress, tuple], learning: tuple):
        self.units, self.learning = units, learning

    def __len__(self) -> int:
        return 1 + len(self.learning[1]) + sum(
            len(rules) for _piece, rules, _split in self.units.values())

    def trailing_drops(self) -> Tuple[int, Dict[MacAddress, int]]:
        """The drops just above the catch-all, which merge into it: how
        many end the composed learning rules and, when those are all
        drops, how many end each tag's rules. In stack order the layer is
        every tag's exceptions, every tag's shared rules, the learning
        rules: what is cut of a tag is a suffix of its rules."""
        learning = self.learning[1]
        cut = _drops_at_end(learning)
        strip: Dict[MacAddress, int] = {}
        if cut < len(learning):
            return cut, strip
        units = list(self.units.items())
        for shared in (True, False):
            for vmac, (_piece, rules, split) in reversed(units):
                part = rules[split:] if shared else rules[:split]
                drops = _drops_at_end(part)
                if drops:
                    strip[vmac] = strip.get(vmac, 0) + drops
                if drops < len(part):
                    return cut, strip
        return cut, strip


def _drops_at_end(rules: Sequence[Rule]) -> int:
    """How many rules at the end of ``rules`` drop."""
    count = 0
    for rule in reversed(rules):
        if rule.actions:
            break
        count += 1
    return count


def _units(rules: Sequence[Rule]) -> Dict[Optional[MacAddress], List[Rule]]:
    """``rules`` by the tag (``dstmac``) they pin, each unit in order. Rules
    of two tags never overlap, so each unit numbers alone as it would among
    all of them; a rule that pins no tag may overlap every unit, so if one
    does they are all one unit, under ``None``."""
    units: Dict[Optional[MacAddress], List[Rule]] = {}
    for rule in rules:
        tag = rule.match.get("dstmac")
        if tag is None:
            return {None: list(rules)}
        units.setdefault(tag, []).append(rule)
    return units


def _depth(index: MatchIndex, match: HeaderSpace,
           unless_covered: bool) -> Optional[int]:
    """The *overlap depth* of ``match`` under what ``index`` holds: the
    length of the longest chain of filed matches, each overlapping the
    next, that ends in it — so matches of one depth are pairwise disjoint,
    and of two that overlap the later is the deeper. ``None`` if
    ``unless_covered`` and a filed match covers it."""
    depth = 0
    for bucket in index.meeting(match):
        for earlier, above in bucket.items():
            if unless_covered and earlier.covers(match):
                return None
            if above >= depth and earlier.overlaps(match):
                depth = above + 1
    return depth


#: The catch-all drop's block: one object, so every diff skips it.
_DROP_BLOCK = (FlowRule(DROP_PRIORITY, WILDCARD, ()),)


@dataclass
class CompilationResult:
    """Everything one compiler run produced."""

    #: The table, top first — holders' blocks, default layer, catch-all drop
    #: — each rule with the priority :meth:`SdxCompiler._reduce` keys it by.
    rules: Tuple[FlowRule, ...]
    groups: Tuple[PrefixGroup, ...]
    report: CompositionReport
    timings: Dict[str, float] = field(default_factory=dict)
    #: The inbound stage the table was composed with.
    stage2: Optional[Classifier] = None
    #: ``rules`` in the blocks :meth:`SdxCompiler._reduce` keys apart, top
    #: first: each holder's units (one per tag), the default layer's tags,
    #: its learning rules, the catch-all drop. A block a later compilation
    #: did not change is the same tuple there — the unit the southbound
    #: diff skips (:func:`repro.southbound.diff.compute_block_delta`).
    blocks: Tuple[Tuple[FlowRule, ...], ...] = ()
    #: ``(stage, name) -> (inputs, result)``, what the next compilation may
    #: reuse (:meth:`SdxCompiler._reuse`) — kept here, not on the compiler,
    #: so a compilation nobody holds takes its artefacts with it.
    reuse: Dict[tuple, Tuple[Any, Any]] = field(
        default_factory=dict, repr=False, compare=False)

    @cached_property
    def classifier(self) -> Classifier:
        """The table as a classifier: ``rules`` in order, priorities aside."""
        return Classifier([Rule(r.match, r.actions) for r in self.rules])

    @property
    def flow_rule_count(self) -> int:
        """Rules in the final table."""
        return len(self.rules)

    @property
    def prefix_group_count(self) -> int:
        """Forwarding equivalence classes in this compilation."""
        return len(self.groups)

    @property
    def total_seconds(self) -> float:
        """Wall-clock time of the whole compilation."""
        return self.timings.get("total", 0.0)


class SdxCompiler:
    """Compiles the SDX's current policies and routes to a flow table."""

    def __init__(self, topology: VirtualTopology, route_server: RouteServer,
                 allocator: VnhAllocator, *, use_vnh: bool = True,
                 optimized: bool = True, reduce_table: bool = True,
                 telemetry: Optional[Telemetry] = None):
        self.topology = topology
        self.route_server = route_server
        self.allocator = allocator
        self.use_vnh = use_vnh
        #: The field a clause's eligibility guard matches: the VMAC tag,
        #: or without VNHs the destination prefix itself.
        self.tag_field = "dstmac" if use_vnh else "dstip"
        self.optimized = optimized
        self.reduce_table = reduce_table
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        registry = self.telemetry.registry
        self._compiles_counter = registry.counter(
            "sdx_compile_total", "Full compilations run")
        self._compile_latency = registry.histogram(
            "sdx_compile_seconds", "Wall-clock seconds per full compilation")
        self._stage_latency = {
            stage: registry.histogram(
                "sdx_compile_stage_seconds",
                "Wall-clock seconds per compilation stage", stage=stage)
            for stage in ("fec", "vnh", "defaults", "outbound",
                          "inbound", "composition", "reduction")
        }
        self._reuse_counters = {
            (stage, hit): registry.counter(
                "sdx_compile_reuse_total",
                "Stage results reused from the previous compilation (hit) "
                "or rebuilt (miss)",
                stage=stage, outcome="hit" if hit else "miss")
            for stage in REUSE_STAGES for hit in (True, False)
        }
        self._rules_gauge = registry.gauge(
            "sdx_compile_rules", "Rules produced by the latest compilation")
        # The latest result, reached weakly: while someone holds it, its
        # ``reuse`` entries seed the next compilation.
        self._last: Callable[[], Optional[CompilationResult]] = lambda: None
        # The entries of the result under construction (``None`` outside a
        # compilation) and the stages it had to rebuild.
        self._kept: Optional[dict] = None
        self._rebuilt: set = set()
        self._work: Dict[str, int] = {}
        # Lazily materialised Loc-RIB views for dynamic predicates,
        # valid for one compilation only.
        self._rib_views: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    @contextmanager
    def _stage(self, key: str, timings: Dict[str, float]) -> Iterator[None]:
        """Time one pipeline stage into ``timings[key]`` under a child span."""
        with self.telemetry.span(f"compile.{key}"):
            step = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - step
                timings[key] = elapsed
                histogram = self._stage_latency.get(key)
                if histogram is not None:
                    histogram.observe(elapsed)

    def compile(self) -> CompilationResult:
        """Run the full pipeline against current state."""
        with self.telemetry.span("compile") as span:
            self._kept, self._rebuilt = {}, set()
            self._work = dict(dirty_prefixes=0, groups_rebuilt=0,
                              rules_numbered=0)
            try:
                result = self._compile(span)
            finally:
                self._kept = None
            span.set_tag(rebuilt=",".join(sorted(self._rebuilt)), **self._work)
        self.resume(result)
        self._compiles_counter.inc()
        self._compile_latency.observe(result.timings["total"])
        self._rules_gauge.set(len(result.rules))
        return result

    def _reuse(self, stage: str, name: Optional[str], inputs: Any,
               build: Callable[..., Any], patch: bool = False,
               stands: Optional[Callable[[Any], bool]] = None) -> Any:
        """``build()`` — or what it returned last time, if ``inputs`` equal
        what it was built from then. The compiler's one memo, counted per
        stage (:meth:`_carry` is the same memo, uncounted).

        ``inputs`` must hold everything ``build`` reads, by value (an
        earlier stage's result stands for itself: classifiers compare by
        identity); ``None`` opts out, for RIB-tracking predicates that
        resolve anew every time. What a build read that only its result
        can name, ``stands(result)`` checks. A stage that can ``patch`` is
        handed the kept entry, ``(inputs, result)`` or ``None``, to start
        from what still holds of it — copying what it changes: the entry
        stays the previous result's. A compilation carries on only the
        entries it asks for; outside one, the latest result's are read and
        extended in place.
        """
        hit, result = self._carry((stage, name), inputs, build, patch, stands)
        if not hit:
            self._rebuilt.add(stage)
        self._reuse_counters[stage, hit].inc()
        return result

    def _carry(self, key: tuple, inputs: Any, build: Callable[..., Any],
               patch: bool = False,
               stands: Optional[Callable[[Any], bool]] = None
               ) -> Tuple[bool, Any]:
        """:meth:`_reuse` under ``key``, uncounted: ``(hit, result)``."""
        last = self._last()
        previous = last.reuse if last is not None else {}
        entry = previous.get(key)
        hit = (inputs is not None and entry is not None
               and entry[0] == inputs and (stands is None or stands(entry[1])))
        if not hit:
            entry = (inputs, build(entry) if patch else build())
        (previous if self._kept is None else self._kept)[key] = entry
        return hit, entry[1]

    def resume(self, result: Optional[CompilationResult]) -> None:
        """Reuse from ``result`` next: the memo's part of undoing a change."""
        self._last = weakref.ref(result) if result is not None else lambda: None

    def invalidate_inbound_cache(self, name: Optional[str] = None) -> None:
        """Forget one participant's inbound pipeline — or, with no argument,
        every reuse entry, so that the next compilation is cold."""
        last = self._last()
        if name is None:
            self.resume(None)
        elif last is not None:
            last.reuse.pop(("inbound", name), None)

    def _compile(self, span) -> CompilationResult:
        timings: Dict[str, float] = {}
        report = CompositionReport()
        stats = report.stats
        self._rib_views.clear()
        started = time.perf_counter()

        participants = self.topology.participants()
        # What grouping and defaults read of membership; what they read of
        # routing they follow through the route server's change log.
        members = tuple((p.name, p.asn, p.switch_ports) for p in participants)

        with self._stage("fec", timings):
            groups, grouping, by_context = self._grouping(participants, members)

        with self._stage("vnh", timings):
            if self.use_vnh:
                self.allocator.assign_groups(groups)

        with self._stage("defaults", timings):
            layer = self._defaults(participants, members, groups, stats)

        with self._stage("outbound", timings):
            eligible = self._eligibility(grouping, by_context)
            if self.optimized:
                holders = self.topology.policy_holders()
                parts = [self._outbound_units(p, eligible, layer, stats)
                         for p in holders]
            else:
                holders = ()
                parts = self._naive_out_parts([
                    (self.allocator.vmac_for_group(group.group_id),
                     self.route_server.decide(group.representative))
                    for group in groups], eligible, stats)

        with self._stage("inbound", timings):
            inbound_parts = self._inbound_parts(stats)
            stage2 = self._reuse("stage2", None, inbound_parts,
                                 lambda: stack_fallback(inbound_parts))

        with self._stage("composition", timings):
            if self.optimized:
                # ``>>`` maps stage-1 rules one at a time, so it distributes
                # over the disjoint stack: compose block by block, and the
                # default layer tag by tag.
                composed = [self._composed_part(owner, part, stage2, stats)
                            for owner, part in zip(holders, parts)]
                tail = self._composed_defaults(layer, stage2, stats)
                report.stage1_rules = sum(map(len, parts)) + len(layer)
                report.stage2_rules = len(stage2)
                report.final_rules = len(tail) + sum(
                    len(rules) for units in composed
                    for _stage1, rules in units.values())
            else:
                composed = []
                tail = compose_naive(parts, inbound_parts, report)

        with self._stage("reduction", timings):
            blocks = self._reduce(holders, composed, tail)
            rules = tuple(chain.from_iterable(blocks))

        timings["total"] = time.perf_counter() - started
        span.set_tag(rules=len(rules), groups=len(groups))
        return CompilationResult(
            rules=rules, groups=tuple(groups), report=report,
            timings=timings, stage2=stage2, blocks=blocks, reuse=self._kept)

    # ------------------------------------------------------------------
    # Pipeline pieces
    # ------------------------------------------------------------------

    def _grouping(self, participants: Sequence[Participant], members: tuple
                  ) -> Tuple[List[PrefixGroup], Grouping, dict]:
        """The prefix groups, what they were grouped on (which finds the
        groups a ``dstip`` overlaps) and the groups eligible under each
        outbound context — patched for the prefixes the route server's log
        names since they were built and those a context that appeared or
        vanished reaches; from scratch on a membership or unnamed change."""
        if not self.use_vnh:
            return [], Grouping(), {}
        log = self.route_server.rib_changes
        contexts = frozenset(outbound_contexts(participants, self.route_server))

        def build(previous: Optional[tuple]) -> tuple:
            grouping, dirty = Grouping(), None
            if previous is not None and previous[0][1] == members:
                dirty = log.since(previous[0][0])
            if dirty is not None:
                grouping = previous[1][1].copy()
                dirty = set(dirty).union(*(
                    self.route_server.reachable_prefix_set(holder, via=target)
                    for holder, target in previous[0][2] ^ contexts))
            groups = compute_prefix_groups(
                participants, self.route_server, grouping, dirty)
            self._work["dirty_prefixes"] = (
                len(grouping.signatures) if dirty is None else len(dirty))
            by_context: Dict[ContextId, List[PrefixGroup]] = {}
            for group in groups:
                for context in group.contexts:
                    by_context.setdefault(context, []).append(group)
            return groups, grouping, by_context

        return self._reuse("groups", None, (log.version, members, contexts),
                           build, patch=True)

    @staticmethod
    def _clause_rules(clauses: Iterable[Clause],
                      stats: Optional[ComposeStats]) -> Tuple[Rule, ...]:
        """Default clauses, top first, as rules. They match positively —
        no masks to expand against what lies below — so each stands alone."""
        return tuple(
            rule for clause in clauses for rule in compile_clause_rules(
                clause.predicate, clause_action(clause, clause.target), None,
                stats))

    def _default_pieces(self, entries: Iterable[Entry],
                        stats: Optional[ComposeStats]) -> List[tuple]:
        """Per entry, its (exception rules, shared rules)."""
        layers = list(build_default_forwarding(entries, self.topology))
        # One layer after the other: like clauses compile faster together.
        return list(zip(
            [self._clause_rules(above, stats) for above, _shared in layers],
            [self._clause_rules(shared, stats) for _above, shared in layers]))

    def _defaults(self, participants: Sequence[Participant], members: tuple,
                  groups: Sequence[PrefixGroup],
                  stats: Optional[ComposeStats]) -> _DefaultLayer:
        """The default layer, group by group. A group's piece — what its
        ``Decision`` comes to under its tag — is kept while its VMAC and its
        ranking signature (paths and export-control communities with it)
        stand, so only new or changed groups are decided; none is kept
        across a membership or unnamed change, as an export policy's is."""
        log = self.route_server.rib_changes
        tags = tuple((self.allocator.vmac_for_group(group.group_id),
                      group.signature[1]) for group in groups)

        def build(previous: Optional[tuple]) -> _DefaultLayer:
            kept: dict = {}
            if (previous is not None and previous[0][1] == members
                    and log.since(previous[0][0]) is not None):
                if previous[0][2] == tags:
                    return previous[1]  # same pieces, same order
                kept = previous[1].pieces
            pieces = {vmac: kept.get(vmac) for vmac, _basis in tags}
            missing = [(vmac, basis, group)
                       for (vmac, basis), group in zip(tags, groups)
                       if pieces[vmac] is None or pieces[vmac][0] != basis]
            self._work["groups_rebuilt"] = len(missing)
            for (vmac, basis, _group), piece in zip(
                    missing, self._default_pieces((
                        (vmac, self.route_server.decide(group.representative))
                        for vmac, _basis, group in missing), stats)):
                pieces[vmac] = (basis, piece)
            learning = (previous[1].learning if kept else self._clause_rules(
                mac_learning_clauses(participants, self.topology), stats))
            return _DefaultLayer(pieces, learning)

        return self._reuse("defaults", None, (log.version, members, tags),
                           build, patch=True)

    def _composed_defaults(self, layer: _DefaultLayer, stage2: Classifier,
                           stats: Optional[ComposeStats]) -> _ComposedDefaults:
        """The default layer through stage 2, tag by tag: what the kept
        composition with the same stage 2 made of a piece stands."""
        def build(previous: Optional[tuple]) -> _ComposedDefaults:
            if stats is not None:
                stats.sequential_ops += 1
            kept: Optional[_ComposedDefaults] = (
                previous[1] if previous is not None
                and previous[0][1] is stage2 else None)
            units: Dict[MacAddress, tuple] = {}
            for vmac, piece in layer.pieces.items():
                unit = kept.units.get(vmac) if kept is not None else None
                if unit is None or unit[0] is not piece:
                    above, shared = piece[1]
                    composed = compose_rules(above, stage2, stats)
                    split = len(composed)
                    composed.extend(compose_rules(shared, stage2, stats))
                    unit = (piece, tuple(composed), split)
                units[vmac] = unit
            learning = (kept.learning if kept is not None
                        and kept.learning[0] is layer.learning
                        else (layer.learning, tuple(compose_rules(
                            layer.learning, stage2, stats))))
            return _ComposedDefaults(units, learning)

        return self._reuse("composition", None, (layer, stage2), build,
                           patch=True)

    def _eligibility(self, grouping: Grouping,
                     by_context: dict) -> Callable[..., tuple]:
        """(participant, its clauses) -> per clause, the tags it may match:
        the VMACs of the prefix groups eligible toward its target, or —
        without VNHs — the eligible prefixes themselves; ``None`` for a drop
        clause, which applies whatever the tag. With VNHs a participant's
        tuple is kept while its clauses, the grouping and the allocator's
        assignment stand: worked out once per grouping, not per compile."""
        def tags(participant: str, target: Optional[str],
                 dstip_limit=None) -> Optional[tuple]:
            if target is None:
                return None
            if not self.route_server.is_peer(target):
                return ()  # not a route-server peer: reaches nothing
            if not self.use_vnh:
                reachable = self.route_server.reachable_prefixes(
                    participant, via=target)
                if dstip_limit is not None:
                    reachable = tuple(
                        p for p in reachable if p.overlaps(dstip_limit))
                return reachable
            eligible = by_context.get((participant, target), ())
            if dstip_limit is not None:
                allowed = self._groups_overlapping(
                    grouping.signatures, dstip_limit)
                eligible = [g for g in eligible if g.signature in allowed]
            return tuple(self.allocator.vmac_for_group(g.group_id)
                         for g in eligible)

        def per_clause(participant: Participant,
                       clauses: Sequence[Clause]) -> tuple:
            def build() -> tuple:
                return tuple(
                    tags(participant.name,
                         None if clause.drops else str(clause.target),
                         clause.dstip)
                    for clause in clauses)

            if not self.use_vnh:
                return build()
            return self._carry(
                ("tags", participant.name),
                (clauses, grouping, self.allocator.generation), build)[1]

        return per_clause

    @staticmethod
    def _groups_overlapping(signatures: PrefixTrie, dstip_limit) -> set:
        """The signatures of the groups whose prefixes overlap
        ``dstip_limit``: those of the stored prefixes that contain it and
        of those it contains."""
        allowed = {signature
                   for _prefix, signature in signatures.covering(dstip_limit)}
        if dstip_limit.length < 32:
            allowed.update(
                signature
                for _prefix, signature in signatures.covered_by(dstip_limit))
        return allowed

    def _resolved_predicate(self, participant: Participant, clause: Clause,
                            views: Optional[dict] = None) -> Predicate:
        """The clause predicate with live RIB filters bound to the owner.

        The Loc-RIB view is materialised lazily, once per participant per
        compilation (per fast-path invocation, which brings its own
        ``views``), and only when some clause actually uses a dynamic
        predicate.
        """
        if not clause.dynamic:
            return clause.predicate
        if views is None:
            views = self._rib_views
        view = views.get(participant.name)
        if view is None:
            view = views[participant.name] = self.route_server.view_for(
                participant.name)
        return resolve_dynamic(clause.predicate, view)

    @staticmethod
    def _unless_dynamic(clauses: Sequence[Clause], inputs: Any) -> Any:
        """``inputs`` as a :meth:`_reuse` key for something built from
        ``clauses`` — ``None`` (never reused) if one of them tracks the RIB."""
        return None if any(c.dynamic for c in clauses) else inputs

    def _outbound_part(self, participant: Participant,
                       clauses: Sequence[Clause], tags: tuple,
                       fallback: Classifier, stats: Optional[ComposeStats],
                       views: Optional[dict] = None,
                       tag_field: Optional[str] = None,
                       kept: Optional[_OutboundPart] = None) -> _OutboundPart:
        """One participant's ``clauses`` as a partial classifier, unit by
        unit: each clause isolated to its owner's ports, joined with BGP
        (Transformation 2) through its ``tags`` — matched on
        ``tag_field``, :attr:`tag_field` by default; ``None`` for a drop
        clause, which applies whatever the tag — and falling through to
        ``fallback``. ``views``: the Loc-RIB views of one fast-path
        invocation, if that is who asks.

        When every clause is matched on a VMAC tag and no clause's filter
        (:meth:`_clause_filters`) has a rule overlapping a later match, no
        negation mask is expanded under any tags, so a tag's rules are its
        eligible clauses' filter matches under the tag: the block is laid
        out tag by tag, and a tag whose eligible clauses are those it had
        in ``kept`` keeps its rules. Otherwise the block is compiled whole,
        its negation masks expanded against ``fallback``, and cut into
        units (:func:`_units`); a unit equal to the kept one is that object.
        """
        def action(clause: Clause) -> Tuple[Action, ...]:
            return clause_action(clause, None if clause.drops
                                 else self.topology.vport(str(clause.target)))

        if not any(allowed is None or allowed for allowed in tags):
            return _OutboundPart({})  # no clause can fire
        tag_field = tag_field or self.tag_field
        filters = (self._clause_filters(participant, clauses, tags, stats,
                                        views)
                   if tag_field == "dstmac" and None not in tags else None)
        if filters is None:
            ingress = ingress_guard(participant)
            pairs: List[Tuple[Predicate, Tuple[Action, ...]]] = []
            for clause, allowed in zip(clauses, tags):
                if allowed is not None and not allowed:
                    continue  # eligible nowhere: the clause cannot fire
                guarded = [ingress,
                           self._resolved_predicate(participant, clause, views)]
                if allowed is not None:
                    guarded.append(match_any(tag_field, allowed))
                pairs.append((Conjunction(guarded), action(clause)))
            masks: List[HeaderSpace] = []
            units = {tag: tuple(rules) for tag, rules in _units(
                compile_guarded_clauses(pairs, fallback, stats, masks).rules
            ).items()}
            if kept is not None:
                for tag, rules in units.items():
                    if kept.units.get(tag) == rules:
                        units[tag] = kept.units[tag]
            return _OutboundPart(
                units, masks=tuple(masks), fallback=fallback,
                read=self._read(masks, fallback) if masks else ())
        positions: Dict[MacAddress, Any] = {}
        for position, allowed in enumerate(tags):
            for tag in allowed:
                positions.setdefault(tag, []).append(position)
        held = (kept.positions if kept is not None and kept.filters is filters
                else {})
        actions = {position: action(clauses[position])
                   for position, allowed in enumerate(tags) if allowed}
        units = {}
        for tag, where in positions.items():
            where = positions[tag] = tuple(where)
            if held.get(tag) == where:
                units[tag] = kept.units[tag]
                continue
            space = HeaderSpace(dstmac=tag)
            units[tag] = tuple(
                Rule(match, actions[position]) for position in where
                for unguarded in filters[position]
                if (match := unguarded.intersect(space)) is not None)
        return _OutboundPart(units, positions, filters)

    def _outbound_units(self, participant: Participant,
                        eligible: Callable[..., tuple], fallback: Classifier,
                        stats: Optional[ComposeStats]) -> _OutboundPart:
        """One holder's stage 1 (:meth:`_outbound_part`), built from the
        part the last compilation kept. A compilation reuses the part while
        its clauses and tags are the same and — if a negation mask was
        expanded against ``fallback`` — so are the rules of it the masks
        overlap (:meth:`_read`).
        """
        clauses = participant.outbound_clauses()
        tags = eligible(participant, clauses)

        def build(previous: Optional[tuple]) -> _OutboundPart:
            return self._outbound_part(
                participant, clauses, tags, fallback, stats,
                kept=previous[1] if previous is not None else None)

        def stands(kept: _OutboundPart) -> bool:
            return (not kept.masks or kept.fallback is fallback
                    or kept.read == self._read(kept.masks, fallback))

        return self._reuse(
            "outbound", participant.name,
            self._unless_dynamic(clauses, (clauses, tags)), build,
            patch=True, stands=stands)

    def _clause_filters(self, participant: Participant,
                        clauses: Sequence[Clause], tags: tuple,
                        stats: Optional[ComposeStats],
                        views: Optional[dict] = None) -> Optional[tuple]:
        """Per clause, the matches its compiled filter — ingress guard and
        predicate, no tag — lets through, in order (none for a clause its
        ``tags`` let fire nowhere); or ``None`` if one of them may need a
        mask under some tags: a rule of its filter overlaps a later
        identity rule, so a packet a tag keeps out of the earlier would
        have to fall past the later. A compilation keeps them while the
        clauses, the ones that can fire and the owner's ports stand; the
        fast path (``views``) builds its own."""
        fires = tuple(map(bool, tags))

        def build() -> Optional[tuple]:
            ingress = None
            out = []
            for clause, fire in zip(clauses, fires):
                if not fire:
                    out.append(())
                    continue
                if ingress is None:
                    ingress = ingress_guard(participant)
                rules = Conjunction((ingress, self._resolved_predicate(
                    participant, clause, views))).compile(stats).rules
                if any(later.is_identity and rule.match.overlaps(later.match)
                       for at, rule in enumerate(rules)
                       for later in rules[at + 1:]):
                    return None
                out.append(
                    tuple(rule.match for rule in rules if rule.is_identity))
            return tuple(out)

        if views is not None:
            return build()
        return self._carry(
            ("filters", participant.name), self._unless_dynamic(
                clauses, (clauses, fires, participant.switch_ports)), build)[1]

    def _composed_part(self, owner: Participant, part: _OutboundPart,
                       stage2: Classifier, stats: Optional[ComposeStats]
                       ) -> Dict[Optional[MacAddress], tuple]:
        """A holder's stage 1 through stage 2, unit by unit: per unit its
        stage-1 rules and what they became; a unit kept from the last
        composition with the same stage 2 stands."""
        def build(previous: Optional[tuple]) -> dict:
            if stats is not None:
                stats.sequential_ops += 1
            kept = (previous[1] if previous is not None
                    and previous[0][1] is stage2 else {})
            out = {}
            for tag, rules in part.units.items():
                old = kept.get(tag)
                out[tag] = (old if old is not None and old[0] is rules else
                            (rules, tuple(compose_rules(rules, stage2, stats))))
            return out

        return self._reuse("composition", owner.name, (part, stage2), build,
                           patch=True)

    @staticmethod
    def _read(masks: Sequence[HeaderSpace], fallback: Classifier) -> tuple:
        """The rules of ``fallback`` that expanding ``masks`` reads: those
        whose match overlaps one of them, in order."""
        return tuple(rule for rule in fallback.rules if any(
            mask.intersect(rule.match) is not None for mask in masks))

    def compile_prefix(self, prefix: IPv4Prefix, vmac: MacAddress,
                       decision: Decision, stage2: Classifier,
                       views: dict) -> List[Rule]:
        """The fast path's rules for one updated prefix (Section 4.3.2).

        The same policy recompiled for the singleton group ``{prefix}``
        under its fresh ``vmac``: stage 1 from the builders a full
        compilation uses, restricted to that one tag — a clause gets it iff
        it can fire for ``prefix`` — then composed with the installed
        ``stage2``. Pure: reads no memo, leaves none. ``views`` holds the
        Loc-RIB views of one fast-path invocation.
        """
        def tags(participant: str, clause: Clause) -> tuple:
            dstip_limit = clause.dstip
            if dstip_limit is not None and not dstip_limit.overlaps(prefix):
                return ()
            target = str(clause.target)
            if clause.drops or (self.route_server.is_peer(target)
                                and self.route_server.is_reachable(
                                    participant, prefix, via=target)):
                return (vmac,)
            return ()

        defaults = stack_pieces(self._default_pieces(
            [(vmac, decision)], None))
        parts = []
        for holder in self.topology.policy_holders():
            clauses = holder.outbound_clauses()
            parts.append(self._outbound_part(
                holder, clauses,
                tuple(tags(holder.name, clause) for clause in clauses),
                defaults, None, views, "dstmac").classifier)
        return strip_drop_tail(sequential_compose_indexed(
            stack_fallback(parts + [defaults]), stage2))

    def _naive_out_parts(self, entries: Sequence[Entry],
                         eligible: Callable[..., Optional[tuple]],
                         stats: Optional[ComposeStats]) -> List[Classifier]:
        """Per-participant total outbound classifiers (ablation path).

        Each participant's policy part is stacked over its own literal
        ``defA`` default clauses, reproducing the paper's pre-optimisation
        construction with groups × participants default redundancy.
        """
        participants = self.topology.participants()
        parts: List[Classifier] = []
        for participant in participants:
            if participant.is_remote:
                continue
            defaults_classifier = stack_pieces([((), self._clause_rules(
                build_participant_defaults(
                    participant, participants, entries, self.topology),
                stats))])
            layers: List[Classifier] = []
            if participant.outbound_clauses():
                layers.append(self._outbound_units(
                    participant, eligible, defaults_classifier,
                    stats).classifier)
            layers.append(defaults_classifier)
            parts.append(stack_fallback(layers))
        return parts

    def _inbound_parts(self, stats: Optional[ComposeStats]
                       ) -> Tuple[Classifier, ...]:
        physical: List[Classifier] = []
        remote_sources: List[Participant] = []
        for participant in self.topology.participants():
            if participant.is_remote:
                if participant.inbound_clauses():
                    remote_sources.append(participant)
                continue
            physical.append(self._inbound_pipeline(participant, stats))
        if not remote_sources:
            return tuple(physical)
        pipelines = tuple(physical)
        physical_stage = self._reuse("stage2", "physical", pipelines,
                                     lambda: stack_fallback(pipelines))
        return pipelines + tuple(
            self._remote_pipeline(participant, physical_stage, stats)
            for participant in remote_sources)

    def _inbound_pairs(self, participant: Participant,
                       clauses: Sequence[Clause],
                       port_of: Callable[[Clause], int]
                       ) -> List[Tuple[Predicate, Tuple[Action, ...]]]:
        """``clauses`` guarded on the participant's virtual port, each
        forwarding to ``port_of(clause)`` (or dropping)."""
        vport_guard = match(port=self.topology.vport(participant.name))
        return [
            (Conjunction((vport_guard,
                          self._resolved_predicate(participant, clause))),
             () if clause.drops else clause_action(clause, port_of(clause)))
            for clause in clauses]

    def _inbound_pipeline(self, participant: Participant,
                          stats: Optional[ComposeStats] = None) -> Classifier:
        """Build (or reuse) one physical participant's inbound pipeline.

        It reads nothing but the participant's own inbound clauses: BGP
        updates and outbound policy changes never rebuild it — the
        paper's "memoize all the intermediate compilation results".
        """
        clauses = participant.inbound_clauses()

        def build() -> Classifier:
            delivery = compile_guarded_clauses(
                [(match(port=self.topology.vport(participant.name)),
                  (Action(port=participant.main_port),))], None, stats)
            pairs = self._inbound_pairs(
                participant, clauses,
                lambda clause: (clause.target if clause.target is not None
                                else participant.main_port))
            selected = stack_fallback(
                [compile_guarded_clauses(
                    pairs, stack_fallback([delivery]), stats), delivery])
            rewrite = stack_fallback([compile_guarded_clauses(
                [(match(port=port.switch_port), (Action(dstmac=port.mac),))
                 for port in participant.router.ports],
                None, stats)])
            return sequential_compose_indexed(selected, rewrite, stats)

        return self._reuse("inbound", participant.name,
                           self._unless_dynamic(clauses, clauses), build)

    def _remote_pipeline(self, participant: Participant,
                         physical_stage: Classifier,
                         stats: Optional[ComposeStats]) -> Classifier:
        """A remote participant's pipeline, piped through the physical one.

        Remote inbound clauses end in ``fwd("B")``; after resolving to B's
        virtual port the result is composed with the physical inbound
        stage so B's own inbound policies and MAC rewrite still apply.
        """
        clauses = participant.inbound_clauses()

        def build() -> Classifier:
            pairs = self._inbound_pairs(
                participant, clauses,
                lambda clause: self.topology.vport(str(clause.target)))
            own = stack_fallback([compile_guarded_clauses(pairs, None, stats)])
            return sequential_compose_indexed(own, physical_stage, stats)

        return self._reuse(
            "inbound", participant.name,
            self._unless_dynamic(clauses, (clauses, physical_stage)), build)

    def _reduce(self, holders: Sequence[Participant],
                composed: Sequence[dict],
                tail: Any) -> Tuple[Tuple[FlowRule, ...], ...]:
        """The final table, in blocks: every rule keyed by the top of its
        band less its *overlap depth* — the length of the longest chain of
        earlier rules, each overlapping the next, that ends in it — so of
        two rules that overlap the earlier wins and a key moves only when
        something it overlaps does; unless ``reduce_table`` is off, a rule
        an earlier one covers is removed.

        Depth is taken per *unit* (:meth:`_numbered`): the rules of one
        ``dstmac`` tag, which no other tag's overlap — or, where a rule
        pins no tag, everything it may overlap. Each holder's block (the
        band under :data:`PRIORITY_CEILING`) matches only its owner's
        ingress ports and is cut into units on its own. The default layer
        (the band below) is carried tag by tag: a tag's piece, its
        composition with stage 2 (:meth:`_composed_defaults`), its
        numbering and the holder rules that cover its exceptions are kept
        while they stand, and so is the tag's block, the very object — the
        unit the southbound diff skips. The catch-all drop has one priority
        under both bands. The ablation's one table (``tail``, a classifier)
        is cut into units whole.
        """
        above = [self._reuse(
            "reduction", owner.name, block,
            lambda previous: self._holder_units(block, previous), patch=True)
            for owner, block in zip(holders, composed)]
        out = [numbered for units in above
               for _composed, (numbered, _index) in units.values()]
        if isinstance(tail, Classifier):
            return (*out, *self._reuse("reduction", None, tail,
                                       lambda: self._table_units(tail)))
        numbered = self._reuse(
            "reduction", None, tail,
            lambda previous: self._default_units(tail, previous), patch=True)
        covering: Dict[int, dict] = {}
        if self.reduce_table:
            for owner, units in zip(holders, above):
                covering.update(dict.fromkeys(owner.switch_ports, units))
        return (*out, *self._uncovered(numbered, covering), _DROP_BLOCK)

    def _numbered(self, rules: Sequence[Rule], top: int, floor: int
                  ) -> Tuple[Tuple[FlowRule, ...], MatchIndex]:
        """One unit's rules keyed from ``top`` down by overlap depth, and
        the index they are filed in (payload: depth)."""
        index: MatchIndex[int] = MatchIndex()
        out: List[FlowRule] = []
        unless_covered, deepest = self.reduce_table, 0
        for rule in rules:
            depth = _depth(index, rule.match, unless_covered)
            if depth is not None:
                index.add(rule.match, depth)
                out.append(FlowRule(top - depth, rule.match, rule.actions))
                deepest = max(deepest, depth)
        self._work["rules_numbered"] += len(rules)
        if top - deepest <= floor:
            raise CompilationError(f"overlaps {top - floor} deep: band is full")
        return tuple(out), index

    def _holder_units(self, composed: dict, previous: Optional[tuple]
                      ) -> Dict[Optional[MacAddress], tuple]:
        """A holder's composed units numbered: per unit its composed rules
        and the pair of them keyed and their index. A unit whose composed
        rules stand keeps its entry; one that numbers as it did keeps the
        pair, the same object, so the diff skips it and the exceptions it
        covers stay covered as they were."""
        kept = previous[1] if previous is not None else {}
        units: Dict[Optional[MacAddress], tuple] = {}
        for tag, (_stage1, rules) in composed.items():
            old = kept.get(tag)
            if old is None or old[0] is not rules:
                pair = self._numbered(
                    rules, PRIORITY_CEILING - 1, DEFAULT_BAND_TOP)
                if old is not None and old[1][0] == pair[0]:
                    pair = old[1]
                old = (rules, pair)
            units[tag] = old
        return units

    def _default_units(self, tail: _ComposedDefaults,
                       previous: Optional[tuple]) -> tuple:
        """The default layer numbered tag by tag — a tag whose composed
        rules (and the drops cut off their end) stand keeps its numbered
        rules — with, per tag, the ingress ports its rules pin; then the
        learning rules' units, numbered as one block."""
        kept = previous[1] if previous is not None else None
        learning_cut, strip = tail.trailing_drops()
        units: Dict[MacAddress, tuple] = {}
        for vmac, unit in tail.units.items():
            cut = strip.get(vmac, 0)
            old = kept[0].get(vmac) if kept is not None else None
            if old is None or old[0] is not unit or old[1] != cut:
                rules = unit[1][:len(unit[1]) - cut] if cut else unit[1]
                numbered = self._numbered(rules, DEFAULT_BAND_TOP,
                                          DROP_PRIORITY)[0]
                if old is not None and old[2] == numbered:
                    numbered = old[2]
                old = (unit, cut, numbered, frozenset(
                    rule.match.get("port") for rule in numbered).difference(
                        (None,)))
            units[vmac] = old
        learning = tail.learning[1]
        if kept is not None and kept[1][0] is learning \
                and kept[1][1] == learning_cut:
            numbered_learning = kept[1]
        else:
            numbered_learning = (learning, learning_cut, tuple(chain.from_iterable(
                self._numbered(rules, DEFAULT_BAND_TOP, DROP_PRIORITY)[0]
                for rules in _units(
                    learning[:len(learning) - learning_cut]).values())))
        return units, numbered_learning

    def _table_units(self, tail: Classifier) -> List[Tuple[FlowRule, ...]]:
        """The ablation's one table in blocks: its trailing drops merged
        into the catch-all, the rest numbered unit by unit."""
        *body, last = merge_drop_tail(tail).rules
        return [*(self._numbered(rules, DEFAULT_BAND_TOP, DROP_PRIORITY)[0]
                  for rules in _units(body).values()),
                (FlowRule(DROP_PRIORITY, last.match, last.actions),)]

    def _uncovered(self, numbered: tuple, covering: Dict[int, dict]
                   ) -> Iterator[Tuple[FlowRule, ...]]:
        """Each tag's numbered rules less those a holder's rules cover: an
        exception on a holder's ingress port, covered by that holder's
        unit of the same tag (or its one untagged unit). A tag is filtered
        anew only when its rules or those units are new; the rest keep
        their block, the same object. Then the learning rules' block."""
        units, learning = numbered

        def build(previous: Optional[tuple]) -> dict:
            kept = previous[1] if previous is not None else {}
            blocks: Dict[MacAddress, tuple] = {}
            for vmac, (_unit, _cut, rules, ports) in units.items():
                if not ports or covering.keys().isdisjoint(ports):
                    blocks[vmac] = (rules, (), rules)
                    continue
                above = tuple((port, *(unit[1] for unit in (
                    covering[port].get(vmac), covering[port].get(None))
                    if unit is not None)) for port in sorted(ports)
                    if port in covering)
                old = kept.get(vmac)
                if old is not None and old[0] is rules and old[1] == above:
                    blocks[vmac] = old
                    continue
                indexes = {port: [index for _rules, index in pairs]
                           for port, *pairs in above}
                block = tuple(rule for rule in rules if not any(
                    index.covers(rule.match)
                    for index in indexes.get(rule.match.get("port"), ())))
                if old is not None and old[2] == block:
                    block = old[2]
                blocks[vmac] = (rules, above, block)
            return blocks

        blocks = self._carry(("cover", None), (units, tuple(covering.items())),
                             build, patch=True)[1]
        for _rules, _above, block in blocks.values():
            if block:
                yield block
        if learning[2]:
            yield learning[2]

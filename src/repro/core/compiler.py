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
from itertools import chain, groupby
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple)

from repro.bgp.rib import PrefixTrie
from repro.bgp.routeserver import Decision, RouteServer
from repro.core.clauses import Clause
from repro.core.dynamic import resolve_dynamic
from repro.core.composition import (
    CompositionReport,
    compose_naive,
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
from repro.policy.matchindex import MatchIndex, file_at_depth
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
    #: first: each holder's, the default layer's runs, the catch-all drop.
    #: A block a later compilation did not change is the same tuple there —
    #: the unit the southbound diff skips (:func:`repro.southbound.diff.
    #: compute_block_delta`).
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
            self._work = dict(dirty_prefixes=0, groups_rebuilt=0)
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
            defaults_classifier = self._defaults(participants, members, groups, stats)

        with self._stage("outbound", timings):
            eligible = self._eligibility(grouping, by_context)
            # One block per policy holder, then (``None``) the default layer.
            owners = [*self.topology.policy_holders(), None]
            if self.optimized:
                parts = [self._outbound_part(p, eligible, defaults_classifier,
                                             stats) for p in owners[:-1]]
                parts.append(defaults_classifier)
            else:
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
                # over the disjoint stack: compose block by block.
                blocks = [
                    self._reuse("composition", owner.name, (part, stage2),
                                lambda: sequential_compose_indexed(
                                    part, stage2, stats))
                    for owner, part in zip(owners, parts[:-1])]
                blocks.append(self._composed_defaults(parts[-1], stage2, stats))
                report.stage1_rules = sum(map(len, parts))
                report.stage2_rules = len(stage2)
                report.final_rules = sum(map(len, blocks))
            else:
                owners = [None]
                blocks = [compose_naive(parts, inbound_parts, report)]

        with self._stage("reduction", timings):
            numbered = self._reduce(owners, blocks)
            rules = tuple(chain.from_iterable(numbered))

        timings["total"] = time.perf_counter() - started
        span.set_tag(rules=len(rules), groups=len(groups))
        return CompilationResult(
            rules=rules, groups=tuple(groups), report=report,
            timings=timings, stage2=stage2, blocks=numbered, reuse=self._kept)

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

    @staticmethod
    def _stack_pieces(pieces: Iterable[tuple],
                      below: Iterable[Rule] = ()) -> Classifier:
        """The default layer of ``pieces``: every exception over every
        shared rule, then ``below`` and the catch-all drop."""
        pieces = list(pieces)
        return Classifier([
            *(rule for exceptions, _shared in pieces for rule in exceptions),
            *(rule for _exceptions, shared in pieces for rule in shared),
            *below, Rule(WILDCARD, ())])

    def _defaults(self, participants: Sequence[Participant], members: tuple,
                  groups: Sequence[PrefixGroup],
                  stats: Optional[ComposeStats]) -> Classifier:
        """The default layer, group by group. A group's piece — what its
        ``Decision`` comes to under its tag — is kept while its VMAC and its
        ranking signature (paths and export-control communities with it)
        stand, so only new or changed groups are decided; none is kept
        across a membership or unnamed change, as an export policy's is."""
        log = self.route_server.rib_changes
        tags = tuple((self.allocator.vmac_for_group(group.group_id),
                      group.signature[1]) for group in groups)

        def build(previous: Optional[tuple]) -> tuple:
            kept: dict = {}
            if (previous is not None and previous[0][1] == members
                    and log.since(previous[0][0]) is not None):
                if previous[0][2] == tags:
                    return previous[1]  # same pieces, same order
                kept = previous[1][1]
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
            learning = (previous[1][2] if kept else self._clause_rules(
                mac_learning_clauses(participants, self.topology), stats))
            return (self._stack_pieces(
                (piece for _basis, piece in pieces.values()), learning),
                pieces, learning)

        return self._reuse("defaults", None, (log.version, members, tags),
                           build, patch=True)[0]

    def _composed_defaults(self, part: Classifier, stage2: Classifier,
                           stats: Optional[ComposeStats]) -> Classifier:
        """The default layer through stage 2 — rule by rule, so what the
        kept composition with the same stage 2 made of a rule stands."""
        def build(previous: Optional[tuple]) -> tuple:
            kept = (previous[1][1] if previous is not None
                    and previous[0][1] is stage2 else None)
            by_rule: dict = {}
            return sequential_compose_indexed(
                part, stage2, stats, kept, by_rule), by_rule

        return self._reuse("composition", None, (part, stage2), build,
                           patch=True)[0]

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
                       eligible: Callable[..., tuple],
                       fallback: Classifier, stats: Optional[ComposeStats],
                       views: Optional[dict] = None,
                       tag_field: Optional[str] = None) -> Classifier:
        """One participant's outbound clauses as a partial classifier: each
        one isolated to its owner's ports, joined with BGP (Transformation
        2) through the tags ``eligible`` allows it — matched on
        ``tag_field``, :attr:`tag_field` by default — and falling through
        to ``fallback``.

        A compilation reuses the block while its clauses and those tags are
        the same and — if a negation mask was expanded against ``fallback``
        — so are the rules of it the masks overlap (:meth:`_read`): a BGP
        update that moves no tag of the holder's keeps its block. The fast
        path — which brings its own Loc-RIB ``views`` — builds it for its
        one fresh group and leaves the memo alone.
        """
        clauses = participant.outbound_clauses()
        tags = eligible(participant, clauses)

        def build() -> tuple:
            ingress = ingress_guard(participant)
            pairs: List[Tuple[Predicate, Tuple[Action, ...]]] = []
            for clause, allowed in zip(clauses, tags):
                if allowed is not None and not allowed:
                    continue  # eligible nowhere: the clause cannot fire
                guarded = [ingress,
                           self._resolved_predicate(participant, clause, views)]
                if allowed is not None:
                    guarded.append(match_any(tag_field or self.tag_field,
                                             allowed))
                pairs.append((Conjunction(guarded), clause_action(
                    clause, None if clause.drops
                    else self.topology.vport(str(clause.target)))))
            masks: List[HeaderSpace] = []
            part = compile_guarded_clauses(pairs, fallback, stats, masks)
            return (part, tuple(masks), fallback,
                    self._read(masks, fallback) if masks else ())

        def stands(kept: tuple) -> bool:
            _part, masks, below, read = kept
            return (not masks or below is fallback
                    or read == self._read(masks, fallback))

        if views is not None:
            return build()[0]
        return self._reuse(
            "outbound", participant.name,
            self._unless_dynamic(clauses, (clauses, tags)), build,
            stands=stands)[0]

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

        def eligible(participant: Participant,
                     clauses: Sequence[Clause]) -> tuple:
            return tuple(tags(participant.name, clause) for clause in clauses)

        defaults = self._stack_pieces(self._default_pieces(
            [(vmac, decision)], None))
        parts = [self._outbound_part(p, eligible, defaults, None, views,
                                     "dstmac")
                 for p in self.topology.policy_holders()]
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
            defaults_classifier = self._stack_pieces([((), self._clause_rules(
                build_participant_defaults(
                    participant, participants, entries, self.topology),
                stats))])
            layers: List[Classifier] = []
            if participant.outbound_clauses():
                layers.append(self._outbound_part(
                    participant, eligible, defaults_classifier, stats))
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

    def _reduce(self, owners: Sequence[Optional[Participant]],
                blocks: Sequence[Classifier]
                ) -> Tuple[Tuple[FlowRule, ...], ...]:
        """The final table, in blocks: ``blocks`` stacked, trailing drops
        merged, — unless ``reduce_table`` is off — shadowed rules removed,
        and every rule keyed: the top of its block's band less its overlap
        depth in the block (:func:`~repro.policy.matchindex.file_at_depth`,
        the level a flow table files it on), so of two rules that overlap
        the earlier wins and a key moves only when something it overlaps
        does.

        Each block but the last matches only its owner's ingress ports, so
        it is reduced and numbered on its own, and they share a band. The
        last (the default layer, or the whole naive table) has the band
        below; of its rules only an exception guarded on a holder's port
        can be covered from above, and only by that holder's block — so it
        is cut into runs of one ingress port (:meth:`_uncovered`). The last
        rule of all, the catch-all drop, has one priority under both.
        """
        def numbered(rules: Sequence[Rule], top: int, floor: int) -> tuple:
            index: MatchIndex[int] = MatchIndex()
            out = tuple(FlowRule(top - depth, rule.match, rule.actions)
                        for rule in rules if (depth := file_at_depth(
                            index, rule.match,
                            unless_covered=self.reduce_table)) is not None)
            if any(rule.priority <= floor for rule in out):
                raise CompilationError(f"overlaps {top - floor} deep: band is full")
            return out, index

        def runs(tail: Classifier) -> tuple:
            *body, last = merge_drop_tail(tail).rules
            kept, _index = numbered(body, DEFAULT_BAND_TOP, DROP_PRIORITY)
            return ([(port, tuple(run)) for port, run in groupby(
                        kept, lambda rule: rule.match.get("port"))],
                    (FlowRule(DROP_PRIORITY, last.match, last.actions),))

        *above, tail = blocks
        out: List[Tuple[FlowRule, ...]] = []
        index_above: Dict[int, MatchIndex[int]] = {}
        for owner, block in zip(owners, above):
            kept, index = self._reuse(
                "reduction", owner.name, block, lambda: numbered(
                    block.rules, PRIORITY_CEILING - 1, DEFAULT_BAND_TOP))
            out.append(kept)
            if self.reduce_table:
                index_above.update(dict.fromkeys(owner.switch_ports, index))
        default_runs, drop = self._reuse("reduction", None, tail,
                                         lambda: runs(tail))
        out.extend(self._uncovered(default_runs, index_above))
        out.append(drop)
        return tuple(out)

    def _uncovered(self, runs: Sequence[tuple],
                   index_above: Dict[int, MatchIndex[int]]
                   ) -> Iterator[Tuple[FlowRule, ...]]:
        """Each ``(port, run)`` of the default layer less the rules the
        block of the holder on that port covers. A run is filtered anew only
        when it or that holder's index is new; the rest keep their objects,
        so a one-holder change leaves the default layer's blocks the same
        but for the exceptions on that holder's ports."""
        for port, run in runs:
            index = index_above.get(port)
            if index is None:
                yield run
                continue
            # Keyed by the run's id: the entry holds the run, so while it
            # lives that id names no other object.
            yield self._carry(
                ("cover", id(run)), (run, index), lambda: tuple(
                    rule for rule in run if not index.covers(rule.match)))[1]

"""Runtime-vs-inline equivalence: the oracle for event coalescing.

The control-plane runtime reorders across priority classes and collapses
per-(participant, prefix) churn to its latest state, so the *sequence*
of controller calls differs from an inline replay — but the *final*
control-plane state must not. This module states that contract
precisely and checks it:

* :func:`canonical_state` — a controller snapshot comparable **up to
  (VNH, VMAC) renaming**. Raw VNH addresses legitimately diverge
  between executions (the allocator's cursor and free list record how
  many ephemerals each path burned), so the snapshot captures the
  *partition* of prefixes into shared-VNH groups rather than the
  addresses themselves, alongside the exact Adj-RIBs-In, per-participant
  best routes, policy state, and table size.
* :class:`RuntimeEquivalence` — the check that holds one
  :class:`~repro.verification.scenario.Scenario` trace in two arms:
  inline (direct :meth:`~repro.core.controller.SdxController
  .submit_update` per event, periodic background recompilation — the
  :class:`~repro.verification.oracle.DifferentialOracle`'s incremental
  arm) and through a deterministic step-driven
  :class:`~repro.runtime.loop.ControlPlaneRuntime` with coalescing on.
  After both settle it asserts canonical-state equality, forwarding
  equivalence over the packet corpus, and the standing invariants.

Soundness of the comparison rests on the route server's Adj-RIB-In
being last-writer-wins per (sender, prefix): coalescing only ever drops
states that a patient observer could never have distinguished once the
burst drained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.controller import SdxController
from repro.net.packet import Packet
from repro.runtime.clock import ManualClock
from repro.runtime.loop import ControlPlaneRuntime, RuntimeConfig
from repro.verification.corpus import generate_corpus
from repro.verification.invariants import check_all
from repro.verification.kernel import Case, Check, OracleFailure
from repro.verification.oracle import compare_controllers

#: A hashable summary of one RIB entry (attributes spelled out so two
#: value-equal routes from different executions compare equal).
RouteSummary = Tuple[str, str, Tuple[int, ...], int, int, Tuple[Tuple[int, int], ...]]


def _route_summary(entry) -> RouteSummary:
    attributes = entry.attributes
    return (
        entry.learned_from,
        str(attributes.next_hop),
        tuple(attributes.as_path.asns),
        attributes.med,
        attributes.local_pref,
        tuple(sorted(attributes.communities)),
    )


@dataclass(frozen=True)
class CanonicalState:
    """A controller snapshot comparable up to (VNH, VMAC) renaming."""

    adj_ribs: Tuple[Tuple[str, Tuple[RouteSummary, ...]], ...]
    best_routes: Tuple[Tuple[str, str, Optional[RouteSummary]], ...]
    vnh_partition: FrozenSet[Tuple[str, ...]]
    unassigned_prefixes: Tuple[str, ...]
    ephemeral_prefixes: Tuple[str, ...]
    policies_suspended: bool
    rule_count: int

    def diff(self, other: "CanonicalState") -> List[str]:
        """Human-readable differences from ``other`` (empty if equal)."""
        problems: List[str] = []
        if self.adj_ribs != other.adj_ribs:
            mine, theirs = dict(self.adj_ribs), dict(other.adj_ribs)
            for prefix in sorted(set(mine) | set(theirs)):
                if mine.get(prefix) != theirs.get(prefix):
                    problems.append(
                        f"adj-rib mismatch for {prefix}: "
                        f"{mine.get(prefix)} != {theirs.get(prefix)}")
        if self.best_routes != other.best_routes:
            mine_best = {(p, pre): route for p, pre, route in self.best_routes}
            theirs_best = {(p, pre): route
                           for p, pre, route in other.best_routes}
            for key in sorted(set(mine_best) | set(theirs_best)):
                if mine_best.get(key) != theirs_best.get(key):
                    problems.append(
                        f"best route mismatch for {key}: "
                        f"{mine_best.get(key)} != {theirs_best.get(key)}")
        if self.vnh_partition != other.vnh_partition:
            problems.append(
                f"VNH grouping mismatch: "
                f"{sorted(self.vnh_partition)} != "
                f"{sorted(other.vnh_partition)}")
        if self.unassigned_prefixes != other.unassigned_prefixes:
            problems.append(
                f"unassigned prefixes differ: {self.unassigned_prefixes} "
                f"!= {other.unassigned_prefixes}")
        if self.ephemeral_prefixes != other.ephemeral_prefixes:
            problems.append(
                f"ephemeral VNHs differ: {self.ephemeral_prefixes} != "
                f"{other.ephemeral_prefixes}")
        if self.policies_suspended != other.policies_suspended:
            problems.append(
                f"policy suspension differs: {self.policies_suspended} != "
                f"{other.policies_suspended}")
        if self.rule_count != other.rule_count:
            problems.append(
                f"flow-table size differs: {self.rule_count} != "
                f"{other.rule_count}")
        return problems


def canonical_state(controller: SdxController) -> CanonicalState:
    """Snapshot ``controller`` for renaming-insensitive comparison."""
    route_server = controller.route_server
    prefixes = route_server.all_prefixes()
    # Each distinct ranked route and prefix is spelled out once, not once
    # per (participant, prefix); a given route that is none of the ranked
    # ones (a stale decision) is spelled out where it is met.
    names = {prefix: str(prefix) for prefix in prefixes}
    summaries: Dict[int, RouteSummary] = {}
    for prefix in prefixes:
        for entry in route_server.ranked_routes(prefix):
            summaries[id(entry)] = _route_summary(entry)
    adj_ribs = tuple(
        (names[prefix],
         tuple(sorted(summaries[id(entry)]
                      for entry in route_server.ranked_routes(prefix))))
        for prefix in prefixes)
    best_routes: List[Tuple[str, str, Optional[RouteSummary]]] = []
    for participant in controller.topology.participants():
        for prefix in prefixes:
            best = route_server.decide(prefix).route_for(participant.name)
            best_routes.append((
                participant.name, names[prefix],
                None if best is None
                else summaries.get(id(best)) or _route_summary(best)))
    groups: Dict[str, List[str]] = {}
    unassigned: List[str] = []
    for prefix in prefixes:
        vnh = controller.allocator.next_hop_for_prefix(prefix)
        if vnh is None:
            unassigned.append(str(prefix))
        else:
            groups.setdefault(str(vnh), []).append(str(prefix))
    return CanonicalState(
        adj_ribs=adj_ribs,
        best_routes=tuple(best_routes),
        vnh_partition=frozenset(
            tuple(sorted(members)) for members in groups.values()),
        unassigned_prefixes=tuple(sorted(unassigned)),
        ephemeral_prefixes=tuple(
            sorted(str(prefix)
                   for prefix in controller.allocator.ephemeral_prefixes())),
        policies_suspended=controller.policies_suspended,
        rule_count=len(controller.table),
    )


def settled_divergence(inline: SdxController, routed: SdxController,
                       probes: Sequence[Packet]
                       ) -> Optional[Tuple[str, str]]:
    """``(aspect, detail)`` of the first way two settled arms differ.

    ``aspect`` is ``state`` (canonical snapshots), ``forwarding`` (the
    probe corpus), or ``invariant:<name>`` (a standing invariant broken
    on the routed arm); ``None`` when the arms are equivalent.
    """
    problems = canonical_state(inline).diff(canonical_state(routed))
    if problems:
        return "state", problems[0]
    violations = compare_controllers(inline, routed, probes)
    if violations:
        return "forwarding", violations[0].detail
    violations = check_all(routed, probes)
    if violations:
        return f"invariant:{violations[0].invariant}", violations[0].detail
    return None


class RuntimeEquivalence(Check):
    """Inline vs runtime arms over one trace, compared once settled.

    The inline arm submits every trace update directly and runs the
    background recompilation every ``case.recompile_every`` steps and
    at the end. The runtime arm submits the same updates into a
    deterministic (step-driven, :class:`~repro.runtime.clock
    .ManualClock`) :class:`~repro.runtime.loop.ControlPlaneRuntime`
    configured by ``config`` (coalescing on by default), draining on
    the same cadence, then settles.
    """

    name = "runtime"

    def __init__(self, config: Optional[RuntimeConfig] = None):
        self.config = config if config is not None else RuntimeConfig()

    def _submit(self, update: Any) -> None:
        self.inline.submit_update(update)
        self.runtime.submit_update(update)

    def _drain(self) -> None:
        self.inline.run_background_recompilation()
        self.runtime.settle()

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Build both arms; the base state is compared at settle."""
        self.inline = case.scenario.build_controller()
        self.routed = case.scenario.build_controller()
        self.runtime = ControlPlaneRuntime(
            self.routed, config=self.config, clock=ManualClock())
        self.probes = generate_corpus(case.scenario, size=case.corpus_size)
        self.drain_every = case.recompile_every
        return None

    def after_step(self, index: int, step: Any,
                   update: Any) -> Optional[OracleFailure]:
        """Submit ``update`` to both arms; drain on the cadence."""
        self._submit(update)
        if (index + 1) % self.drain_every == 0:
            self._drain()
        return None

    def at_settle(self, last: int) -> Optional[OracleFailure]:
        """Settle both arms and compare state, forwarding, invariants."""
        self._drain()
        found = settled_divergence(self.inline, self.routed, self.probes)
        return found and OracleFailure(f"runtime-{found[0]}", last, found[1])

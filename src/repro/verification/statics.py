"""Fuzzer cross-validation of the static policy verifier.

The analyzer's strongest verdicts are falsifiable at packet level, and
this module holds it to them with the reference interpreter (which
shares no code with the analyzer's region algebra):

* **SDX001 (dead clause)** — a clause marked dead must never win a
  forwarding decision: every witness packet concretised from its
  BGP-refined regions, and every corpus packet its predicate admits,
  must be taken by an earlier clause or the default route;
* **SDX003 (route-less forward)** — a forward whose effective region
  set the BGP join erased must never fire either: its traffic falls to
  the sender's best-route default (or is dropped at the border).

:class:`StaticsWitnesses` re-runs the analysis on the live controller
state at the base table and after every trace step, so the verdicts are
checked against *churning* RIB state, not just the initial one.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.net.packet import Packet
from repro.statics.checks import StaticsContext, dead_clause_map
from repro.statics.regions import probe_packets
from repro.verification.corpus import generate_corpus
from repro.verification.kernel import Case, Check, OracleFailure
from repro.verification.reference import ReferenceInterpreter


def _routeless_indices(context: StaticsContext, participant
                       ) -> List[int]:
    """Outbound clause indices whose effective region set is empty.

    Mirrors the SDX003 eligibility conditions: static forwards with a
    non-empty raw region that the BGP join erased entirely.
    """
    infos = context.clause_info(participant, "out")
    effective = context.effective(participant, "out")
    erased: List[int] = []
    for index, info in enumerate(infos):
        clause = info.clause
        if info.dynamic or clause.drops:
            continue
        if not isinstance(clause.target, str):
            continue
        if not info.regions or effective[index]:
            continue
        erased.append(index)
    return erased


def _probes_for(regions, clause, corpus: Sequence[Packet],
                prefixes: Sequence) -> List[Packet]:
    """Witnesses from each region plus corpus packets the clause admits."""
    return probe_packets(regions, prefixes) + [
        packet for packet in corpus if clause.predicate.holds(packet)]


def _check_state(controller, reference: ReferenceInterpreter,
                 corpus: Sequence[Packet],
                 step: int) -> Optional[OracleFailure]:
    """Check every statics verdict on the current state, or ``None``.

    Clause indices align across all three systems: the scenario installs
    one clause per policy in list order, the analyzer numbers normalised
    clauses in installation order, and the reference bands its rules by
    the same filtered order.
    """
    context = StaticsContext.from_controller(controller)
    prefixes = context.route_server.all_prefixes()
    for participant in context.participants():
        if participant.is_remote:
            continue
        name = participant.name
        infos = context.clause_info(participant, "out")
        effective = context.effective(participant, "out")

        for index, verdict in dead_clause_map(
                context, participant, "out").items():
            probes = _probes_for(
                effective[index], infos[index].clause, corpus, prefixes)
            for packet in probes:
                winner = reference.winning_outbound_clause(name, packet)
                if winner == index:
                    return OracleFailure(
                        kind="statics-dead-clause-fired", step=step,
                        detail=f"{name}: clause #{index} "
                               f"({infos[index].clause.describe()}) was "
                               f"marked dead (covered by "
                               f"{verdict.covered_by}) but wins {packet!r} "
                               f"in the reference interpreter")

        for index in _routeless_indices(context, participant):
            clause = infos[index].clause
            probes = _probes_for(infos[index].regions, clause, corpus,
                                 prefixes)
            for packet in probes:
                winner = reference.winning_outbound_clause(name, packet)
                if winner == index:
                    return OracleFailure(
                        kind="statics-routeless-forward-fired", step=step,
                        detail=f"{name}: clause #{index} "
                               f"({clause.describe()}) was marked "
                               f"route-less but wins {packet!r} in the "
                               f"reference interpreter instead of falling "
                               f"to the default route")
    return None


class StaticsWitnesses(Check):
    """Analyzer verdicts held against the reference at every state.

    Runs the analysis at the base table and after every trace step,
    firing witness and corpus packets at the reference each time; the
    first breach is the failure (``step`` is ``-1`` for the base state).
    """

    name = "statics"

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Build the controller and reference; check the base table."""
        self.controller = case.scenario.build_controller(
            with_dataplane=False)
        self.reference = ReferenceInterpreter(case.scenario)
        self.corpus = generate_corpus(case.scenario, size=case.corpus_size)
        return _check_state(self.controller, self.reference, self.corpus, -1)

    def after_step(self, index: int, step: Any,
                   update: Any) -> Optional[OracleFailure]:
        """Apply ``update`` to both and re-check every verdict."""
        self.controller.submit_update(update)
        self.reference.apply(update)
        return _check_state(self.controller, self.reference, self.corpus,
                            index)

"""Fuzzer cross-validation of the federation layer.

Two falsifiable surfaces, checked exactly like SDX001/SDX003 in
:mod:`repro.verification.statics`:

* **SDX008 (inter-exchange loop)** — every diagnostic's witness packet,
  fired from the diagnosed ``(exchange, participant)`` state, must
  actually walk a cycle in the federated reference walk;
* **SDX009 (stitched blackhole)** — every witness must actually be
  dropped beyond its first exchange.

On top of the point-wise statics checks, every corpus packet is
forwarded from every ``(exchange, sender)`` state through both execution
arms — the real cross-fabric driver
(:class:`~repro.federation.dataplane.FederatedDataPlane` over compiled
:class:`~repro.dataplane.switch.SoftwareSwitch` fabrics) and
:func:`reference_walk`, one naive
:class:`~repro.verification.reference.ReferenceInterpreter` per exchange
projection joined by the same
:func:`~repro.federation.dataplane.walk_federation` — and the outcomes
compared hop-for-hop. The whole battery re-runs after every BGP trace
step, so verdicts are held against churning RIB state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from repro.federation.checks import analyze_federation
from repro.federation.dataplane import FederatedOutcome, walk_federation
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.verification.corpus import generate_corpus
from repro.verification.kernel import Case, Check, OracleFailure
from repro.verification.reference import ReferenceInterpreter
from repro.verification.scenario import Scenario

#: (check id, failure noun, claim, predicate the reference walk must meet).
_WITNESS_CONTRACTS = (
    ("SDX008", "loop", "loops from", lambda outcome: outcome.is_loop),
    ("SDX009", "blackhole", "blackholes beyond",
     lambda outcome: outcome.kind == "dropped" and len(outcome.hops) >= 2),
)


def _interpreters(scenario: Scenario) -> Dict[str, ReferenceInterpreter]:
    """One naive interpreter per exchange, over its projection."""
    return {exchange: ReferenceInterpreter(scenario.project(exchange))
            for exchange in scenario.exchanges}


def reference_walk(scenario: Scenario, exchange: str, sender: str,
                   packet: Packet,
                   references: Optional[Mapping[str, ReferenceInterpreter]]
                   = None) -> FederatedOutcome:
    """Walk ``packet`` across the federation through the naive arm.

    ``references`` are the per-exchange interpreters to classify with
    (default: fresh ones over each projection's base table); the walk
    itself is the real fabrics' own
    :func:`~repro.federation.dataplane.walk_federation`.
    """
    if references is None:
        references = _interpreters(scenario)

    def classify(here: str, name: str, probe: Packet) -> Optional[str]:
        result = references[here].forward(name, probe)
        return result[0] if result is not None else None

    return walk_federation(
        exchange, sender, packet, classify=classify,
        route_server=lambda here: references[here].route_server,
        presence=scenario.presence,
        origins=[(IPv4Prefix(prefix), owner)
                 for prefix, owner in scenario.owners])


def _check_statics(federation, forward: Callable[..., FederatedOutcome],
                   step: int) -> Optional[OracleFailure]:
    """Hold SDX008/SDX009 to their witness contracts on current state."""
    report = analyze_federation(federation)
    for check_id, noun, claim, holds in _WITNESS_CONTRACTS:
        for diagnostic in report.by_check(check_id):
            payload = dict(diagnostic.data)
            origin = (payload["origin_exchange"],
                      payload["origin_participant"])
            outcome = forward(*origin, diagnostic.witness)
            if not holds(outcome):
                return OracleFailure(
                    kind=f"statics-{noun}-not-reproduced", step=step,
                    detail=f"{check_id} at "
                           f"[{diagnostic.location.describe()}] claimed "
                           f"witness {diagnostic.witness!r} {claim} "
                           f"{origin[0]}:{origin[1]}, but the federated "
                           f"reference resolves it to {outcome.describe()}")
    return None


class FederatedWalk(Check):
    """SDX008/SDX009 witnesses plus the real-vs-naive walk differential.

    Builds the real federation (compiled fabrics) and one reference
    interpreter per exchange projection from the same scenario, verifies
    their derived topology facts align, then runs the statics-witness
    and differential batteries at the base table and after every trace
    step.
    """

    name = "federation"

    def _naive(self, exchange: str, sender: str,
               packet: Packet) -> FederatedOutcome:
        return reference_walk(self.scenario, exchange, sender, packet,
                              self.references)

    def _differential(self, step: int) -> Optional[OracleFailure]:
        """Compare both arms' walks for every (exchange, sender, packet)."""
        for exchange in self.scenario.exchanges:
            for spec in self.scenario.participants_at(exchange):
                for packet in self.corpus:
                    real = self.federation.forward(
                        exchange, spec.name, packet)
                    naive = self._naive(exchange, spec.name, packet)
                    self.comparisons += 1
                    if real.comparable() != naive.comparable():
                        return OracleFailure(
                            kind="federated-forwarding-divergence",
                            step=step,
                            detail=f"{exchange}:{spec.name} x {packet!r}: "
                                   f"real dataplane {real.describe()} != "
                                   f"reference {naive.describe()}")
        return None

    def _check(self, step: int) -> Optional[OracleFailure]:
        return (_check_statics(self.federation, self._naive, step)
                or self._differential(step))

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Build both arms, verify alignment, check the base table."""
        scenario = self.scenario = case.scenario
        self.corpus = generate_corpus(scenario, size=case.corpus_size)
        self.federation = scenario.build_federation(with_dataplane=True)
        self.references = _interpreters(scenario)
        for exchange, reference in self.references.items():
            problem = reference.verify_alignment(
                self.federation.exchange(exchange))
            if problem is not None:
                return OracleFailure(
                    kind="federated-alignment", step=-1,
                    detail=f"{exchange}: {problem}")
        return self._check(-1)

    def after_step(self, index: int, step: Any,
                   update: Any) -> Optional[OracleFailure]:
        """Apply ``update`` at its exchange on both arms and re-check."""
        self.federation.submit_update(step.exchange, update)
        self.references[step.exchange].apply(update)
        self.federation.settle()
        return self._check(index)

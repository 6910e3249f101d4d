"""Fuzzer cross-validation of the federation layer.

Two falsifiable surfaces, checked exactly like SDX001/SDX003 in
:mod:`repro.verification.statics`:

* **SDX008 (inter-exchange loop)** — every diagnostic's witness packet,
  fired from the diagnosed ``(exchange, participant)`` state, must
  actually walk a cycle in the federated reference interpreter;
* **SDX009 (stitched blackhole)** — every witness must actually be
  dropped beyond its first exchange.

On top of the point-wise statics checks, every corpus packet is
forwarded from every ``(exchange, sender)`` state through both execution
arms — the real cross-fabric driver
(:class:`~repro.federation.dataplane.FederatedDataPlane` over compiled
:class:`~repro.dataplane.switch.SoftwareSwitch` fabrics) and the naive
:class:`~repro.federation.reference.FederatedReferenceInterpreter` —
and the outcomes compared hop-for-hop. The whole battery re-runs after
every BGP trace step, so verdicts are held against churning RIB state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.verification.kernel import Case, Check, OracleFailure

if TYPE_CHECKING:  # the federation package imports verification modules,
    # so runtime imports here must stay lazy to avoid a cycle
    from repro.federation.reference import FederatedReferenceInterpreter


#: (check id, failure noun, claim, predicate the reference walk must meet).
_WITNESS_CONTRACTS = (
    ("SDX008", "loop", "loops from", lambda outcome: outcome.is_loop),
    ("SDX009", "blackhole", "blackholes beyond",
     lambda outcome: outcome.kind == "dropped" and len(outcome.hops) >= 2),
)


def _check_statics(federation, reference: "FederatedReferenceInterpreter",
                   step: int) -> Optional[OracleFailure]:
    """Hold SDX008/SDX009 to their witness contracts on current state."""
    from repro.federation.checks import analyze_federation

    report = analyze_federation(federation)
    for check_id, noun, claim, holds in _WITNESS_CONTRACTS:
        for diagnostic in report.by_check(check_id):
            payload = dict(diagnostic.data)
            origin = (payload["origin_exchange"],
                      payload["origin_participant"])
            outcome = reference.forward(*origin, diagnostic.witness)
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

    Builds the real federation (compiled fabrics) and the naive
    federated reference from the same scenario, verifies their derived
    topology facts align, then runs the statics-witness and differential
    batteries at the base table and after every trace step.
    """

    name = "federation"

    def _differential(self, step: int) -> Optional[OracleFailure]:
        """Compare both arms' walks for every (exchange, sender, packet)."""
        for exchange in self.scenario.exchanges:
            for spec in self.scenario.participants_at(exchange):
                for packet in self.corpus:
                    real = self.federation.forward(
                        exchange, spec.name, packet)
                    naive = self.reference.forward(
                        exchange, spec.name, packet)
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
        return (_check_statics(self.federation, self.reference, step)
                or self._differential(step))

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Build both arms, verify alignment, check the base table."""
        from repro.federation.reference import FederatedReferenceInterpreter
        from repro.federation.scenario import generate_federated_corpus

        self.scenario = case.scenario
        self.corpus = generate_federated_corpus(
            case.scenario, size=case.corpus_size)
        self.federation = case.scenario.build_controller(with_dataplane=True)
        self.reference = FederatedReferenceInterpreter(case.scenario)
        problem = self.reference.verify_alignment(self.federation)
        if problem is not None:
            return OracleFailure(
                kind="federated-alignment", step=-1, detail=problem)
        return self._check(-1)

    def after_step(self, index: int, step: Any,
                   update: Any) -> Optional[OracleFailure]:
        """Apply ``update`` at its exchange on both arms and re-check."""
        self.federation.submit_update(step.exchange, update)
        self.reference.apply(step.exchange, update)
        self.federation.settle()
        return self._check(index)

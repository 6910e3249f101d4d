"""Fuzzer cross-validation of the dataplane verifier.

The dataplane verifier's verdicts come out of a region algebra (atoms,
subpartitions, representative lookups); the table itself is the ground
truth. This module holds the verifier to three falsifiable contracts on
every scenario state:

* **incremental = full** — the verifier attached to the southbound
  engine re-verifies only what each apply window touched; its cached
  state report must render *byte-identically* to a fresh whole-table
  analysis of the same state;
* **witness contracts** — every spatial finding carries a witness
  packet, and the real :meth:`FlowTable.lookup` must corroborate it:
  an SDX010 witness is won by some *other* rule, an SDX011 witness
  falls to the miss or the catch-all drop, an SDX012 witness is won by
  exactly the flagged rule (whose rewrite tag owns no next-hop);
* **no false alarms** — fuzz scenarios are generated from well-formed
  distributions and every committed space is derived from live state,
  so an error-severity finding on one is a verifier bug, not a network
  bug; and symmetrically, a committed space *without* an SDX011 finding
  must carry a probe packet per ingress port without falling to the
  miss (the covering half of the partition property).

:class:`DataplaneContracts` holds them with the incremental verifier
riding the live southbound engine, re-checking all three contracts at
the base table and after every trace step.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.mac import MacAddress
from repro.statics.dataplane import analyze_controller_dataplane
from repro.statics.diagnostics import Diagnostic, Severity
from repro.verification.kernel import Case, Check, OracleFailure


def _diag_rule(controller, diag: Diagnostic):
    """The installed rule a per-rule diagnostic points at, or ``None``."""
    data = dict(diag.data)
    priority = data.get("rule_priority")
    match = data.get("rule_match")
    if priority is None or match is None:
        return None
    return controller.table.rule_for_key(priority, match)


def _check_witnesses(controller, report, step: int) -> Optional[OracleFailure]:
    """Fire every witness at the real table; first broken contract wins."""
    table = controller.table
    vmac_index = controller.allocator.vmac_index()
    for diag in report.diagnostics:
        witness = diag.witness
        if diag.check_id == "SDX010":
            # Shadowed: the flagged rule must not win its own witness.
            if witness is None:  # budget fallback carries no witness
                continue
            rule = _diag_rule(controller, diag)
            winner = table.lookup(witness)
            if rule is not None and winner is rule:
                return OracleFailure(
                    kind="dataplane-shadow-witness-fired", step=step,
                    detail=f"SDX010 marked rule [{rule.describe()}] fully "
                           f"shadowed, but it wins its own witness "
                           f"{witness!r} in the real table")
        elif diag.check_id == "SDX011":
            if witness is None:
                continue
            winner = table.lookup(witness)
            if winner is not None and not (winner.is_drop
                                           and winner.match.is_wildcard):
                return OracleFailure(
                    kind="dataplane-miss-witness-carried", step=step,
                    detail=f"SDX011 claimed committed witness {witness!r} "
                           f"falls to the table miss, but rule "
                           f"[{winner.describe()}] carries it")
        elif diag.check_id == "SDX012":
            if dict(diag.data).get("kind") != "rewrite" or witness is None:
                continue
            rule = _diag_rule(controller, diag)
            winner = table.lookup(witness)
            if rule is not None and winner is not rule:
                return OracleFailure(
                    kind="dataplane-blackhole-witness-missed", step=step,
                    detail=f"SDX012 flagged rule [{rule.describe()}] as a "
                           f"compiled blackhole, but its witness "
                           f"{witness!r} is won by "
                           f"{'the miss' if winner is None else winner.describe()}")
            vmac = dict(diag.data).get("vmac")
            if isinstance(vmac, MacAddress) and vmac in vmac_index:
                return OracleFailure(
                    kind="dataplane-blackhole-vmac-live", step=step,
                    detail=f"SDX012 called VMAC {vmac} dead, but the "
                           f"allocator maps it to {vmac_index[vmac]}")
    return None


def _check_clean(report, step: int) -> Optional[OracleFailure]:
    """Fuzz scenarios are defect-free; any error finding is a false alarm."""
    for diag in report.diagnostics:
        if diag.severity is Severity.ERROR:
            return OracleFailure(
                kind="dataplane-false-positive", step=step,
                detail=f"dataplane verifier reported an error on a clean "
                       f"generated scenario: {diag.describe()}")
    return None


def _check_covered(controller, report, step: int) -> Optional[OracleFailure]:
    """No SDX011 finding means *every* committed probe must be carried."""
    from repro.statics.dataplane import committed_spaces_from_controller

    flagged = {dict(diag.data).get("label")
               for diag in report.diagnostics if diag.check_id == "SDX011"}
    table = controller.table
    for committed in committed_spaces_from_controller(controller):
        if committed.label in flagged:
            continue
        for port in committed.ports:
            probe = committed.space.concretise(port=port)
            winner = table.lookup(probe)
            if winner is None or (winner.is_drop
                                  and winner.match.is_wildcard):
                return OracleFailure(
                    kind="dataplane-committed-miss-unreported", step=step,
                    detail=f"committed traffic {committed.label} via port "
                           f"{port} falls to the table miss "
                           f"({probe!r}) but the verifier reported no "
                           f"SDX011 finding")
    return None


def _check_state(controller, verifier: Any,
                 step: int) -> Optional[OracleFailure]:
    incremental = verifier.state_report()
    fresh = analyze_controller_dataplane(controller)
    if incremental.to_json() != fresh.to_json():
        return OracleFailure(
            kind="dataplane-incremental-divergence", step=step,
            detail=f"incremental state report diverged from a fresh "
                   f"whole-table analysis after step {step}: "
                   f"incremental={incremental.summary()} "
                   f"full={fresh.summary()}")
    return (_check_clean(fresh, step)
            or _check_witnesses(controller, fresh, step)
            or _check_covered(controller, fresh, step))


class DataplaneContracts(Check):
    """The dataplane verifier held against the real table.

    Builds the scenario's controller with the incremental verifier
    attached to the live southbound engine (``warn`` mode, so findings
    never gate the replay itself), then checks the byte-identity,
    witness, false-alarm, and covering contracts at the base table and
    after every trace step (``step`` is ``-1`` for the base state).
    """

    name = "dataplane"

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Build the verified controller; check the base table."""
        self.controller = case.scenario.build_controller(
            dataplane_statics_mode="warn")
        return _check_state(
            self.controller, self.controller.dataplane_verifier, step=-1)

    def after_step(self, index: int, step: Any,
                   update: Any) -> Optional[OracleFailure]:
        """Apply ``update`` and re-check every contract."""
        self.controller.submit_update(update)
        return _check_state(
            self.controller, self.controller.dataplane_verifier, step=index)

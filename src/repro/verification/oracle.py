"""The differential oracle: three lockstep executions per trace.

For one scenario, :class:`DifferentialOracle` holds three executions of
the same BGP update trace:

* **full** — an :class:`~repro.core.controller.SdxController` that runs
  a complete recompilation after every update, from nothing kept (the
  slow, obviously correct path);
* **incremental** — an identical controller left on the two-stage fast
  path, with a consistency-preserving background re-optimisation every
  few steps and at the end;
* **reference** — the independent
  :class:`~repro.verification.reference.ReferenceInterpreter`.

All three consume value-identical :class:`~repro.bgp.messages.Update`
objects (same next hops, so BGP tie-breaking cannot diverge between
executions). After every step the oracle forwards the whole packet
corpus through each execution and compares (egress participant,
delivery port) per (sender, packet); the standing invariants of
:mod:`repro.verification.invariants` run on the incremental controller,
and every background swap is watched by a
:class:`~repro.verification.invariants.SwapMonitor`. The first
discrepancy is returned as an :class:`OracleFailure`. The oracle is a
:class:`~repro.verification.kernel.Check`; the trace loop itself is
:func:`repro.verification.kernel.replay`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.controller import SdxController
from repro.net.packet import Packet
from repro.verification.corpus import generate_corpus
from repro.verification.invariants import (
    SwapMonitor,
    Violation,
    check_all,
    outcome_of,
)
from repro.verification.kernel import Case, Check, OracleFailure
from repro.verification.reference import ReferenceInterpreter


def forwarding_outcomes(controller: SdxController,
                        probes: Sequence[Packet],
                        senders: Optional[Sequence[str]] = None):
    """Outcome of every (sender, probe index) pair on one controller."""
    if senders is None:
        senders = [participant.name
                   for participant in controller.topology.participants()
                   if not participant.is_remote]
    return {
        (sender, index): outcome_of(controller, sender, probe)
        for sender in senders
        for index, probe in enumerate(probes)
    }


def compare_controllers(expected: SdxController, actual: SdxController,
                        probes: Sequence[Packet],
                        senders: Optional[Sequence[str]] = None
                        ) -> List[Violation]:
    """Forwarding differences between two controllers over ``probes``.

    The workhorse of the migrated equivalence tests: build the same
    exchange two ways (e.g. fast path vs fresh compilation) and assert
    this list is empty.
    """
    want = forwarding_outcomes(expected, probes, senders)
    got = forwarding_outcomes(actual, probes, senders)
    return [
        Violation(
            "forwarding-equivalence",
            f"{sender} probe#{index}: expected {want[(sender, index)]}, "
            f"got {got[(sender, index)]}")
        for (sender, index) in want
        if want[(sender, index)] != got[(sender, index)]
    ]


class DifferentialOracle(Check):
    """Holds one scenario's three executions in lockstep and compares."""

    name = "oracle"

    def _compare(self, step: int) -> Optional[OracleFailure]:
        expected = self.reference.outcomes(self.corpus)
        for (sender, index), want in expected.items():
            probe = self.corpus[index]
            got_full = outcome_of(self.full, sender, probe)
            got_incremental = outcome_of(self.incremental, sender, probe)
            self.comparisons += 1
            if got_full != want:
                return OracleFailure(
                    "full-vs-reference", step,
                    f"{sender} probe#{index} ({probe!r}): reference says "
                    f"{want}, full recompilation says {got_full}")
            if got_incremental != want:
                return OracleFailure(
                    "incremental-vs-reference", step,
                    f"{sender} probe#{index} ({probe!r}): reference says "
                    f"{want}, incremental engine says {got_incremental}")
        return None

    def _check_invariants(self, step: int) -> Optional[OracleFailure]:
        violations = check_all(self.incremental, self.corpus)
        if violations:
            first = violations[0]
            return OracleFailure(
                f"invariant:{first.invariant}", step, first.detail)
        return None

    def _background_swap(self, step: int) -> Optional[OracleFailure]:
        with SwapMonitor(self.incremental, self.corpus[:8]) as monitor:
            self.incremental.run_background_recompilation()
        violations = monitor.violations()
        if violations:
            return OracleFailure("invariant:two-phase-swap", step,
                                 violations[0].detail)
        return None

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Build the three executions and compare the base state."""
        scenario = case.scenario
        self.corpus: Tuple[Packet, ...] = generate_corpus(
            scenario, size=case.corpus_size)
        self.recompile_every = case.recompile_every
        self.incremental = scenario.build_controller()
        self.full = scenario.build_controller()
        self.reference = ReferenceInterpreter(scenario)
        mismatch = self.reference.verify_alignment(self.incremental)
        if mismatch is not None:
            return OracleFailure("harness-misalignment", -1, mismatch)
        return self._compare(-1) or self._check_invariants(-1)

    def after_step(self, index: int, step: Any,
                   update: Any) -> Optional[OracleFailure]:
        """Feed ``update`` to all three executions and compare."""
        self.incremental.submit_update(update)
        self.full.submit_update(update)
        # The arm that judges the patching compiler never patches.
        self.full.compiler.invalidate_inbound_cache()
        self.full.recompile()
        self.reference.apply(update)
        failure = self._compare(index) or self._check_invariants(index)
        if failure is None and (index + 1) % self.recompile_every == 0:
            failure = (self._background_swap(index)
                       or self._compare(index))
        return failure

    def at_settle(self, last: int) -> Optional[OracleFailure]:
        """Final background swap, comparison and invariants."""
        return (self._background_swap(last) or self._compare(last)
                or self._check_invariants(last))

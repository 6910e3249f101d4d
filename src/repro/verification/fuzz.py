"""The fuzzing session behind ``python -m repro fuzz``.

Each iteration derives an independent scenario seed from the session
seed and hands the case to :func:`repro.verification.kernel
.run_session`, which replays it under the configured checks and — on
failure — shrinks the case and saves a replayable artifact. All activity
is recorded into the telemetry registry (``sdx_harness_*`` labelled
``fuzz`` / ``federation``, plus ``sdx_fuzz_steps_total`` and
``sdx_fuzz_comparisons_total``), so a fuzzing session shows up in the
same ``repro stats`` snapshot as the pipeline it exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.telemetry import Telemetry, get_telemetry
from repro.verification.kernel import (
    Case,
    SessionConfig,
    SessionReport,
    run_session,
)
from repro.verification.scenario import generate_scenario
from repro.workloads.seeding import derive_seed


@dataclass(frozen=True)
class FuzzConfig(SessionConfig):
    """Tunables for one fuzzing session.

    ``checks`` names what rides along with the differential oracle on
    every scenario: ``runtime``
    (:class:`~repro.verification.runtime.RuntimeEquivalence`),
    ``statics`` (:class:`~repro.verification.statics.StaticsWitnesses`)
    and ``dataplane``
    (:class:`~repro.verification.dataplane.DataplaneContracts`).
    ``federation`` switches the session to multi-exchange scenarios over
    ``exchanges`` exchanges: the base check becomes
    :class:`~repro.verification.federation.FederatedWalk` and every
    other named check runs once per member exchange.
    """

    corpus_size: int = 12
    recompile_every: int = 4
    checks: Tuple[str, ...] = ()
    exchanges: int = 2


def run_fuzz(config: FuzzConfig,
             telemetry: Optional[Telemetry] = None) -> SessionReport:
    """Run one fuzzing session; never raises on a finding."""
    telemetry = telemetry if telemetry is not None else get_telemetry()
    federated = "federation" in config.checks
    label = "federation" if federated else "scenario"

    def make_case(index: int) -> Case:
        scenario = generate_scenario(
            derive_seed(config.seed, f"{label}-{index}"),
            exchanges=config.exchanges if federated else 1,
            participants=config.participants, prefixes=config.prefixes,
            policies=config.policies, steps=config.steps)
        return Case(scenario, checks=config.checks,
                    corpus_size=config.corpus_size,
                    recompile_every=config.recompile_every)

    report = run_session(
        config, SessionReport(config), make_case,
        harness="federation" if federated else "fuzz", telemetry=telemetry)
    registry = telemetry.registry
    registry.counter(
        "sdx_fuzz_steps_total",
        "Trace steps executed across executions").inc(report.steps_executed)
    registry.counter(
        "sdx_fuzz_comparisons_total",
        "Forwarding outcomes compared").inc(report.comparisons)
    return report

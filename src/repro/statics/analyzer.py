"""Analyzer entry points: run the check catalogue over an exchange.

Three frontends share one engine:

* :func:`analyze_controller` — lint a controller's installed state;
* :func:`lint_config` — lint a JSON config document, running the raw
  document checks first and then building the exchange (documents that
  fail raw validation are skipped rather than aborting the build, so
  one bad policy does not hide findings about the rest);
* :func:`analyze_context` — the engine, for callers that assemble a
  :class:`StaticsContext` themselves (the fuzz cross-check does).

Telemetry: each run bumps ``sdx_statics_runs_total`` and the
per-severity ``sdx_statics_*_total`` counters under a
``statics.analyze`` span, so lint activity lands in the same ``repro
stats`` snapshot as the pipeline it guards.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import PolicyError, ReproError
from repro.statics.checks import (
    BlackholeCheck,
    Check,
    DeadClauseCheck,
    FieldSanityCheck,
    IsolationCheck,
    RoutelessForwardCheck,
    ShadowOverlapCheck,
    StaticsContext,
    UnreachableDefaultCheck,
)
from repro.statics.diagnostics import (
    Diagnostic,
    RawPolicyDocument,
    Severity,
    SourceLocation,
    StaticsReport,
)
from repro.telemetry import Telemetry, get_telemetry

#: The full check catalogue, in reporting order.
DEFAULT_CHECKS: Tuple[Check, ...] = (
    FieldSanityCheck(),
    IsolationCheck(),
    RoutelessForwardCheck(),
    DeadClauseCheck(),
    ShadowOverlapCheck(),
    BlackholeCheck(),
    UnreachableDefaultCheck(),
)


def analyze_context(context: StaticsContext,
                    checks: Sequence[Check] = DEFAULT_CHECKS,
                    telemetry: Optional[Telemetry] = None) -> StaticsReport:
    """Run ``checks`` over an assembled context."""
    telemetry = telemetry if telemetry is not None else get_telemetry()
    registry = telemetry.registry
    runs_counter = registry.counter(
        "sdx_statics_runs_total", "Static-analysis runs")
    diagnostics_counter = registry.counter(
        "sdx_statics_diagnostics_total", "Diagnostics emitted by the "
        "static policy verifier")
    errors_counter = registry.counter(
        "sdx_statics_errors_total", "Error-severity statics diagnostics")
    warnings_counter = registry.counter(
        "sdx_statics_warnings_total", "Warning-severity statics diagnostics")

    report = StaticsReport(checks_run=tuple(check.check_id for check in checks))
    with telemetry.span("statics.analyze", checks=len(checks)) as span:
        participants = context.participants()
        report.participants_analyzed = len(participants)
        report.clauses_analyzed = sum(
            len(context.clauses(participant, direction))
            for participant in participants
            for direction in context.directions(participant)
        ) + len(context.raw_policies)
        for check in checks:
            with telemetry.span("statics.check", check_id=check.check_id):
                report.extend(list(check.run(context)))
        span.set_tag(diagnostics=len(report.diagnostics))
    runs_counter.inc()
    diagnostics_counter.inc(len(report.diagnostics))
    errors_counter.inc(len(report.errors))
    warnings_counter.inc(len(report.warnings))
    return report


def analyze_controller(controller, *,
                       checks: Sequence[Check] = DEFAULT_CHECKS,
                       raw_policies: Sequence[RawPolicyDocument] = (),
                       telemetry: Optional[Telemetry] = None) -> StaticsReport:
    """Lint everything installed in (or offered to) a controller.

    A :class:`~repro.federation.controller.FederatedController` gets the
    federation-wide analysis (the member-exchange battery plus the
    cross-exchange SDX008/SDX009 checks) instead of the single-exchange
    engine; ``checks``/``raw_policies`` apply to single exchanges only.
    """
    from repro.federation.controller import FederatedController

    if isinstance(controller, FederatedController):
        from repro.federation.checks import analyze_federation

        return analyze_federation(controller, telemetry=telemetry)
    context = StaticsContext.from_controller(
        controller, raw_policies=raw_policies)
    if telemetry is None:
        telemetry = getattr(controller, "telemetry", None)
    return analyze_context(context, checks=checks, telemetry=telemetry)


def lint_config(document: Mapping[str, Any], *,
                checks: Sequence[Check] = DEFAULT_CHECKS,
                telemetry: Optional[Telemetry] = None,
                **controller_kwargs: Any) -> StaticsReport:
    """Lint a JSON configuration document end to end.

    Raw-document checks (SDX004/SDX006) run against every policy entry
    first; entries they flag — or that installation rejects — are
    skipped, and the remaining exchange is analyzed as a controller.
    Returns one merged report. A document with an ``exchanges`` key
    describes a federation: its entries take the same raw pass, each
    finding naming its entry's ``exchange``, and the rest is analyzed by
    :func:`repro.federation.checks.analyze_federation` (``checks`` pick
    only its raw checks, ``controller_kwargs`` apply to single exchanges).
    """
    from repro.config import controller_from_config, install_policy

    items = document.get("policies", ())
    exchanges = [item.get("exchange") for item in items]
    raw = [RawPolicyDocument(participant=str(item.get("participant", "?")),
                             direction=str(item.get("direction", "?")),
                             clause=item.get("clause", {}), index=index)
           for index, item in enumerate(items)]
    stripped: Dict[str, Any] = dict(document)
    stripped["policies"] = []
    federated = "exchanges" in document
    if federated:
        from repro.federation.config import federation_from_config

        federation = federation_from_config(
            stripped, statics_mode="off", with_dataplane=False,
            telemetry=telemetry)
        controller = federation.exchange(federation.exchanges()[0])
    else:
        controller = controller_from_config(stripped, **controller_kwargs)

    # The raw-only surface first, so installation skips what it flags.
    raw_context = StaticsContext(
        topology=controller.topology,
        route_server=controller.route_server,
        raw_policies=tuple(raw))
    findings: List[Diagnostic] = []
    for check in checks:
        if check.check_id in ("SDX004", "SDX006"):
            findings.extend(check.run(raw_context))
    flagged = {
        finding.location.document_index for finding in findings
        if finding.location.document_index is not None
    }
    for entry in raw:
        if entry.index in flagged:
            continue
        try:
            install_policy(federation.handle(
                exchanges[entry.index], entry.participant) if federated
                else controller.topology.participant(entry.participant),
                items[entry.index])
        except (PolicyError, ReproError, KeyError, TypeError) as error:
            findings.append(Diagnostic(
                check_id="SDX006", check_name="field-sanity",
                severity=Severity.ERROR,
                location=SourceLocation(
                    entry.participant, entry.direction,
                    document_index=entry.index),
                message=f"policy rejected at installation: {error}"))

    if federated:
        from repro.federation.checks import analyze_federation

        report = analyze_federation(federation, telemetry=telemetry)
        findings = [replace(finding, data=finding.data + (
            ("exchange", exchanges[finding.location.document_index]),))
            for finding in findings]
    else:
        # What installed cleanly, without the raw checks run above.
        remaining = [c for c in checks
                     if c.check_id not in ("SDX004", "SDX006")]
        installed_checks = [c for c in checks if c.check_id == "SDX004"]
        report = analyze_context(
            StaticsContext.from_controller(controller),
            checks=remaining + installed_checks, telemetry=telemetry)
        report.checks_run = tuple(check.check_id for check in checks)
    report.clauses_analyzed += len(raw)
    report.extend(findings)
    return report

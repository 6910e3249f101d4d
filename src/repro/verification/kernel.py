"""The harness kernel: one replay / check / shrink / artifact / session.

The differential fuzzer, the chaos soak and the federated
cross-validation are the same machinery around different *checks*: a
:class:`Case` (scenario, optional fault schedule, replay parameters);
:func:`replay`, the only "build arms -> check the base state -> per step
apply + check -> settle" loop, driving :class:`Check` objects in
lockstep; :func:`shrink`, one delta-debugging pass over faults then
trace steps; :class:`FailureArtifact`, one replayable JSON format; and
:func:`run_session`, one budgeted generate / replay / shrink / save loop
(``sdx_harness_*`` telemetry). Checks own their controller arms, so
*what* is verified is decided by the checks a case names; the kernel
only iterates, budgets, shrinks and persists.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry import Telemetry, get_telemetry
from repro.verification.scenario import Scenario
from repro.workloads.churn import ChaosSchedule

#: Artifact format version.
ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class OracleFailure:
    """The first divergence or invariant breach found in a run.

    ``step`` is the index of the trace step after which the failure was
    observed; ``-1`` means the scenario's initial state already fails.
    """

    kind: str
    step: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} after step {self.step}: {self.detail}"


@dataclass(frozen=True)
class Case:
    """Everything one replay needs.

    The case's *type* picks its base check: a fault ``schedule`` means
    the chaos settle assertions, a federated case the federated walk
    differential, any other the differential oracle. ``checks`` names
    the extra checks riding along; on a federated case a single-exchange
    check runs once per member exchange. ``corpus_size`` sizes every
    check's probe corpus; ``recompile_every`` is the shared
    background-quiesce cadence.
    """

    scenario: Scenario
    schedule: Optional[ChaosSchedule] = None
    checks: Tuple[str, ...] = ()
    corpus_size: int = 12
    recompile_every: int = 4

    @property
    def federated(self) -> bool:
        """True for a multi-exchange scenario, or when the federated walk
        is named (a one-exchange federation)."""
        return len(self.scenario.exchanges) > 1 or "federation" in self.checks

    def check_names(self) -> Tuple[str, ...]:
        """The base check for this case's type, then the extras."""
        base = ("chaos" if self.schedule is not None
                else "federation" if self.federated else "oracle")
        return (base,) + tuple(n for n in self.checks if n != base)

    def without_fault(self, index: int) -> "Case":
        """A copy with the ``index``-th scheduled fault removed."""
        return replace(self, schedule=self.schedule.without_fault(index))

    def with_trace(self, trace: tuple) -> "Case":
        """A copy replaying ``trace`` instead."""
        return replace(self, scenario=replace(self.scenario, trace=trace))

    def without_step(self, index: int) -> "Case":
        """A copy with trace step ``index`` removed, faults realigned."""
        trace = self.scenario.trace
        shorter = self.with_trace(trace[:index] + trace[index + 1:])
        if self.schedule is None:
            return shorter
        return replace(
            shorter, schedule=self.schedule.remap_for_removed_step(index))


#: The replay parameters an artifact records only off their defaults.
_CASE_OPTIONS = tuple(option for option in fields(Case)
                      if option.name not in ("scenario", "schedule"))


class Check:
    """One property held over a replay; owns its own execution arms.

    :func:`replay` calls :meth:`start` once (build the arms, check the
    base state), :meth:`after_step` once per trace step (apply the
    update to the arms, check), and :meth:`at_settle` once after the
    trace. Each returns the first :class:`OracleFailure`, or ``None``.
    """

    #: The name the check is selected, counted and recorded under.
    name = ""
    #: Outcome comparisons performed (for session accounting).
    comparisons = 0

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Build the arms from ``case`` and check the base state."""
        raise NotImplementedError

    def after_step(self, index: int, step: Any,
                   update: Any) -> Optional[OracleFailure]:
        """Apply trace step ``index`` to the arms and check."""
        raise NotImplementedError

    def at_settle(self, last: int) -> Optional[OracleFailure]:
        """Quiesce after the trace (``last`` is its final index)."""
        return None


#: Check name -> (module, class); resolved lazily because the chaos and
#: federation packages import this one.
_CHECKS: Dict[str, Tuple[str, str]] = {
    "oracle": ("repro.verification.oracle", "DifferentialOracle"),
    "runtime": ("repro.verification.runtime", "RuntimeEquivalence"),
    "statics": ("repro.verification.statics", "StaticsWitnesses"),
    "dataplane": ("repro.verification.dataplane", "DataplaneContracts"),
    "federation": ("repro.verification.federation", "FederatedWalk"),
    "chaos": ("repro.chaos.driver", "ChaosRunner"),
}


class PerExchange(Check):
    """A single-exchange check held at every exchange of a federation:
    one inner check per exchange projection, each fed the steps that
    target its exchange under the federation-wide step index."""

    def __init__(self, factory: Callable[[], Check]):
        self.factory = factory
        self.name = factory.name
        self.inner: Dict[str, Check] = {}

    @property
    def comparisons(self) -> int:  # type: ignore[override]
        """Comparisons summed over the member exchanges."""
        return sum(check.comparisons for check in self.inner.values())

    def start(self, case: Case) -> Optional[OracleFailure]:
        """Start one inner check per exchange projection."""
        for exchange in case.scenario.exchanges:
            check = self.inner[exchange] = self.factory()
            failure = check.start(
                replace(case, scenario=case.scenario.project(exchange)))
            if failure is not None:
                return self._tagged(exchange, failure)
        return None

    def after_step(self, index: int, step: Any,
                   update: Any) -> Optional[OracleFailure]:
        """Route the step to the exchange it targets."""
        failure = self.inner[step.exchange].after_step(index, step, update)
        return failure and self._tagged(step.exchange, failure)

    def at_settle(self, last: int) -> Optional[OracleFailure]:
        """Settle every exchange."""
        for exchange, check in self.inner.items():
            failure = check.at_settle(last)
            if failure is not None:
                return self._tagged(exchange, failure)
        return None

    @staticmethod
    def _tagged(exchange: str, failure: OracleFailure) -> OracleFailure:
        return replace(failure, detail=f"[{exchange}] {failure.detail}")


def build_checks(case: Case) -> List[Check]:
    """Default-configured check objects for ``case.check_names()``."""
    checks: List[Check] = []
    for name in case.check_names():
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; "
                             f"expected one of {', '.join(_CHECKS)}")
        if name == "chaos" and (case.schedule is None or case.federated):
            raise ValueError("the chaos check needs a fault schedule over "
                             "a single-exchange scenario")
        module, attribute = _CHECKS[name]
        factory = getattr(importlib.import_module(module), attribute)
        lifted = case.federated and name != "federation"
        checks.append(PerExchange(factory) if lifted else factory())
    return checks


def replay(case: Case,
           checks: Optional[Sequence[Check]] = None
           ) -> Optional[OracleFailure]:
    """Drive ``checks`` (default: what ``case`` names) over the case's
    trace in lockstep; the first failure wins."""
    if checks is None:
        checks = build_checks(case)
    for check in checks:
        failure = check.start(case)
        if failure is not None:
            return failure
    trace = case.scenario.trace
    for index, step in enumerate(trace):
        update = case.scenario.step_update(step)
        for check in checks:
            failure = check.after_step(index, step, update)
            if failure is not None:
                return failure
    for check in checks:
        failure = check.at_settle(len(trace) - 1)
        if failure is not None:
            return failure
    return None


def shrink(case: Case, failure: Optional[OracleFailure] = None, *,
           runner: Callable[[Case], Optional[OracleFailure]] = replay,
           max_runs: int = 200) -> Tuple[Case, OracleFailure, int]:
    """Minimise a failing case; returns ``(case, failure, runs spent)``.

    First the trace is truncated to the failing prefix (a failure after
    step *k* cannot depend on later steps). Then, to a fixpoint: try
    deleting each scheduled fault, end first (a one-fault reproduction
    beats a six-fault pile-up, so faults go before steps), then each
    trace step, end first, shifting later faults one position earlier.
    ``max_runs`` bounds total replays, so a pathological case stops
    early with whatever reduction it has. ``failure`` is the
    already-observed failure, if any (saves the confirming run); a case
    that does not fail raises ``ValueError``.
    """
    runs = 0
    if failure is None:
        failure = runner(case)
        runs += 1
        if failure is None:
            raise ValueError("case does not fail; nothing to shrink")

    def attempt(candidate: Case) -> bool:
        nonlocal case, failure, runs
        result = runner(candidate)
        runs += 1
        if result is not None:
            case, failure = candidate, result
        return result is not None

    cut = failure.step + 1
    if 0 <= cut < len(case.scenario.trace) and runs < max_runs:
        attempt(case.with_trace(case.scenario.trace[:cut]))

    def sweep(count: int, remove: Callable[[Case, int], Case]) -> bool:
        kept = False
        for index in reversed(range(count)):
            if runs >= max_runs:
                break
            kept |= attempt(remove(case, index))
        return kept

    changed = True
    while changed and runs < max_runs:
        faults = 0 if case.schedule is None else len(case.schedule.faults)
        changed = sweep(faults, Case.without_fault)
        changed |= sweep(len(case.scenario.trace), Case.without_step)
    return case, failure, runs


@dataclass(frozen=True)
class FailureArtifact:
    """One saved failure: the shrunk case plus what it broke.

    Optional JSON keys are omitted when absent — ``schedule`` and
    ``original_fault_count`` without a fault schedule, ``checks`` /
    ``corpus_size`` / ``recompile_every`` at their defaults — so both v1
    formats that preceded the kernel are still valid serialisations.
    """

    case: Case
    kind: str
    step: int
    detail: str
    original_trace_length: int
    original_fault_count: Optional[int] = None

    @classmethod
    def of(cls, case: Case, failure: OracleFailure,
           original: Case) -> "FailureArtifact":
        """The artifact for ``case`` (shrunk from ``original``)."""
        return cls(
            case=case, kind=failure.kind, step=failure.step,
            detail=failure.detail,
            original_trace_length=len(original.scenario.trace),
            original_fault_count=(None if original.schedule is None
                                  else len(original.schedule.faults)))

    @property
    def failure(self) -> OracleFailure:
        """The recorded failure as an :class:`OracleFailure`."""
        return OracleFailure(kind=self.kind, step=self.step,
                             detail=self.detail)

    def file_name(self) -> str:
        """A deterministic, filesystem-safe artifact name."""
        slug = "".join(ch if ch.isalnum() else "-" for ch in self.kind)
        scenario, schedule = self.case.scenario, self.case.schedule
        if schedule is not None:
            return (f"chaos-failure-seed{schedule.seed}"
                    f"-faults{len(schedule.faults)}-{slug}.json")
        stem = "federated" if self.case.federated else "failure"
        return (f"{stem}-seed{scenario.seed}"
                f"-steps{len(scenario.trace)}-{slug}.json")

    def to_json(self) -> str:
        """The artifact as deterministic, pretty-printed JSON."""
        case = self.case
        payload: Dict[str, object] = {
            "version": ARTIFACT_VERSION,
            "kind": self.kind,
            "step": self.step,
            "detail": self.detail,
            "original_trace_length": self.original_trace_length,
            "scenario": case.scenario.to_dict(),
        }
        if case.schedule is not None:
            payload["schedule"] = case.schedule.to_dict()
            payload["original_fault_count"] = self.original_fault_count
        for option in _CASE_OPTIONS:
            if getattr(case, option.name) != option.default:
                payload[option.name] = getattr(case, option.name)
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, directory: Union[str, os.PathLike]) -> str:
        """Write the artifact under ``directory``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(os.fspath(directory), self.file_name())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path

    @classmethod
    def from_json(cls, text: str) -> "FailureArtifact":
        """Rebuild an artifact from :meth:`to_json` output."""
        payload = json.loads(text)
        version = payload.get("version")
        if version != ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {version!r}")
        scenario = Scenario.from_dict(payload["scenario"])
        schedule = payload.get("schedule")
        options = {option.name: payload[option.name]
                   for option in _CASE_OPTIONS if option.name in payload}
        if "checks" in options:
            options["checks"] = tuple(options["checks"])
        return cls(
            case=Case(scenario,
                      None if schedule is None
                      else ChaosSchedule.from_dict(schedule), **options),
            kind=payload["kind"],
            step=payload["step"],
            detail=payload["detail"],
            original_trace_length=payload["original_trace_length"],
            original_fault_count=payload.get("original_fault_count"))

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "FailureArtifact":
        """Read an artifact file back."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def replay_artifact(path: Union[str, os.PathLike]
                    ) -> Optional[OracleFailure]:
    """Re-run a saved failure under exactly the checks it recorded;
    ``None`` means it no longer reproduces (the bug is fixed)."""
    return replay(FailureArtifact.load(path).case)


@dataclass(frozen=True)
class SessionConfig:
    """What every budgeted session shares: the generated scenarios'
    shape, a wall-clock ``time_budget_seconds`` (checked between
    scenarios and before shrinking), ``artifact_dir`` to save failure
    artifacts, and ``shrink`` (off for quick triage runs)."""

    seed: int = 0
    scenarios: int = 5
    steps: int = 12
    participants: int = 4
    prefixes: int = 4
    policies: int = 5
    artifact_dir: Optional[str] = None
    time_budget_seconds: Optional[float] = None
    shrink: bool = True


@dataclass(frozen=True)
class Finding:
    """One failing case: where it came from and what it shrank to."""

    scenario_index: int
    artifact: FailureArtifact
    artifact_path: Optional[str]


@dataclass
class SessionReport:
    """The outcome of one budgeted session."""

    config: SessionConfig
    scenarios_run: int = 0
    steps_executed: int = 0
    comparisons: int = 0
    shrink_runs: int = 0
    findings: List[Finding] = field(default_factory=list)
    budget_exhausted: bool = False
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when no case failed."""
        return not self.findings

    def record(self, case: Case, checks: Sequence[Check],
               failure: Optional[OracleFailure]) -> None:
        """Fold one replay into the session totals."""
        length = len(case.scenario.trace)
        self.steps_executed += (
            length if failure is None
            else max(0, min(failure.step + 1, length)))
        self.comparisons += sum(check.comparisons for check in checks)

    def headline(self) -> List[str]:
        """The leading summary line(s)."""
        return [f"fuzz seed={self.config.seed}: {self.scenarios_run} "
                f"scenario(s), {self.steps_executed} step(s), "
                f"{self.comparisons} forwarding comparison(s)"]

    def summary(self) -> str:
        """A deterministic multi-line summary (no wall-clock numbers)."""
        lines = self.headline()
        if self.budget_exhausted:
            lines.append("time budget exhausted before the scenario count")
        if not self.findings:
            lines.append("no divergence found")
        for finding in self.findings:
            artifact = finding.artifact
            case = artifact.case
            shrunk = (f"trace shrunk {artifact.original_trace_length} -> "
                      f"{len(case.scenario.trace)} step(s)")
            if case.schedule is not None:
                shrunk += (f", faults {artifact.original_fault_count} -> "
                           f"{len(case.schedule.faults)}")
            lines.append(
                f"FAIL scenario#{finding.scenario_index} "
                f"(seed {case.scenario.seed}): {artifact.kind} "
                f"after step {artifact.step}, {shrunk}")
            lines.append(f"  {artifact.detail}")
            if finding.artifact_path:
                lines.append(f"  artifact: {finding.artifact_path}")
        return "\n".join(lines)


def run_session(config: SessionConfig, report: SessionReport,
                make_case: Callable[[int], Case], *, harness: str,
                checks_for: Callable[[Case], Sequence[Check]] = build_checks,
                telemetry: Optional[Telemetry] = None) -> SessionReport:
    """Run one budgeted session into ``report``; never raises on a finding.

    Each iteration replays ``make_case(index)`` under
    ``checks_for(case)`` and, on a failure, shrinks it and saves a
    replayable artifact; the loop stops at ``config.scenarios`` or when
    the wall-clock budget is spent. Activity lands in the
    ``sdx_harness_*`` counters, labelled by ``harness``.
    """
    telemetry = telemetry if telemetry is not None else get_telemetry()
    registry = telemetry.registry
    scenarios_counter = registry.counter(
        "sdx_harness_scenarios_total", "Harness cases executed",
        harness=harness)
    failures_counter = registry.counter(
        "sdx_harness_failures_total",
        "Cases that diverged, broke an invariant or failed a settle "
        "assertion", harness=harness)
    shrink_counter = registry.counter(
        "sdx_harness_shrink_runs_total", "Replays spent shrinking",
        harness=harness)
    started = time.monotonic()

    def out_of_budget() -> bool:
        return (config.time_budget_seconds is not None
                and time.monotonic() - started >= config.time_budget_seconds)

    def run(case: Case) -> Tuple[Optional[OracleFailure], Sequence[Check]]:
        checks = checks_for(case)
        for check in checks:
            registry.counter("sdx_harness_checks_total",
                             "Replays each check took part in",
                             check=check.name).inc()
        return replay(case, checks), checks

    for index in range(config.scenarios):
        if out_of_budget():
            report.budget_exhausted = True
            break
        original = case = make_case(index)
        with telemetry.span("harness.scenario", harness=harness,
                            index=index, seed=case.scenario.seed):
            failure, checks = run(case)
        report.record(case, checks, failure)
        report.scenarios_run += 1
        scenarios_counter.inc()
        if failure is None:
            continue
        failures_counter.inc()
        runs = 0
        if config.shrink and not out_of_budget():
            case, failure, runs = shrink(
                case, failure, runner=lambda candidate: run(candidate)[0])
        report.shrink_runs += runs
        shrink_counter.inc(runs)
        artifact = FailureArtifact.of(case, failure, original)
        report.findings.append(Finding(
            scenario_index=index, artifact=artifact,
            artifact_path=(None if config.artifact_dir is None
                           else artifact.save(config.artifact_dir))))
    report.elapsed_seconds = time.monotonic() - started
    return report

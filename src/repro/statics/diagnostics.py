"""Diagnostic types for the static policy verifier.

A :class:`Diagnostic` is one finding: a stable check ID, a severity, a
:class:`SourceLocation` naming the offending clause, a human-readable
message, and (where the check can produce one) a concrete witness
packet. A :class:`StaticsReport` aggregates the findings of one analyzer
run and renders them for humans (``render``) or machines (``to_dict`` /
``to_json``), mirroring how compiler diagnostics separate presentation
from detection.
"""

from __future__ import annotations

import enum
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import (Any, Callable, ContextManager, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.exceptions import StaticPolicyError
from repro.net.packet import Packet

logger = logging.getLogger("repro.statics")

#: Rendering / sort order: most severe first.
_SEVERITY_RANK = {"error": 0, "warning": 1, "info": 2}

#: What a gate does about the error findings a change introduces: nothing,
#: log them, or refuse the change — for both gates and both controllers.
GATE_MODES = ("off", "warn", "strict")


def gate_mode(mode: str, name: str = "statics_mode") -> str:
    """``mode``, checked to be one of :data:`GATE_MODES`."""
    if mode not in GATE_MODES:
        raise ValueError(f"{name} must be one of {GATE_MODES}, got {mode!r}")
    return mode


class Severity(str, enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make ``repro lint-policies`` exit non-zero and
    strict-mode controllers refuse to start; ``WARNING`` findings are
    reported but do not gate; ``INFO`` findings are advisory context.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Numeric rank; lower is more severe."""
        return _SEVERITY_RANK[self.value]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic points: a participant's clause (or document).

    ``clause_index`` indexes the participant's normalised clause list for
    ``direction`` (``"out"`` / ``"in"``); it is ``None`` for findings
    about the participant as a whole (e.g. unreachable defaults).
    ``document_index`` is set instead when the finding is about a raw
    policy document that was never installed.
    """

    participant: str
    direction: Optional[str] = None
    clause_index: Optional[int] = None
    document_index: Optional[int] = None

    def describe(self) -> str:
        """A compact ``participant[:direction[#clause]]`` rendering."""
        text = self.participant
        if self.direction is not None:
            text += f":{self.direction}"
        if self.clause_index is not None:
            text += f"#{self.clause_index}"
        if self.document_index is not None:
            text += f"@doc{self.document_index}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe encoding (``None`` fields omitted)."""
        out: Dict[str, Any] = {"participant": self.participant}
        if self.direction is not None:
            out["direction"] = self.direction
        if self.clause_index is not None:
            out["clause_index"] = self.clause_index
        if self.document_index is not None:
            out["document_index"] = self.document_index
        return out


@dataclass(frozen=True)
class RawPolicyDocument:
    """One not-yet-installed policy document offered for linting.

    ``clause`` is the JSON clause encoding of :mod:`repro.config`
    (``{"match": {...}, "fwd": ...}``). Raw documents flow through the
    sanity and isolation checks, which must run *before*
    ``coerce_constraint`` / install-time validation would reject them.
    """

    participant: str
    direction: str
    clause: Mapping[str, Any]
    index: int = 0

    @property
    def location(self) -> SourceLocation:
        """The source location of this document."""
        return SourceLocation(
            participant=self.participant, direction=self.direction,
            document_index=self.index)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    check_id: str
    check_name: str
    severity: Severity
    location: SourceLocation
    message: str
    witness: Optional[Packet] = None
    data: Tuple[Tuple[str, Any], ...] = ()

    def describe(self) -> str:
        """A single-line human-readable rendering."""
        text = (f"{self.severity.value.upper():7s} {self.check_id} "
                f"[{self.location.describe()}] {self.message}")
        if self.witness is not None:
            text += f" (e.g. {self.witness!r})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe encoding."""
        out: Dict[str, Any] = {
            "check_id": self.check_id,
            "check_name": self.check_name,
            "severity": self.severity.value,
            "location": self.location.to_dict(),
            "message": self.message,
        }
        if self.witness is not None:
            out["witness"] = {
                name: str(value) for name, value in self.witness.items()
                if value is not None
            }
        if self.data:
            out["data"] = {name: _json_safe(value) for name, value in self.data}
        return out


def _json_safe(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(name): _json_safe(item) for name, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass
class StaticsReport:
    """The outcome of one static-analysis run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    participants_analyzed: int = 0
    clauses_analyzed: int = 0
    checks_run: Tuple[str, ...] = ()

    def extend(self, findings: Sequence[Diagnostic]) -> None:
        """Append findings from one check."""
        self.diagnostics.extend(findings)

    def sorted(self) -> List[Diagnostic]:
        """Diagnostics ordered by severity, then check ID, then location."""
        return sorted(
            self.diagnostics,
            key=lambda diag: (diag.severity.rank, diag.check_id,
                              diag.location.participant,
                              diag.location.direction or "",
                              diag.location.clause_index
                              if diag.location.clause_index is not None else -1))

    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity findings only."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warning-severity findings only."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        """True when any finding is error severity (lint gate fails)."""
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def by_check(self, check_id: str) -> List[Diagnostic]:
        """Findings of one check, in report order."""
        return [d for d in self.diagnostics if d.check_id == check_id]

    def introduced(self, standing: Iterable[Diagnostic]) -> List[Diagnostic]:
        """The error findings a change introduced: this report's, less one
        for each of ``standing`` — those of the state before it — that says
        the same of the same participant and direction (clause numbers
        aside: removing a clause renumbers the ones after it)."""
        left = Counter(_same_finding(diag) for diag in standing)
        fresh = []
        for diag in self.errors:
            key = _same_finding(diag)
            if left[key]:
                left[key] -= 1
            else:
                fresh.append(diag)
        return fresh

    def counts(self) -> Dict[str, int]:
        """Finding counts per severity value."""
        out = {"error": 0, "warning": 0, "info": 0}
        for diagnostic in self.diagnostics:
            out[diagnostic.severity.value] += 1
        return out

    def summary(self) -> str:
        """One line: totals per severity over the analyzed surface."""
        counts = self.counts()
        return (f"{self.participants_analyzed} participant(s), "
                f"{self.clauses_analyzed} clause(s): "
                f"{counts['error']} error(s), {counts['warning']} warning(s), "
                f"{counts['info']} info")

    def render(self) -> str:
        """A printable multi-line report, most severe findings first."""
        lines = [self.summary()]
        lines.extend(diag.describe() for diag in self.sorted())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe encoding of the whole report."""
        return {
            "summary": {
                "participants_analyzed": self.participants_analyzed,
                "clauses_analyzed": self.clauses_analyzed,
                "checks_run": list(self.checks_run),
                "counts": self.counts(),
                "ok": not self.has_errors,
            },
            "diagnostics": [diag.to_dict() for diag in self.sorted()],
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _same_finding(diag: Diagnostic) -> Tuple[Any, ...]:
    return (diag.check_id, diag.location.participant,
            diag.location.direction, diag.message)


def enforce(findings: Iterable[Diagnostic], what: str,
            error: Optional[Callable[..., Exception]] = None,
            report: Optional[StaticsReport] = None) -> None:
    """Report and enforce, the one body under every lint call and gate:
    log each of ``findings`` (errors, the caller's selection) and, given
    the ``error`` class to refuse with, raise it if there are any."""
    findings = list(findings)
    for diag in findings:
        logger.warning("%s: %s", what, diag.describe())
    if error is not None and findings:
        raise error(
            f"{what} verification failed with {len(findings)} error(s); "
            f"first: {findings[0].describe()}", report=report)


def admit(owner: Any,
          unstaged: Optional[Callable[[], ContextManager]] = None) -> None:
    """The policy gate of ``owner`` — a controller, single or federated —
    as the admit stage of a change transaction. ``owner.lint_policies()``
    analyses the staged state, logs its error findings (all ``warn`` does)
    and keeps the report. The contract, the dataplane gate's too: ``strict``
    refuses a change iff it introduces an error finding the state before it
    lacked — analysed only if the staged one has errors, inside
    ``unstaged()``, which sets the edit aside; a start has none, so any
    error refuses. What a BGP update caused is in both, and vetoes nothing.
    """
    if owner.statics_mode == "off":
        return
    report = owner.lint_policies()
    if owner.statics_mode != "strict" or not report.has_errors:
        return
    fresh = report.errors
    if unstaged is not None:
        with unstaged():
            fresh = report.introduced(owner.lint_policies().errors)
        owner.last_statics_report = report
    enforce(fresh, "strict statics gate", StaticPolicyError, report)

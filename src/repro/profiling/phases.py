"""Attribute span wall time to named pipeline stages.

The telemetry tracer records *what ran*; this module answers *where the
time went*. Every span name the pipeline emits maps to one of a dozen
named stages (:data:`PHASE_BY_SPAN`; a tier-1 scan holds every literal
span name under ``src/repro`` to a key), and :func:`attribute_spans` folds
a finished-span buffer into per-stage **self time** — each span's
duration minus its direct children's, so a stage is never double-billed
for work its sub-stages already claimed. Span names with no mapping
inherit the nearest mapped ancestor's phase (the ``compile`` internals
all land under the compile stages); spans with no mapped ancestor fall
into the ``unattributed`` bucket, which is what the coverage number —
"how much of the profiled wall time do the named stages explain" — is
measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.telemetry.trace import Span

#: The phase bucket for spans no mapping (direct or inherited) covers.
UNATTRIBUTED = "unattributed"

#: Span name -> named pipeline stage. Spans created inside one of these
#: (cache fills, helper calls that open their own spans) inherit the
#: phase of their nearest mapped ancestor.
PHASE_BY_SPAN: Mapping[str, str] = {
    # BGP ingestion and the route-server decision process.
    "bgp.ingest": "bgp_ingest",
    "bgp.decision": "bgp_ingest",
    "bgp.session_down": "bgp_ingest",
    # The policy join: default forwarding plus per-participant
    # outbound/inbound compilation against the current RIBs.
    "compile.defaults": "policy_join",
    "compile.outbound": "policy_join",
    "compile.inbound": "policy_join",
    # Minimum Disjoint Subsets / FEC grouping and VNH assignment.
    "compile.fec": "mds_fec_grouping",
    "compile.vnh": "vnh_assignment",
    "vnh.assign_groups": "vnh_assignment",
    "vnh.assign": "vnh_assignment",
    # Classifier composition (the cross-product) and table reduction.
    "compile.composition": "classifier_cross_product",
    "compile.reduction": "classifier_cross_product",
    # The compile span's own self time: stage glue, timing bookkeeping.
    "compile": "compile_overhead",
    # The two-stage incremental update path.
    "controller.update": "incremental_delta",
    "fastpath": "incremental_delta",
    "fastpath.prefix": "incremental_delta",
    "compile.fastpath": "incremental_delta",
    # Re-advertisement after a table swap (VNH/VMAC re-announce).
    "controller.advertise": "readvertise",
    # Southbound: diff computation vs applying mods to the table.
    "southbound.sync": "southbound_diff",
    "southbound.diff": "southbound_diff",
    "southbound.push": "southbound_diff",
    "southbound.apply": "southbound_swap",
    "flowtable.apply": "southbound_swap",
    # The dataplane verifier: whole-table analysis, and the delta check a
    # table swap runs inside ``southbound.apply``.
    "statics.dataplane": "dataplane_verify",
    "statics.committed": "dataplane_verify",
    # Control-plane runtime event drain and its recompile trigger.
    "runtime.step": "runtime_drain",
    "runtime.recompile": "orchestration",
    # Controller orchestration around the stages above.
    "controller.start": "orchestration",
    "controller.recompile": "orchestration",
    "install_full": "orchestration",
    "recompile": "orchestration",
    # Pre-compilation static analysis.
    "statics.analyze": "statics",
    "statics.check": "statics",
    # Verification harness driver.
    "harness.scenario": "verification",
}


@dataclass
class PhaseStat:
    """Aggregated cost of one named pipeline stage."""

    name: str
    self_seconds: float = 0.0
    calls: int = 0
    net_bytes: int = 0
    peak_bytes: int = 0

    def merge_span(self, self_seconds: float, span: Span) -> None:
        """Fold one span's self time (and memory tags) into the stat."""
        self.self_seconds += self_seconds
        self.calls += 1
        net = span.tags.get("mem_net_bytes")
        if isinstance(net, int):
            self.net_bytes += net
        peak = span.tags.get("mem_peak_bytes")
        if isinstance(peak, int) and peak > self.peak_bytes:
            self.peak_bytes = peak

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view of the stat."""
        return {
            "phase": self.name,
            "self_seconds": self.self_seconds,
            "calls": self.calls,
            "net_bytes": self.net_bytes,
            "peak_bytes": self.peak_bytes,
        }


@dataclass
class PhaseReport:
    """Per-stage attribution of one profiled run."""

    phases: Dict[str, PhaseStat] = field(default_factory=dict)
    total_seconds: float = 0.0
    span_count: int = 0

    @property
    def attributed_seconds(self) -> float:
        """Wall time the named stages explain."""
        return sum(stat.self_seconds for name, stat in self.phases.items()
                   if name != UNATTRIBUTED)

    @property
    def coverage(self) -> float:
        """Fraction of total wall time attributed to named stages."""
        if self.total_seconds <= 0.0:
            return 0.0
        return min(1.0, self.attributed_seconds / self.total_seconds)

    def sorted_phases(self) -> List[PhaseStat]:
        """Stats ordered by descending self time."""
        return sorted(self.phases.values(),
                      key=lambda stat: -stat.self_seconds)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view of the report."""
        return {
            "total_seconds": self.total_seconds,
            "attributed_seconds": self.attributed_seconds,
            "coverage": self.coverage,
            "span_count": self.span_count,
            "phases": [stat.to_dict() for stat in self.sorted_phases()],
        }

    def render(self) -> str:
        """A plain-text table: phase, self ms, share, calls, memory."""
        lines = [f"{'phase':<26} {'self ms':>10} {'share':>7} "
                 f"{'calls':>7} {'net KiB':>9} {'peak KiB':>9}"]
        for stat in self.sorted_phases():
            share = (stat.self_seconds / self.total_seconds
                     if self.total_seconds else 0.0)
            lines.append(
                f"{stat.name:<26} {stat.self_seconds * 1000:>10.2f} "
                f"{share:>6.1%} {stat.calls:>7} "
                f"{stat.net_bytes / 1024:>9.1f} "
                f"{stat.peak_bytes / 1024:>9.1f}")
        lines.append(
            f"{'total':<26} {self.total_seconds * 1000:>10.2f} "
            f"{1.0:>6.1%} {self.span_count:>7}")
        lines.append(f"coverage: {self.coverage:.1%} of wall time "
                     f"attributed to named stages")
        return "\n".join(lines)


def phase_of(name: str) -> Optional[str]:
    """The stage mapped to a span name, or ``None`` when unmapped."""
    return PHASE_BY_SPAN.get(name)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per-span self time: duration minus direct children's durations.

    Children whose parent was evicted from the buffer simply don't
    subtract from anything; negative self times (a child measured
    slightly longer than its parent at microsecond scale) clamp to 0.
    """
    child_seconds: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_seconds[span.parent_id] = (
                child_seconds.get(span.parent_id, 0.0) + span.duration)
    return {
        span.span_id: max(0.0, span.duration
                          - child_seconds.get(span.span_id, 0.0))
        for span in spans
    }


def attribute_spans(spans: Iterable[Span],
                    total_seconds: Optional[float] = None) -> PhaseReport:
    """Fold finished spans into a :class:`PhaseReport`.

    ``total_seconds`` is the denominator for coverage — the wall time of
    the profiled region. When omitted it defaults to the summed duration
    of the *root* spans in the buffer (spans whose parent is absent), so
    a workload wrapped in a single root span measures coverage against
    that root.
    """
    span_list = list(spans)
    by_id = {span.span_id: span for span in span_list}
    selfs = self_times(span_list)

    phase_cache: Dict[int, str] = {}

    def resolve(span: Span) -> str:
        cached = phase_cache.get(span.span_id)
        if cached is not None:
            return cached
        phase = phase_of(span.name)
        if phase is None:
            parent = (by_id.get(span.parent_id)
                      if span.parent_id is not None else None)
            phase = resolve(parent) if parent is not None else UNATTRIBUTED
        phase_cache[span.span_id] = phase
        return phase

    report = PhaseReport(span_count=len(span_list))
    for span in span_list:
        phase = resolve(span)
        stat = report.phases.get(phase)
        if stat is None:
            stat = report.phases[phase] = PhaseStat(name=phase)
        stat.merge_span(selfs[span.span_id], span)

    if total_seconds is None:
        total_seconds = sum(
            span.duration for span in span_list
            if span.parent_id is None or span.parent_id not in by_id)
    report.total_seconds = total_seconds
    return report

"""Tests for phase attribution: self time, inheritance, coverage."""

import ast
import pathlib

import pytest

from repro.policy.policies import fwd, match
from repro.profiling import PhaseProfiler
from repro.profiling.phases import (
    PHASE_BY_SPAN,
    UNATTRIBUTED,
    attribute_spans,
    self_times,
)
from repro.telemetry.trace import Span

from tests.core.scenarios import figure1_controller

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def make_span(name, span_id, parent_id, start, end, trace_id=1, tags=None):
    """A finished span literal for attribution tests."""
    return Span(name=name, span_id=span_id, parent_id=parent_id,
                trace_id=trace_id, start=start, end=end,
                tags=dict(tags or {}))


class TestSelfTimes:
    def test_parent_excludes_direct_children(self):
        spans = [
            make_span("compile", 1, None, 0.0, 1.0),
            make_span("compile.fec", 2, 1, 0.1, 0.4),
            make_span("compile.composition", 3, 1, 0.4, 0.9),
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(0.2)  # 1.0 - 0.3 - 0.5
        assert selfs[2] == pytest.approx(0.3)
        assert selfs[3] == pytest.approx(0.5)

    def test_grandchildren_do_not_double_subtract(self):
        spans = [
            make_span("compile", 1, None, 0.0, 1.0),
            make_span("compile.composition", 2, 1, 0.0, 0.8),
            make_span("inner.helper", 3, 2, 0.0, 0.6),
        ]
        selfs = self_times(spans)
        # The root only loses its direct child's time, not the
        # grandchild's as well.
        assert selfs[1] == pytest.approx(0.2)
        assert selfs[2] == pytest.approx(0.2)
        assert selfs[3] == pytest.approx(0.6)

    def test_negative_self_time_clamps_to_zero(self):
        spans = [
            make_span("outer", 1, None, 0.0, 0.1),
            make_span("inner", 2, 1, 0.0, 0.2),  # timer skew
        ]
        assert self_times(spans)[1] == 0.0

    def test_evicted_parent_does_not_crash(self):
        spans = [make_span("child", 5, 999, 0.0, 0.3)]
        assert self_times(spans) == {5: 0.3}


class TestAttribution:
    def test_mapped_names_land_in_their_phase(self):
        spans = [
            make_span("compile", 1, None, 0.0, 1.0),
            make_span("compile.fec", 2, 1, 0.0, 0.4),
        ]
        report = attribute_spans(spans)
        assert report.phases["mds_fec_grouping"].self_seconds == 0.4
        assert report.phases["compile_overhead"].self_seconds == 0.6

    def test_unmapped_span_inherits_nearest_mapped_ancestor(self):
        spans = [
            make_span("compile", 1, None, 0.0, 1.0),
            make_span("compile.composition", 2, 1, 0.0, 0.8),
            make_span("private.helper", 3, 2, 0.0, 0.5),
        ]
        report = attribute_spans(spans)
        # The helper's self time lands under the composition's phase.
        assert (report.phases["classifier_cross_product"].self_seconds
                == 0.8)
        assert UNATTRIBUTED not in report.phases

    def test_unmapped_root_is_unattributed(self):
        spans = [make_span("mystery", 1, None, 0.0, 0.5)]
        report = attribute_spans(spans)
        assert report.phases[UNATTRIBUTED].self_seconds == 0.5
        assert report.coverage == 0.0

    def test_total_defaults_to_root_durations(self):
        spans = [
            make_span("compile", 1, None, 0.0, 1.0),
            make_span("compile.fec", 2, 1, 0.0, 0.4),
            make_span("recompile", 3, None, 2.0, 2.5, trace_id=3),
        ]
        report = attribute_spans(spans)
        assert report.total_seconds == 1.5
        assert report.coverage == 1.0

    def test_coverage_against_explicit_total(self):
        spans = [make_span("compile", 1, None, 0.0, 0.5)]
        report = attribute_spans(spans, total_seconds=1.0)
        assert report.coverage == 0.5
        assert report.attributed_seconds == 0.5

    def test_memory_tags_aggregate(self):
        spans = [
            make_span("compile", 1, None, 0.0, 1.0,
                      tags={"mem_net_bytes": 100, "mem_peak_bytes": 900}),
            make_span("compile", 2, None, 1.0, 2.0, trace_id=2,
                      tags={"mem_net_bytes": -40, "mem_peak_bytes": 300}),
        ]
        stat = attribute_spans(spans).phases["compile_overhead"]
        assert stat.calls == 2
        assert stat.net_bytes == 60
        assert stat.peak_bytes == 900  # high-water mark, not a sum

    def test_report_dict_and_render(self):
        spans = [
            make_span("compile", 1, None, 0.0, 1.0),
            make_span("unknown-root", 2, None, 1.0, 1.5, trace_id=2),
        ]
        report = attribute_spans(spans)
        document = report.to_dict()
        assert document["span_count"] == 2
        assert document["phases"][0]["phase"] == "compile_overhead"
        text = report.render()
        assert "compile_overhead" in text and "coverage" in text

    def test_every_mapped_phase_is_a_valid_identifier(self):
        # Phase names surface as Prometheus label values and folded
        # frame names; keep them shell- and label-safe.
        for phase in set(PHASE_BY_SPAN.values()):
            assert phase.replace("_", "").isalnum()


def opened_span_names():
    """Every literal span name the package opens: ``.span("x")`` gives
    ``x``, the compiler's ``_stage("x")`` gives ``compile.x``."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            if callee == "span":
                names.add(node.args[0].value)
            elif callee == "_stage":
                names.add(f"compile.{node.args[0].value}")
    return names


class TestEverySpanHasAPhase:
    def test_every_opened_span_name_is_mapped(self):
        """An unmapped span inherits its parent's phase: the dataplane
        verifier was billed to the southbound swap it runs inside."""
        names = opened_span_names()
        assert {"compile.fec", "statics.dataplane", "bgp.ingest"} <= names
        assert sorted(names - set(PHASE_BY_SPAN) - {"profile.workload"}) == []

    def test_policy_change_bills_the_verifier_to_its_own_phase(self):
        sdx, a, *_ = figure1_controller(dataplane_statics_mode="warn")
        sdx.start()
        sdx.telemetry.tracer.clear()
        profiler = PhaseProfiler(sdx.telemetry)
        with profiler:
            a.add_outbound(match(dstport=8080) >> fwd("B"))
        report = profiler.report()
        verify = report.phases["dataplane_verify"]
        assert verify.calls == sum(
            span.name == "statics.dataplane"
            for span in sdx.telemetry.tracer.finished())
        assert verify.calls >= 1 and verify.self_seconds > 0
        assert "southbound_swap" in report.phases

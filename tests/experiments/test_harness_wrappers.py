"""Tests for composition reporting."""

from tests.core.scenarios import figure1_controller


class TestCompositionReport:
    def test_report_populated_by_compiler(self):
        sdx, *_ = figure1_controller()
        result = sdx.start()
        report = result.report
        assert report.stage1_rules > 0
        assert report.stage2_rules > 0
        assert report.final_rules > 0
        assert report.stats.sequential_ops > 0
        assert report.stats.rule_pairs_examined > 0

    def test_timings_sum_close_to_total(self):
        sdx, *_ = figure1_controller()
        result = sdx.start()
        partial = sum(seconds for stage, seconds in result.timings.items()
                      if stage != "total")
        assert partial <= result.timings["total"]
        assert result.timings["total"] < 5.0

"""End-to-end tests for `repro profile`: the coverage floor (at least 90 %
of a compile+update run's wall time attributed to named phases) and the
flamegraph output, through the real CLI entry point."""

import json

from repro.__main__ import main


class TestProfileCli:
    def test_profile_meets_coverage_floor(self, capsys):
        assert main(["profile", "--participants", "20", "--prefixes", "150",
                     "--updates", "10", "--json",
                     "--min-coverage", "0.9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coverage"] >= 0.9
        phases = {entry["phase"] for entry in report["phases"]}
        assert "classifier_cross_product" in phases
        assert "incremental_delta" in phases

    def test_flamegraph_emits_folded_stacks(self, capsys):
        assert main(["profile", "--participants", "10", "--prefixes", "80",
                     "--updates", "5", "--flamegraph"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines
        for line in lines:
            path, _, count = line.rpartition(" ")
            assert path and int(count) >= 0
        # The workload root frames every stack.
        assert all(line.startswith("profile.workload")
                   for line in lines)

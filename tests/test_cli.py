"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main

#: The ``make soak-smoke`` exchange and trace.
SOAK_SMOKE = ["soak", "--participants", "12", "--prefixes", "100",
              "--updates", "400", "--burst-size", "100",
              "--hot-prefixes", "12"]


def soak_counts(out):
    """The processed / coalesced / dropped counts a soak report prints."""
    import re

    return {name: int(re.search(rf"{name}: (\d+)", out).group(1))
            for name in ("processed", "coalesced", "dropped")}


class TestCli:
    def test_list_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1", "--scale", "0.0005"]) == 0
        out = capsys.readouterr().out
        assert "AMS-IX" in out and "DE-CIX" in out and "LINX" in out

    def test_fig5a(self, capsys):
        assert main(["fig5a", "--time-scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "application-specific peering policy" in out
        assert "route withdrawal" in out

    def test_fig5b(self, capsys):
        assert main(["fig5b", "--time-scale", "0.05"]) == 0
        assert "load-balance policy" in capsys.readouterr().out

    def test_fig6_custom_sizes(self, capsys):
        assert main(["fig6", "--participants", "20", "40",
                     "--prefixes", "300", "600"]) == 0
        out = capsys.readouterr().out
        assert "20 participants" in out
        assert "prefix groups" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--participants", "20",
                     "--prefixes", "200"]) == 0
        assert "flow rules" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8", "--participants", "20",
                     "--prefixes", "200"]) == 0
        assert "compile seconds" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["fig9", "--participants", "20", "--bursts", "1", "3",
                     "--prefixes", "200"]) == 0
        assert "additional rules" in capsys.readouterr().out

    def test_fig10(self, capsys):
        assert main(["fig10", "--participants", "20", "--updates", "10",
                     "--prefixes", "200"]) == 0
        assert "median ms" in capsys.readouterr().out

    def test_replay(self, capsys):
        assert main(["replay", "--participants", "20", "--prefixes", "200",
                     "--updates", "20"]) == 0
        out = capsys.readouterr().out
        assert "fast path median" in out

    def test_stats_table(self, capsys):
        assert main(["stats", "--participants", "8", "--prefixes", "60",
                     "--updates", "5"]) == 0
        out = capsys.readouterr().out
        assert "sdx_bgp_updates_total" in out
        assert "sdx_compile_seconds" in out
        assert "sdx_southbound_flowmods_total" in out

    def test_stats_json(self, capsys):
        import json
        assert main(["stats", "--participants", "8", "--prefixes", "60",
                     "--updates", "5", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["sdx_bgp_updates_total"] > 0
        assert data["spans"], "span tree must survive the JSON export"

    def test_stats_prometheus(self, capsys):
        assert main(["stats", "--participants", "8", "--prefixes", "60",
                     "--updates", "5", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sdx_bgp_updates_total counter" in out
        assert 'sdx_compile_stage_seconds{stage="composition",quantile' in out

    def test_trace_text(self, capsys):
        assert main(["trace", "--participants", "8", "--prefixes", "60",
                     "--updates", "5"]) == 0
        out = capsys.readouterr().out
        assert "bgp.ingest" in out
        assert "flowtable.apply" in out

    def test_trace_json(self, capsys):
        import json
        assert main(["trace", "--participants", "8", "--prefixes", "60",
                     "--updates", "5", "--json"]) == 0
        roots = json.loads(capsys.readouterr().out)
        assert any(root["name"] == "bgp.ingest" for root in roots)

    def test_fuzz_clean_session(self, capsys):
        assert main(["fuzz", "--seed", "7", "--scenarios", "2",
                     "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "fuzz seed=7: 2 scenario(s)" in out
        assert "no divergence found" in out

    def test_fuzz_finding_saves_artifact_and_replays(self, tmp_path,
                                                     capsys, monkeypatch):
        from repro.core.incremental import IncrementalEngine
        monkeypatch.setattr(IncrementalEngine, "_fast_path_for_prefix",
                            lambda self, prefix, *_args: 0)
        assert main(["fuzz", "--seed", "3", "--scenarios", "1",
                     "--steps", "8", "--artifact-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL scenario#0" in out
        artifacts = list(tmp_path.glob("failure-*.json"))
        assert len(artifacts) == 1

        # Replay on the still-broken tree reproduces the failure...
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 1
        assert "incremental-vs-reference" in capsys.readouterr().out
        # ...and on the fixed tree comes back clean.
        monkeypatch.undo()
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 0
        assert "no failure reproduced" in capsys.readouterr().out

    def test_fuzz_runtime_mode(self, capsys):
        assert main(["fuzz", "--seed", "7", "--scenarios", "1",
                     "--steps", "6", "--runtime"]) == 0
        assert "no divergence found" in capsys.readouterr().out

    def test_fuzz_federation_mode(self, capsys):
        assert main(["fuzz", "--seed", "7", "--scenarios", "2",
                     "--steps", "4", "--federation"]) == 0
        out = capsys.readouterr().out
        assert "fuzz seed=7: 2 scenario(s)" in out
        assert "no divergence found" in out

    def test_fuzz_federation_three_exchanges(self, capsys):
        assert main(["fuzz", "--seed", "11", "--scenarios", "1",
                     "--steps", "3", "--federation",
                     "--exchanges", "3"]) == 0
        assert "no divergence found" in capsys.readouterr().out

    def test_fuzz_federation_finding_shrinks_and_replays(self, tmp_path,
                                                         capsys, monkeypatch):
        """A federated finding goes through the same kernel as any
        other: shrunk, saved versioned, replayable by path."""
        from repro.federation.controller import FederatedController
        real_submit = FederatedController.submit_update

        def lossy_submit(federation, exchange, update):
            if not update.withdrawals:  # the defect: withdrawals vanish
                real_submit(federation, exchange, update)

        monkeypatch.setattr(FederatedController, "submit_update",
                            lossy_submit)
        assert main(["fuzz", "--seed", "7", "--scenarios", "1",
                     "--steps", "6", "--federation",
                     "--artifact-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL scenario#0" in out
        assert "federated-forwarding-divergence" in out
        assert "trace shrunk 6 -> 1 step(s)" in out
        artifacts = list(tmp_path.glob("federated-*.json"))
        assert len(artifacts) == 1

        assert main(["fuzz", "--replay", str(artifacts[0])]) == 1
        assert "federated-forwarding-divergence" in capsys.readouterr().out
        monkeypatch.undo()
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 0
        assert "no failure reproduced" in capsys.readouterr().out

    def test_fuzz_federation_runs_the_other_checks_per_exchange(self, capsys):
        assert main(["fuzz", "--seed", "7", "--scenarios", "1",
                     "--steps", "4", "--federation", "--runtime",
                     "--statics", "--dataplane"]) == 0
        assert "no divergence found" in capsys.readouterr().out

    def test_soak_step_driven(self, capsys):
        assert main(["soak", "--participants", "8", "--prefixes", "60",
                     "--updates", "80", "--burst-size", "40",
                     "--hot-prefixes", "6"]) == 0
        out = capsys.readouterr().out
        assert "step-driven mode" in out
        assert "route-server submissions" in out
        assert "coalesced" in out
        assert "degraded now: False" in out
        assert "fast-path debt 0" in out

    def test_soak_shed_oldest(self, capsys):
        assert main(SOAK_SMOKE + ["--queue-depth", "16", "--overload",
                                  "shed-oldest", "--no-coalesce"]) == 0
        out = capsys.readouterr().out
        assert "overload=shed-oldest" in out
        counts = soak_counts(out)
        assert counts["dropped"] > 0
        assert counts["processed"] + counts["dropped"] == 400

    def test_soak_shed_with_coalescing_counts_each_update_once(self,
                                                                capsys):
        assert main(SOAK_SMOKE + ["--queue-depth", "8", "--overload",
                                  "shed-oldest"]) == 0
        counts = soak_counts(capsys.readouterr().out)
        assert counts["dropped"] > 0 and counts["coalesced"] > 0
        assert (counts["processed"] + counts["coalesced"]
                + counts["dropped"]) == 400

    def test_soak_degrade_enters_once_and_recovers(self, capsys):
        assert main(SOAK_SMOKE + ["--queue-depth", "16", "--overload",
                                  "degrade"]) == 0
        out = capsys.readouterr().out
        assert "degrade entries: 1; degraded now: False" in out
        assert "fast-path debt 0" in out

    def test_soak_exits_1_unless_converged(self, capsys, monkeypatch):
        from repro.runtime import ControlPlaneRuntime

        # Without the final recompile the fast-path debt stays.
        monkeypatch.setattr(ControlPlaneRuntime, "settle",
                            ControlPlaneRuntime.drain)
        assert main(SOAK_SMOKE) == 1
        out = capsys.readouterr().out
        assert "NOT CONVERGED: fast-path debt left" in out
        assert "fast-path debt 0" not in out

    def test_soak_in_listing(self, capsys):
        assert main(["list"]) == 0
        assert "soak" in capsys.readouterr().out

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["figure-nine"])


class TestLintPolicies:
    def config_document(self):
        from repro.bgp.asn import AsPath
        from repro.config import export_config
        from repro.core.controller import SdxController
        from repro.net.addresses import IPv4Prefix
        from repro.policy.policies import fwd, match

        sdx = SdxController()
        sdx.add_participant("A", 65001)
        sdx.add_participant("B", 65002)
        sdx.announce_route("B", IPv4Prefix("20.0.0.0/8"),
                           AsPath([65002, 100]))
        sdx.participant("A").add_outbound(match(dstport=80) >> fwd("B"))
        return export_config(sdx)

    def write_config(self, tmp_path, document):
        import json

        path = tmp_path / "exchange.json"
        path.write_text(json.dumps(document))
        return str(path)

    def examples_dir(self):
        import os

        return os.path.join(os.path.dirname(__file__), "..", "examples")

    def test_lint_in_listing(self, capsys):
        assert main(["list"]) == 0
        assert "lint-policies" in capsys.readouterr().out

    def test_nothing_to_lint_exits_2(self, capsys):
        assert main(["lint-policies"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_clean_config_passes(self, tmp_path, capsys):
        path = self.write_config(tmp_path, self.config_document())
        assert main(["lint-policies", path]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_bad_config_fails_with_diagnostics(self, tmp_path, capsys):
        document = self.config_document()
        document["policies"].append({
            "participant": "A", "direction": "out",
            "clause": {"match": {"kind": "match",
                                 "fields": {"dstmac": "a2:00:00:00:00:07"}},
                       "fwd": "B"}})
        path = self.write_config(tmp_path, document)
        assert main(["lint-policies", path]) == 1
        assert "SDX004" in capsys.readouterr().out

    def test_json_output_and_artifact(self, tmp_path, capsys):
        import json

        path = self.write_config(tmp_path, self.config_document())
        artifact = tmp_path / "lint.json"
        assert main(["lint-policies", path, "--json",
                     "--output", str(artifact)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["targets"][0]["summary"]["ok"] is True
        assert json.loads(artifact.read_text()) == payload

    def test_examples_lint_clean(self, capsys):
        assert main(["lint-policies", "--examples", self.examples_dir()]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out
        assert "synthetic_ixp" in out

    def test_defect_recall_is_total(self, capsys):
        assert main(["lint-policies", "--defects",
                     "--participants", "8", "--prefixes", "16"]) == 0
        out = capsys.readouterr().out
        assert "defect recall: 6/6 detected" in out

    def test_federation_defect_recall_is_total(self, capsys):
        assert main(["lint-policies", "--federation-defects"]) == 0
        out = capsys.readouterr().out
        assert "defect recall: 2/2 detected" in out
        assert "SDX008" in out
        assert "SDX009" in out

    def test_check_command_reports_statics(self, tmp_path, capsys):
        path = self.write_config(tmp_path, self.config_document())
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "compiled:" in out
        assert "statics:" in out


class TestMonitorCommand:
    SHORT = ["monitor", "--duration", "20", "--shift-time", "5"]

    def test_monitor_in_listing(self, capsys):
        assert main(["list"]) == 0
        assert "monitor" in capsys.readouterr().out

    def test_snapshot_reports_the_loop(self, capsys):
        assert main(self.SHORT) == 0
        out = capsys.readouterr().out
        assert "rebalances" in out
        assert "reaction_seconds" in out
        assert "last sample" in out

    def test_watch_prints_a_line_per_sample(self, capsys):
        assert main(self.SHORT + ["--watch"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("t=")]
        # One line per cadence tick over the simulated 20 seconds.
        assert len(lines) == 20
        assert "Mbps" in lines[0]

    def test_json_payload_round_trips(self, capsys):
        import json

        assert main(self.SHORT + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["scenario"] == "shifting"
        assert payload["report"]["rebalances"] >= 1
        assert payload["last_sample"]["fecs"]

    def test_skewed_scenario(self, capsys):
        import json

        assert main(["monitor", "--scenario", "skewed", "--duration", "20",
                     "--shift-time", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["scenario"] == "skewed"
        assert payload["report"]["offloaded"]

    def test_smoke_converges_and_writes_artifact(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "monitor.json"
        assert main(self.SHORT + ["--smoke", "--output",
                                  str(artifact)]) == 0
        assert "converged within 8 steps: True" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["converged"] is True
        assert payload["report"]["reaction_seconds"] is not None

    def test_smoke_failure_exits_1(self, capsys):
        # An impossible reaction budget forces the smoke gate to fail.
        assert main(self.SHORT + ["--smoke", "--converge-within", "0"]) == 1
        assert "False" in capsys.readouterr().out

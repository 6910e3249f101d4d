"""The fuzzing session: reports, artifacts, telemetry, and determinism.

The small-budget cases run in tier-1; the longer soak is marked ``fuzz``
and runs in the dedicated CI job (``make fuzz`` / ``pytest -m fuzz``).
"""

import pytest

from repro.core.incremental import IncrementalEngine
from repro.telemetry import Telemetry
from repro.verification.fuzz import FuzzConfig, run_fuzz

QUICK = FuzzConfig(seed=0, scenarios=2, steps=6, corpus_size=6)


def counter_value(telemetry, name, **labels):
    return telemetry.registry.counter(name, "", **labels).value


class TestRunFuzz:
    def test_clean_session(self):
        telemetry = Telemetry()
        report = run_fuzz(QUICK, telemetry=telemetry)
        assert report.ok
        assert report.scenarios_run == 2
        assert report.steps_executed == 12
        assert "no divergence found" in report.summary()
        assert counter_value(telemetry, "sdx_harness_scenarios_total",
                             harness="fuzz") == 2
        assert counter_value(telemetry, "sdx_harness_checks_total",
                             check="oracle") == 2
        assert counter_value(telemetry, "sdx_fuzz_steps_total") == 12
        assert counter_value(telemetry, "sdx_fuzz_comparisons_total") > 0
        assert counter_value(telemetry, "sdx_harness_failures_total",
                             harness="fuzz") == 0

    def test_summary_is_deterministic(self):
        assert (run_fuzz(QUICK, telemetry=Telemetry()).summary()
                == run_fuzz(QUICK, telemetry=Telemetry()).summary())

    def test_finding_shrunk_and_saved(self, tmp_path, monkeypatch):
        monkeypatch.setattr(IncrementalEngine, "_fast_path_for_prefix",
                            lambda self, prefix, *_args: 0)
        telemetry = Telemetry()
        config = FuzzConfig(seed=3, scenarios=1, steps=8, corpus_size=6,
                            recompile_every=100,
                            artifact_dir=str(tmp_path))
        report = run_fuzz(config, telemetry=telemetry)
        assert not report.ok
        finding = report.findings[0]
        assert finding.artifact.kind == "incremental-vs-reference"
        assert (len(finding.artifact.case.scenario.trace)
                <= finding.artifact.original_trace_length)
        assert finding.artifact_path is not None
        assert (tmp_path / finding.artifact_path.split("/")[-1]).exists()
        assert "FAIL scenario#0" in report.summary()
        assert counter_value(telemetry, "sdx_harness_failures_total",
                             harness="fuzz") == 1
        assert counter_value(telemetry, "sdx_harness_shrink_runs_total",
                             harness="fuzz") == report.shrink_runs > 0


class TestCheckFindingsReplay:
    """A finding from an opt-in check must replay under that check, with
    the session's corpus size and quiesce cadence — not under a bare
    default oracle, which sees nothing wrong."""

    def lose_withdrawals(self, monkeypatch):
        """A runtime queue that silently swallows withdrawals. Only the
        ``runtime`` check's routed arm feeds a queue, and the loss is
        stateless, so every replay of a case is deterministic."""
        from repro.runtime.queue import OfferOutcome, RuntimeQueue
        real_offer = RuntimeQueue.offer

        def lossy_offer(queue, event):
            update = getattr(event, "update", None)
            if update is not None and update.withdrawals:
                return OfferOutcome.ENQUEUED  # lie: the event vanishes
            return real_offer(queue, event)

        monkeypatch.setattr(RuntimeQueue, "offer", lossy_offer)

    def test_runtime_finding_replays_to_the_same_kind(
            self, tmp_path, monkeypatch, capsys):
        import json

        from repro.__main__ import main
        from repro.verification.kernel import FailureArtifact

        self.lose_withdrawals(monkeypatch)
        report = run_fuzz(
            FuzzConfig(seed=0, scenarios=6, steps=12, corpus_size=6,
                       recompile_every=3, checks=("runtime",),
                       artifact_dir=str(tmp_path)),
            telemetry=Telemetry())
        assert not report.ok
        finding = report.findings[0]
        assert finding.artifact.kind == "runtime-state"

        with open(finding.artifact_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["checks"] == ["runtime"]
        assert payload["corpus_size"] == 6
        assert payload["recompile_every"] == 3
        assert FailureArtifact.load(
            finding.artifact_path) == finding.artifact

        # The defect is still in: replay must reproduce the same kind.
        assert main(["fuzz", "--replay", finding.artifact_path]) == 1
        assert "runtime-state" in capsys.readouterr().out
        monkeypatch.undo()
        assert main(["fuzz", "--replay", finding.artifact_path]) == 0


@pytest.mark.fuzz
class TestFuzzSoak:
    def test_longer_session_is_clean(self):
        """The real fuzz entry point: more scenarios, longer traces,
        default corpus — any finding here is a genuine pipeline bug."""
        report = run_fuzz(
            FuzzConfig(seed=0, scenarios=8, steps=16, corpus_size=16),
            telemetry=Telemetry())
        assert report.ok, report.summary()
        assert report.scenarios_run == 8

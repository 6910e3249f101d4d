"""The committed golden chaos artifact, replayed in CI.

``data/chaos-failure-seed12-faults1-chaos-equivalence-final.json`` was
produced by running the chaos driver with a deliberately lossy runtime
queue — one that swallows announcements of ``16.1.1.0/24`` from ``AS2``
— and shrinking the resulting failure. AS2 announces that prefix only
in the scenario's base state, never in the trace, so the loss can bite
only a *recovery storm*: the shrinker correctly reduced the run to an
empty trace plus a single ``peer_down`` fault whose end-of-run recovery
re-announces the prefix through the queue.

Committing the artifact locks three things at once:

* the artifact JSON format (an incompatible change breaks the load);
* the replay path — on the healthy tree the failure must NOT reproduce,
  under the re-injected defect it must reproduce *exactly*;
* the shrinker — the artifact is already minimal, so shrinking it again
  must be a fixpoint.
"""

import pathlib

import pytest

from repro.runtime.queue import OfferOutcome, RuntimeQueue
from repro.verification.kernel import (
    FailureArtifact,
    replay_artifact,
    shrink,
)
from repro.workloads.churn import ChaosFault

GOLDEN = (pathlib.Path(__file__).parent / "data" /
          "chaos-failure-seed12-faults1-chaos-equivalence-final.json")

#: The defect the artifact was recorded under (see lose_storm below).
LOST_PEER = "AS2"
LOST_PREFIX = "16.1.1.0/24"


def lose_storm(monkeypatch):
    """Re-inject the recorded defect: a runtime queue that silently
    swallows announcements of ``LOST_PREFIX`` from ``LOST_PEER``."""
    real_offer = RuntimeQueue.offer

    def lossy_offer(self, event):
        update = getattr(event, "update", None)
        if (update is not None and update.sender == LOST_PEER and any(
                str(announcement.prefix) == LOST_PREFIX
                for announcement in update.announcements)):
            return OfferOutcome.ENQUEUED  # lie: the event vanishes
        return real_offer(self, event)

    monkeypatch.setattr(RuntimeQueue, "offer", lossy_offer)


@pytest.fixture()
def artifact():
    return FailureArtifact.load(GOLDEN)


class TestFormat:
    def test_round_trips_exactly(self, artifact):
        assert FailureArtifact.from_json(artifact.to_json()) == artifact
        assert GOLDEN.read_text().strip() == artifact.to_json().strip()

    def test_file_name_is_deterministic(self, artifact):
        assert artifact.file_name() == GOLDEN.name

    def test_records_the_shrunk_shape(self, artifact):
        assert artifact.kind == "chaos-equivalence:final"
        assert len(artifact.case.scenario.trace) == 0
        assert artifact.case.schedule.faults == (ChaosFault(
            kind="peer_down", step=0, participants=(LOST_PEER,)),)
        assert artifact.original_trace_length == 12
        assert artifact.original_fault_count == 6
        assert LOST_PREFIX in artifact.detail

    def test_failure_property_matches_fields(self, artifact):
        failure = artifact.failure
        assert failure.kind == artifact.kind
        assert failure.step == artifact.step
        assert failure.detail == artifact.detail


class TestReplay:
    def test_clean_on_the_healthy_tree(self):
        assert replay_artifact(GOLDEN) is None

    def test_reproduces_exactly_under_the_defect(self, artifact,
                                                 monkeypatch):
        lose_storm(monkeypatch)
        failure = replay_artifact(GOLDEN)
        assert failure is not None
        assert failure.kind == artifact.kind
        assert failure.step == artifact.step
        assert failure.detail == artifact.detail

    def test_cli_replay_clean(self, capsys):
        from repro.__main__ import main

        assert main(["soak", "--chaos", "--replay", str(GOLDEN)]) == 0
        assert "no failure reproduced" in capsys.readouterr().out

    def test_cli_replay_reproduces_under_the_defect(self, capsys,
                                                    monkeypatch):
        from repro.__main__ import main

        lose_storm(monkeypatch)
        assert main(["soak", "--chaos", "--replay", str(GOLDEN)]) == 1
        assert "chaos-equivalence:final" in capsys.readouterr().out

    def test_fuzz_cli_replays_it_too(self, capsys, monkeypatch):
        """One replay path: ``repro fuzz --replay`` takes any artifact."""
        from repro.__main__ import main

        lose_storm(monkeypatch)
        assert main(["fuzz", "--replay", str(GOLDEN)]) == 1
        assert "chaos-equivalence:final" in capsys.readouterr().out


class TestShrinkerLock:
    def test_golden_is_a_shrinker_fixpoint(self, artifact, monkeypatch):
        lose_storm(monkeypatch)
        case, failure, runs = shrink(artifact.case)
        # Already minimal: one confirming run plus one (failed) attempt
        # to drop the only fault, no trace steps left to try.
        assert runs == 2
        assert case == artifact.case
        assert failure.kind == artifact.kind

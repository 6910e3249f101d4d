"""The chaos driver end-to-end: clean runs across every fault class,
determinism guards, convergence accounting, the soak session, and — with
a deliberately lossy runtime queue — a failure caught, shrunk and saved.
The subsystem's acceptance test, mirroring
tests/verification/test_oracle.py. (Shrinker, artifact and budget
contracts are the kernel's: see tests/verification/test_kernel.py.)
"""

import pytest

from repro.chaos import (
    ChaosRunner,
    ChaosSoakConfig,
    run_chaos,
    run_chaos_soak,
)
from repro.runtime.queue import OfferOutcome, RuntimeQueue
from repro.telemetry import Telemetry
from repro.verification.kernel import Case, replay
from repro.verification.scenario import generate_scenario
from repro.workloads.churn import (
    FAULT_KINDS,
    ChaosFault,
    ChaosSchedule,
    generate_chaos_schedule,
)


def make_pair(seed=0, steps=16, faults=6, kinds=FAULT_KINDS):
    """A generated scenario plus a matching generated fault schedule."""
    scenario = generate_scenario(seed, participants=4, prefixes=4,
                                 policies=4, steps=steps)
    schedule = generate_chaos_schedule(
        seed + 1, scenario.participant_names(),
        prefixes=scenario.prefixes, trace_length=len(scenario.trace),
        faults=faults, kinds=kinds)
    return scenario, schedule


def targeted(scenario, *faults):
    """A hand-written schedule over ``scenario``'s participants."""
    return ChaosSchedule(seed=0, faults=tuple(faults))


def lose_announcements(monkeypatch, prefix):
    """Silently drop runtime-queue announcements of ``prefix``.

    Only the routed arm feeds a RuntimeQueue, so the loss is asymmetric
    by construction: the inline arm keeps the route, the runtime arm
    never sees it — exactly the divergence the settle assertions exist
    to catch. Stateless, so every (shrunk) replay is deterministic.
    """
    real_offer = RuntimeQueue.offer

    def lossy_offer(self, event):
        update = getattr(event, "update", None)
        if update is not None and any(
                str(announcement.prefix) == prefix
                for announcement in update.announcements):
            return OfferOutcome.ENQUEUED  # lie: the event vanishes
        return real_offer(self, event)

    monkeypatch.setattr(RuntimeQueue, "offer", lossy_offer)


class TestCleanRuns:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_schedules_hold_all_assertions(self, seed):
        scenario, schedule = make_pair(seed=seed)
        report = run_chaos(scenario, schedule, telemetry=Telemetry())
        assert report.ok, report.summary()
        assert report.steps_executed + report.steps_skipped == len(
            scenario.trace)
        assert any(outcome.applied for outcome in report.outcomes)
        assert report.settle_checks > 0

    def test_deterministic_summary(self):
        scenario, schedule = make_pair(seed=4)
        first = run_chaos(scenario, schedule, telemetry=Telemetry())
        second = run_chaos(scenario, schedule, telemetry=Telemetry())
        assert first.summary() == second.summary()

    def test_peer_down_without_recovery_leaves_peer_down(self):
        scenario, _ = make_pair(seed=0, faults=0)
        peer = scenario.participant_names()[0]
        schedule = targeted(scenario, ChaosFault(
            kind="peer_down", step=3, participants=(peer,)))
        runner = ChaosRunner(recover_at_end=False,
                             telemetry=Telemetry())
        assert replay(Case(scenario, schedule), [runner]) is None
        for controller in (runner.inline, runner.routed):
            session = controller.route_server.session(peer)
            assert session.is_down
            assert session.announced == frozenset()

    def test_recover_at_end_restores_the_peer(self):
        scenario, _ = make_pair(seed=0, faults=0)
        peer = scenario.participant_names()[0]
        schedule = targeted(scenario, ChaosFault(
            kind="peer_down", step=3, participants=(peer,)))
        runner = ChaosRunner(telemetry=Telemetry())
        assert replay(Case(scenario, schedule), [runner]) is None
        report = runner.report
        assert runner.routed.route_server.session(peer).is_established
        assert report.storm_updates > 0


class TestGuardsAndAccounting:
    def test_redundant_peer_down_is_skipped(self):
        scenario, _ = make_pair(seed=0, faults=0)
        peer = scenario.participant_names()[0]
        schedule = targeted(
            scenario,
            ChaosFault(kind="peer_down", step=2, participants=(peer,)),
            ChaosFault(kind="peer_down", step=5, participants=(peer,)))
        telemetry = Telemetry()
        report = run_chaos(scenario, schedule, telemetry=telemetry)
        assert report.ok, report.summary()
        assert [outcome.applied for outcome in report.outcomes] == [
            True, False]
        skipped = telemetry.registry.get("sdx_chaos_faults_skipped_total")
        assert skipped is not None and skipped.value == 1

    def test_steps_from_a_down_peer_are_skipped(self):
        scenario, _ = make_pair(seed=0, faults=0)
        senders = {step.participant for step in scenario.trace[1:]}
        peer = sorted(senders)[0]
        schedule = targeted(scenario, ChaosFault(
            kind="peer_down", step=0, participants=(peer,)))
        report = run_chaos(scenario, schedule,
                           recover_at_end=False,
                           telemetry=Telemetry())
        assert report.ok, report.summary()
        expected = sum(1 for step in scenario.trace[1:]
                       if step.participant == peer)
        assert report.steps_skipped == expected

    def test_convergence_by_kind_aggregates_applied_faults(self):
        scenario, schedule = make_pair(seed=2)
        report = run_chaos(scenario, schedule, telemetry=Telemetry())
        assert report.ok, report.summary()
        stats = report.convergence_by_kind()
        for kind, slot in stats.items():
            applied = [o for o in report.outcomes
                       if o.applied and o.kind == kind]
            assert slot["faults"] == float(len(applied))
            assert slot["events"] == float(sum(o.events for o in applied))
        assert set(stats) == {o.kind for o in report.outcomes if o.applied}

    def test_chaos_metrics_are_recorded(self):
        scenario, schedule = make_pair(seed=1)
        telemetry = Telemetry()
        report = run_chaos(scenario, schedule, telemetry=telemetry)
        assert report.ok, report.summary()
        registry = telemetry.registry
        fired = sum(
            registry.get("sdx_chaos_faults_total", kind=kind).value
            for kind in schedule.kinds()
            if registry.get("sdx_chaos_faults_total", kind=kind) is not None)
        assert fired == sum(1 for o in report.outcomes if o.applied)
        settles = registry.get("sdx_chaos_settle_checks_total")
        assert settles is not None and settles.value == report.settle_checks


class TestSoak:
    def test_soak_covers_every_kind_and_reports(self):
        report = run_chaos_soak(
            ChaosSoakConfig(seed=3, scenarios=2, steps=16),
            telemetry=Telemetry())
        assert report.ok, report.summary()
        assert report.scenarios_run == 2
        assert report.kinds_covered() == FAULT_KINDS
        assert "fault kinds covered" in report.summary()
        # Runtime events spent converging after each fault class: work
        # counts, fixed for the seed, pinned exactly.
        assert report.faults_applied == 10
        assert report.findings == []
        assert {kind: report.convergence[kind]["events"]
                for kind in FAULT_KINDS} == {
            "peer_down": 0, "peer_up": 5, "flap": 2,
            "correlated_failure": 1, "stuck_route": 1, "midswap_reset": 5}

    def test_soak_is_deterministic(self):
        config = ChaosSoakConfig(seed=5, scenarios=1, steps=12)
        first = run_chaos_soak(config, telemetry=Telemetry())
        second = run_chaos_soak(config, telemetry=Telemetry())
        assert first.summary() == second.summary()


class TestInjectedDefect:
    def failing_pair(self):
        scenario, schedule = make_pair(seed=0, steps=12)
        return scenario, schedule, scenario.prefixes[0]

    def test_lossy_queue_is_caught(self, monkeypatch):
        scenario, schedule, prefix = self.failing_pair()
        lose_announcements(monkeypatch, prefix)
        failure = replay(Case(scenario, schedule))
        assert failure is not None
        assert failure.kind.startswith("chaos-")

    def test_soak_finds_shrinks_and_saves(self, tmp_path, monkeypatch):
        from repro.workloads.seeding import derive_seed

        config = ChaosSoakConfig(seed=0, scenarios=1, steps=12,
                                 artifact_dir=str(tmp_path))
        prefix = generate_scenario(
            derive_seed(0, "chaos-scenario-0"), participants=4, prefixes=4,
            policies=4, steps=12).prefixes[0]
        lose_announcements(monkeypatch, prefix)
        telemetry = Telemetry()
        report = run_chaos_soak(config, telemetry=telemetry)
        assert report.findings, report.summary()
        finding = report.findings[0]
        artifact = finding.artifact
        assert finding.artifact_path is not None
        assert (len(artifact.case.scenario.trace)
                <= artifact.original_trace_length)
        assert (len(artifact.case.schedule.faults)
                <= artifact.original_fault_count)
        assert report.shrink_runs > 0
        assert "FAIL" in report.summary()
        registry = telemetry.registry
        assert registry.get("sdx_harness_failures_total",
                            harness="chaos").value == 1
        assert registry.get("sdx_harness_shrink_runs_total",
                            harness="chaos").value == report.shrink_runs

"""The harness kernel, once, over all three case types.

``Scenario``, ``Scenario`` + ``ChaosSchedule`` and multi-exchange
``Scenario`` cases share one replay loop, one shrinker, one artifact
format and one budgeted session, so their contracts are tested once,
parametrised — each case type paired with a seeded defect that makes it fail:

* ``scenario`` — the incremental engine's fast path patches nothing;
* ``chaos`` — the runtime queue swallows one prefix's announcements;
* ``federated`` — the federation's change surface loses withdrawals.

Every defect is stateless, so each (shrunk) replay is deterministic.
"""

import json

import pytest

from repro.chaos import ChaosSoakConfig, run_chaos_soak
from repro.core.incremental import IncrementalEngine
from repro.federation.controller import FederatedController
from repro.runtime.queue import OfferOutcome, RuntimeQueue
from repro.telemetry import Telemetry
from repro.verification.fuzz import FuzzConfig, run_fuzz
from repro.verification.kernel import (
    Case,
    FailureArtifact,
    build_checks,
    replay,
    replay_artifact,
    shrink,
)
from repro.verification.scenario import generate_scenario
from repro.workloads.churn import generate_chaos_schedule

CASE_TYPES = ("scenario", "chaos", "federated")


def scenario_case(monkeypatch):
    monkeypatch.setattr(IncrementalEngine, "_fast_path_for_prefix",
                        lambda self, prefix, *_args: 0)
    return Case(generate_scenario(3, steps=12), corpus_size=6,
                recompile_every=100)


def chaos_case(monkeypatch):
    scenario = generate_scenario(0, participants=4, prefixes=4, policies=4,
                                 steps=12)
    schedule = generate_chaos_schedule(
        1, scenario.participant_names(), prefixes=scenario.prefixes,
        trace_length=len(scenario.trace), faults=6)
    lost = scenario.prefixes[0]
    real_offer = RuntimeQueue.offer

    def lossy_offer(queue, event):
        update = getattr(event, "update", None)
        if update is not None and any(
                str(announcement.prefix) == lost
                for announcement in update.announcements):
            return OfferOutcome.ENQUEUED  # lie: the event vanishes
        return real_offer(queue, event)

    monkeypatch.setattr(RuntimeQueue, "offer", lossy_offer)
    return Case(scenario, schedule)


def federated_case(monkeypatch):
    real_submit = FederatedController.submit_update

    def lossy_submit(federation, exchange, update):
        if not update.withdrawals:
            real_submit(federation, exchange, update)

    monkeypatch.setattr(FederatedController, "submit_update", lossy_submit)
    return Case(generate_scenario(
        2, exchanges=2, participants=4, prefixes=4, policies=5, steps=6),
        corpus_size=4)


BUILDERS = {"scenario": scenario_case, "chaos": chaos_case,
            "federated": federated_case}


@pytest.fixture(params=CASE_TYPES)
def failing(request, monkeypatch):
    """A case of the parametrised type, with its defect injected."""
    return BUILDERS[request.param](monkeypatch)


def removable(case):
    faults = 0 if case.schedule is None else len(case.schedule.faults)
    return faults + len(case.scenario.trace)


class TestShrinker:
    def test_reaches_a_fixpoint(self, failing):
        shrunk, failure, runs = shrink(failing)
        assert runs >= 1
        assert removable(shrunk) < removable(failing)
        # The shrunk case still reproduces exactly the reported failure.
        assert replay(shrunk) == failure
        # Minimality: shrinking again removes nothing — one confirming
        # run, then every single-element removal (and at most one
        # truncation) comes back clean.
        again, same, again_runs = shrink(shrunk)
        assert again == shrunk
        assert same == failure
        assert (1 + removable(shrunk) <= again_runs
                <= 2 + removable(shrunk))

    def test_given_failure_saves_a_run(self, failing):
        confirmed = shrink(failing)
        given = shrink(failing, replay(failing))
        assert given[:2] == confirmed[:2]
        assert given[2] == confirmed[2] - 1

    def test_max_runs_budget_is_respected(self, failing):
        calls = []

        def runner(candidate):
            calls.append(removable(candidate))
            return replay(candidate)

        shrunk, failure, runs = shrink(failing, runner=runner, max_runs=3)
        assert runs <= 3
        assert len(calls) == runs
        assert failure is not None
        assert removable(shrunk) <= removable(failing)

    def test_refuses_a_passing_case(self, failing, monkeypatch):
        monkeypatch.undo()  # defect out: the case is healthy
        with pytest.raises(ValueError):
            shrink(failing)


class TestArtifact:
    def test_round_trips_exactly_and_replays(self, failing, tmp_path,
                                             monkeypatch):
        shrunk, failure, _runs = shrink(failing)
        artifact = FailureArtifact.of(shrunk, failure, failing)
        assert artifact.failure == failure
        assert artifact.original_trace_length == len(failing.scenario.trace)
        assert FailureArtifact.from_json(artifact.to_json()) == artifact

        path = artifact.save(tmp_path)
        assert path.endswith(artifact.file_name())
        loaded = FailureArtifact.load(path)
        assert loaded == artifact
        assert loaded.to_json() == artifact.to_json()

        # Defect still in: the same failure; defect out: clean.
        assert replay_artifact(path) == failure
        monkeypatch.undo()
        assert replay_artifact(path) is None

    def test_optional_keys_omitted_at_defaults(self, failing):
        failure = replay(failing)
        default = FailureArtifact.of(
            Case(failing.scenario, failing.schedule), failure, failing)
        payload = json.loads(default.to_json())
        assert not {"checks", "corpus_size", "recompile_every"} & set(payload)
        assert ("schedule" in payload) == (failing.schedule is not None)
        assert ("original_fault_count" in payload) == (
            failing.schedule is not None)

        tuned = FailureArtifact.of(
            Case(failing.scenario, failing.schedule, checks=("statics",),
                 corpus_size=5, recompile_every=2), failure, failing)
        payload = json.loads(tuned.to_json())
        assert payload["checks"] == ["statics"]
        assert payload["corpus_size"] == 5
        assert payload["recompile_every"] == 2
        assert FailureArtifact.from_json(tuned.to_json()) == tuned

    def test_unknown_version_is_rejected(self, failing):
        payload = json.loads(FailureArtifact.of(
            failing, replay(failing), failing).to_json())
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            FailureArtifact.from_json(json.dumps(payload))


class TestChecks:
    def test_base_check_follows_the_case_type(self, failing):
        multi = len(failing.scenario.exchanges) > 1
        base = "federation" if multi else "oracle"
        if failing.schedule is not None:
            base = "chaos"
        assert failing.check_names() == (base,)
        assert [check.name for check in build_checks(failing)] == [base]

    def test_unknown_check_name_is_rejected(self, failing):
        bad = Case(failing.scenario, failing.schedule, checks=("nonsense",))
        with pytest.raises(ValueError, match="unknown check"):
            build_checks(bad)

    def test_checks_lift_over_a_federation(self):
        scenario = generate_scenario(
            5, exchanges=2, participants=4, prefixes=4, policies=5, steps=4)
        case = Case(scenario, checks=("oracle", "runtime", "statics",
                                      "dataplane"), corpus_size=4)
        checks = build_checks(case)
        assert [check.name for check in checks] == [
            "federation", "oracle", "runtime", "statics", "dataplane"]
        assert replay(case, checks) is None
        for lifted in checks[1:]:
            assert set(lifted.inner) == set(scenario.exchanges)
        assert checks[1].comparisons > 0


SESSIONS = {
    "scenario": lambda **kw: run_fuzz(
        FuzzConfig(**kw), telemetry=Telemetry()),
    "chaos": lambda **kw: run_chaos_soak(
        ChaosSoakConfig(**kw), telemetry=Telemetry()),
    "federated": lambda **kw: run_fuzz(
        FuzzConfig(checks=("federation",), **kw), telemetry=Telemetry()),
}


class TestSession:
    @pytest.mark.parametrize("case_type", CASE_TYPES)
    def test_zero_budget_runs_nothing(self, case_type):
        report = SESSIONS[case_type](seed=0, scenarios=5,
                                     time_budget_seconds=0.0)
        assert report.budget_exhausted
        assert report.scenarios_run == 0
        assert report.ok
        assert "time budget exhausted" in report.summary()

    @pytest.mark.parametrize("case_type", CASE_TYPES)
    def test_summary_is_deterministic(self, case_type):
        run = SESSIONS[case_type]
        first = run(seed=5, scenarios=1, steps=6)
        assert first.scenarios_run == 1 and not first.budget_exhausted
        assert first.summary() == run(seed=5, scenarios=1, steps=6).summary()


class TestTheLocRibIsHeldToItsDefinition:
    """``check_loc_rib`` rides in ``check_all``, hence in the differential
    oracle: a route server whose kept state drifts from what its
    Adj-RIB-Ins and peers define fails a fuzz, a chaos and (the oracle
    lifted per exchange) a federated session — even where, as here, no
    packet is forwarded differently for it."""

    def test_a_misclassed_route_is_found(self, failing, monkeypatch):
        from dataclasses import replace
        from repro.bgp.routeserver import RouteServer
        monkeypatch.undo()  # the fixture's own defect out: a healthy case
        case = (replace(failing, checks=("oracle",)) if failing.federated
                else failing)
        assert replay(case) is None
        export_class = RouteServer._export_class

        def one_too_many(server, announcer, attributes):
            announcer, control, members = export_class(
                server, announcer, attributes)
            return announcer, control, members | {1}  # no member's AS

        monkeypatch.setattr(RouteServer, "_export_class", one_too_many)
        failure = replay(case)
        assert failure is not None and failure.kind.endswith("invariant:loc-rib")

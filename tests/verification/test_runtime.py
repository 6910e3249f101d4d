"""Runtime-vs-inline equivalence: canonical state and the oracle mode.

The acceptance story mirrors test_oracle.py: clean scenarios replay
through the deterministic runtime to an identical final state, and an
injected event loss (a lossy queue) is caught as a runtime-state
failure.
"""

import pytest

from repro.runtime import RuntimeConfig
from repro.runtime.queue import OfferOutcome, RuntimeQueue
from repro.verification.kernel import Case, replay
from repro.verification.runtime import (
    CanonicalState,
    RuntimeEquivalence,
    canonical_state,
)
from repro.verification.scenario import generate_scenario

from tests.core.scenarios import figure1_controller


def small_check(scenario, config=None, drain_every=4):
    return replay(
        Case(scenario, corpus_size=6, recompile_every=drain_every),
        [RuntimeEquivalence(config)])


class TestCanonicalState:
    def test_same_controller_diffs_empty(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        assert canonical_state(sdx).diff(canonical_state(sdx)) == []

    def test_independent_builds_are_equal(self):
        first, *_ = figure1_controller()
        second, *_ = figure1_controller()
        first.start()
        second.start()
        assert canonical_state(first).diff(canonical_state(second)) == []

    def test_route_difference_is_reported(self):
        from repro.bgp.asn import AsPath
        from repro.net.addresses import IPv4Prefix
        first, *_ = figure1_controller()
        second, *_ = figure1_controller()
        first.start()
        second.start()
        second.announce_route("C", IPv4Prefix("19.0.0.0/8"),
                              AsPath([65003, 999]))
        problems = canonical_state(first).diff(canonical_state(second))
        assert problems
        assert any("19.0.0.0/8" in problem for problem in problems)

    def test_policy_suspension_is_reported(self):
        first, *_ = figure1_controller()
        second, *_ = figure1_controller()
        first.start()
        second.start()
        second.suspend_policies()
        problems = canonical_state(first).diff(canonical_state(second))
        assert any("suspension" in problem for problem in problems)

    def test_is_frozen(self):
        sdx, *_ = figure1_controller()
        sdx.start()
        state = canonical_state(sdx)
        assert isinstance(state, CanonicalState)
        with pytest.raises(AttributeError):
            state.rule_count = 0

    def test_each_distinct_route_is_summarised_once(self, monkeypatch):
        """Spelled out per route, not per (participant, prefix) pair — and
        the same values as summarising every pair."""
        import repro.verification.runtime as runtime_module

        sdx, *_ = figure1_controller()
        sdx.start()
        server = sdx.route_server
        routes = [entry for prefix in server.all_prefixes()
                  for entry in server.ranked_routes(prefix)]
        summarise = runtime_module._route_summary
        summarised = []

        def counted(entry):
            summarised.append(id(entry))
            return summarise(entry)

        monkeypatch.setattr(runtime_module, "_route_summary", counted)
        state = canonical_state(sdx)
        monkeypatch.undo()
        assert len(summarised) == len(set(summarised)) <= len(routes)
        participants = sdx.topology.participants()
        assert len(state.best_routes) == len(participants) * len(
            server.all_prefixes()) > len(routes)
        assert list(state.best_routes) == [
            (participant.name, str(prefix),
             None if best is None else summarise(best))
            for participant in participants
            for prefix in server.all_prefixes()
            for best in [server.best_route_for(participant.name, prefix)]]


    def test_a_stale_route_is_reported_not_a_crash(self, monkeypatch):
        """A participant given a route none of the prefix's ranked routes
        is (a stale decision) is summarised on the spot and shows up as
        a best-route mismatch against a healthy twin."""
        import dataclasses

        from repro.bgp.routeserver import Decision

        healthy, *_ = figure1_controller()
        stale, *_ = figure1_controller()
        healthy.start()
        stale.start()
        server = stale.route_server
        prefix = next(prefix for prefix in server.all_prefixes()
                      if server.decide(prefix).best is not None)
        good = server.decide(prefix)
        peer = sorted(good.peers - {good.best.learned_from})[0]
        other = dataclasses.replace(good.best, attributes=dataclasses.replace(
            good.best.attributes,
            local_pref=good.best.attributes.local_pref + 1))
        real_decide = server.decide

        def decide(asked):
            if asked != prefix:
                return real_decide(asked)
            return Decision(good.ranked, {peer: other}, good.peers)

        monkeypatch.setattr(server, "decide", decide)
        problems = canonical_state(healthy).diff(canonical_state(stale))
        assert any(problem.startswith(
            f"best route mismatch for ('{peer}', '{prefix}')")
            for problem in problems)


class TestCleanEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_false_positives(self, seed):
        scenario = generate_scenario(seed, steps=10)
        assert small_check(scenario) is None

    def test_no_coalescing_also_equivalent(self):
        scenario = generate_scenario(4, steps=10)
        assert small_check(
            scenario, config=RuntimeConfig(coalesce=False)) is None

    def test_small_batches_also_equivalent(self):
        scenario = generate_scenario(5, steps=10)
        assert small_check(
            scenario, drain_every=1,
            config=RuntimeConfig(batch_size=1)) is None


class TestInjectedLoss:
    def test_silent_event_loss_is_caught(self, monkeypatch):
        """A queue that silently drops every third admitted event must
        surface as a canonical-state divergence."""
        admitted = {"count": 0}
        real_offer = RuntimeQueue.offer

        def lossy_offer(self, event):
            admitted["count"] += 1
            if admitted["count"] % 3 == 0:
                return OfferOutcome.ENQUEUED  # lie: event vanishes
            return real_offer(self, event)

        monkeypatch.setattr(RuntimeQueue, "offer", lossy_offer)
        failure = None
        for seed in range(6):
            scenario = generate_scenario(seed, steps=12)
            failure = small_check(scenario)
            if failure is not None:
                break
        assert failure is not None
        assert failure.kind == "runtime-state"
        assert failure.detail

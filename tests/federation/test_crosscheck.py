"""Tests for the federated fuzzer cross-validation battery."""

from repro.verification.federation import FederatedWalk
from repro.verification.kernel import Case, replay
from repro.verification.scenario import generate_scenario

from tests.federation.scenarios import (
    blackhole_scenario,
    clean_scenario,
    loop_scenario,
)


def crosscheck(scenario, size):
    walk = FederatedWalk()
    return replay(Case(scenario, corpus_size=size), [walk]), walk


class TestHandScenarios:
    def test_loop_scenario_holds(self):
        scenario = loop_scenario()
        failure, walk = crosscheck(scenario, 6)
        assert failure is None, failure
        assert walk.comparisons > 0

    def test_blackhole_scenario_holds(self):
        scenario = blackhole_scenario()
        failure, _walk = crosscheck(scenario, 6)
        assert failure is None, failure

    def test_clean_scenario_holds(self):
        scenario = clean_scenario()
        failure, _walk = crosscheck(scenario, 6)
        assert failure is None, failure


class TestGeneratedScenarios:
    def test_generated_scenarios_hold(self):
        for seed in (101, 202, 303):
            scenario = generate_scenario(
                seed, exchanges=2, participants=6, policies=5, steps=4)
            failure, _walk = crosscheck(scenario, 4)
            assert failure is None, (seed, failure)

    def test_three_exchange_scenario_holds(self):
        scenario = generate_scenario(
            404, exchanges=3, participants=8, shared=3, policies=6, steps=3)
        failure, _walk = crosscheck(scenario, 4)
        assert failure is None, failure

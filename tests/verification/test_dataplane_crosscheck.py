"""Cross-validation of the dataplane verifier against the real table."""

from repro.core.vnh import vmac_for_fec
from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.verification.dataplane import DataplaneContracts, _check_state
from repro.verification.kernel import Case, replay
from repro.verification.scenario import generate_scenario


def small_scenario(seed=0, steps=4):
    return generate_scenario(seed, participants=3, prefixes=3, policies=3,
                             steps=steps)


def dataplane_crosscheck(scenario):
    return replay(Case(scenario), [DataplaneContracts()])


class TestDataplaneCrosscheck:
    def test_generated_scenario_holds(self):
        assert dataplane_crosscheck(small_scenario()) is None

    def test_churning_scenario_holds(self):
        assert dataplane_crosscheck(small_scenario(seed=5, steps=8)) is None

    def test_stale_incremental_state_is_caught(self):
        scenario = small_scenario(steps=0)
        controller = scenario.build_controller(
            dataplane_statics_mode="warn")
        verifier = controller.dataplane_verifier
        # Tamper with the table behind the verifier's back: the cached
        # state no longer matches a fresh analysis.
        controller.table.install(FlowRule(
            900_000, HeaderSpace(dstport=60_000),
            (Action(dstmac=vmac_for_fec(987_654), port=1),)))
        failure = _check_state(controller, verifier, step=0)
        assert failure is not None
        assert failure.kind == "dataplane-incremental-divergence"

    def test_verified_state_passes_every_contract(self):
        scenario = small_scenario(steps=0)
        controller = scenario.build_controller(
            dataplane_statics_mode="warn")
        assert _check_state(controller, controller.dataplane_verifier,
                            step=0) is None

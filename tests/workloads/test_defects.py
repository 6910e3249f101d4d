"""Seeded defect injection: every planted defect must be recalled."""

import pytest

from repro.statics import analyze_controller
from repro.workloads.policies import (
    DEFECT_KINDS,
    defect_detected,
    defect_documents,
    generate_policies,
    inject_defects,
    install_assignments,
)
from repro.workloads.topology import generate_ixp

SEEDS = (0, 7, 23)


def seeded_controller(seed):
    ixp = generate_ixp(8, 16, seed=seed)
    controller = ixp.build_controller()
    install_assignments(controller,
                        generate_policies(ixp, seed=seed + 1))
    return controller


class TestInjection:
    def test_covers_all_six_defect_classes(self):
        assert len(DEFECT_KINDS) == 6

    def test_injection_is_deterministic(self):
        first = inject_defects(seeded_controller(3), seed=11)
        second = inject_defects(seeded_controller(3), seed=11)
        assert first == second

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            inject_defects(seeded_controller(0), kinds=("made_up",))

    def test_document_defects_get_consecutive_indices(self):
        defects = inject_defects(seeded_controller(0), seed=5)
        indices = [d.document_index for d in defects if d.document is not None]
        assert indices == list(range(len(indices)))
        assert len(defect_documents(defects)) == len(indices)


class TestRecall:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_injected_defect_is_detected(self, seed):
        controller = seeded_controller(seed)
        defects = inject_defects(controller, seed=seed)
        assert [d.kind for d in defects] == list(DEFECT_KINDS)
        report = analyze_controller(
            controller, raw_policies=defect_documents(defects))
        missed = [d.kind for d in defects if not defect_detected(d, report)]
        assert missed == []

    def test_clean_workload_has_no_errors(self):
        report = analyze_controller(seeded_controller(SEEDS[0]))
        assert [d.describe() for d in report.errors] == []


class TestFederationDefects:
    """Seeded federation-level defects: SDX008/SDX009 recall."""

    def seeded_federation(self, seed):
        from repro.verification.scenario import generate_scenario

        scenario = generate_scenario(
            seed, exchanges=2, participants=6, shared=2,
            policies=4, steps=0)
        return scenario.build_federation(with_dataplane=False)

    def test_covers_both_federation_defect_classes(self):
        from repro.workloads.policies import FEDERATION_DEFECT_KINDS

        assert FEDERATION_DEFECT_KINDS == (
            "federation_loop", "stitched_blackhole")

    def test_injection_is_deterministic(self):
        from repro.workloads.policies import inject_federation_defects

        first = inject_federation_defects(self.seeded_federation(3), seed=11)
        second = inject_federation_defects(self.seeded_federation(3), seed=11)
        assert first == second

    def test_unknown_kind_rejected(self):
        from repro.workloads.policies import inject_federation_defects

        with pytest.raises(ValueError):
            inject_federation_defects(
                self.seeded_federation(0), kinds=("made_up",))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_injected_defect_is_detected(self, seed):
        from repro.federation import analyze_federation
        from repro.workloads.policies import inject_federation_defects

        federation = self.seeded_federation(seed)
        defects = inject_federation_defects(federation, seed=seed)
        assert [d.check_id for d in defects] == ["SDX008", "SDX009"]
        report = analyze_federation(federation)
        missed = [d.kind for d in defects
                  if not defect_detected(d, report)]
        assert missed == []


class TestDataplaneDefects:
    """Seeded dataplane-level defects: SDX010/SDX012 recall."""

    def compiled_controller(self, seed):
        controller = seeded_controller(seed)
        controller.start()
        return controller

    def test_covers_both_dataplane_defect_classes(self):
        from repro.workloads.policies import DATAPLANE_DEFECT_KINDS

        assert DATAPLANE_DEFECT_KINDS == (
            "compiled_blackhole", "shadowed_install")

    def test_injection_is_deterministic(self):
        from repro.workloads.policies import inject_dataplane_defects

        first = inject_dataplane_defects(self.compiled_controller(3), seed=11)
        second = inject_dataplane_defects(self.compiled_controller(3), seed=11)
        assert first == second

    def test_unknown_kind_rejected(self):
        from repro.workloads.policies import inject_dataplane_defects

        with pytest.raises(ValueError):
            inject_dataplane_defects(
                self.compiled_controller(0), kinds=("made_up",))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_injected_defect_is_detected(self, seed):
        from repro.statics import analyze_controller_dataplane
        from repro.workloads.policies import inject_dataplane_defects

        controller = self.compiled_controller(seed)
        defects = inject_dataplane_defects(controller, seed=seed)
        assert [d.check_id for d in defects] == ["SDX012", "SDX010"]
        report = analyze_controller_dataplane(controller)
        missed = [d.kind for d in defects
                  if not defect_detected(d, report)]
        assert missed == []

    def test_clean_compiled_workload_has_no_errors(self):
        from repro.statics import analyze_controller_dataplane

        report = analyze_controller_dataplane(
            self.compiled_controller(SEEDS[0]))
        assert [d.describe() for d in report.errors] == []

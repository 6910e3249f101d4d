"""Tests for the federated JSON config round trip and config linting."""

import pytest

from repro.config import CONFIG_VERSION, ConfigError
from repro.exceptions import StaticPolicyError
from repro.federation import (
    export_federation_config,
    federation_from_config,
    is_federated_config,
    load_federation_config,
    save_federation_config,
)
from repro.statics import lint_config

from tests.federation.scenarios import clean_scenario, loop_scenario


def loop_document():
    federation = loop_scenario().build_federation(with_dataplane=False)
    return export_federation_config(federation)


class TestRoundTrip:
    def test_export_import_export_is_stable(self):
        document = loop_document()
        rebuilt = federation_from_config(document, with_dataplane=False)
        rebuilt.start()
        assert export_federation_config(rebuilt) == document

    def test_rebuilt_federation_behaves_identically(self):
        document = export_federation_config(
            clean_scenario().build_federation(with_dataplane=False))
        rebuilt = federation_from_config(document, with_dataplane=False)
        rebuilt.start()
        report = rebuilt.lint_policies()
        assert report.by_check("SDX008") == []
        assert report.by_check("SDX009") == []

    def test_save_load_round_trip(self, tmp_path):
        federation = loop_scenario().build_federation(with_dataplane=False)
        path = tmp_path / "federation.json"
        save_federation_config(federation, path)
        rebuilt = load_federation_config(path, with_dataplane=False)
        rebuilt.start()
        assert export_federation_config(rebuilt) == (
            export_federation_config(federation))

    def test_asymmetric_ports_survive_the_round_trip(self):
        from repro.federation import FederatedController

        federation = FederatedController(with_dataplane=False)
        federation.add_exchange("IXP-A")
        federation.add_exchange("IXP-B")
        federation.add_participant(
            "T", 65001, ports_by_exchange={"IXP-A": 2, "IXP-B": 1})
        document = export_federation_config(federation)
        rebuilt = federation_from_config(document, with_dataplane=False)
        assert len(rebuilt.handle("IXP-A", "T").participant
                   .router.ports) == 2
        assert len(rebuilt.handle("IXP-B", "T").participant
                   .router.ports) == 1


class TestValidation:
    def test_version_mismatch_rejected(self):
        document = loop_document()
        document["version"] = CONFIG_VERSION + 1
        with pytest.raises(ConfigError):
            federation_from_config(document)

    def test_empty_exchange_list_rejected(self):
        document = loop_document()
        document["exchanges"] = []
        with pytest.raises(ConfigError):
            federation_from_config(document)

    def test_bad_policy_direction_rejected(self):
        document = loop_document()
        document["policies"][0]["direction"] = "sideways"
        with pytest.raises(ConfigError):
            federation_from_config(document)

    def test_strict_gate_applies_at_load_time(self):
        document = loop_document()
        with pytest.raises(StaticPolicyError):
            federation_from_config(
                document, statics_mode="strict", with_dataplane=False)

    def test_is_federated_config_dispatch_key(self):
        assert is_federated_config(loop_document())
        assert not is_federated_config({"version": 1, "participants": []})


class TestLinting:
    def test_lint_surfaces_the_loop(self):
        report = lint_config(loop_document())
        findings = report.by_check("SDX008")
        assert findings
        assert report.has_errors

    def test_lint_config_dispatches_on_exchanges_key(self):
        report = lint_config(loop_document())
        assert report.by_check("SDX008")

    def test_rejected_policy_becomes_a_diagnostic(self):
        document = loop_document()
        document["policies"][0]["clause"]["fwd"] = "NoSuchParticipant"
        report = lint_config(document)
        findings = [d for d in report.by_check("SDX006")
                    if "installation" in d.message]
        assert len(findings) == 1
        assert dict(findings[0].data)["exchange"] in ("IXP-A", "IXP-B")
        # The lint completed: the surviving policy half is still analyzed.
        assert "SDX008" in report.checks_run

    def test_clean_config_lints_clean(self):
        document = export_federation_config(
            clean_scenario().build_federation(with_dataplane=False))
        report = lint_config(document)
        assert not report.has_errors

    #: Entries the raw pass flags: SDX006 for a clause that both drops and
    #: forwards, SDX004 for a VMAC-range match, a self-forward and an
    #: outbound forward to a raw switch port.
    WEB = {"kind": "match", "fields": {"dstport": "80"}}
    FLAGGED = (
        ({"match": WEB, "drop": True, "fwd": "B"}, "SDX006"),
        ({"match": {"kind": "match",
                    "fields": {"dstmac": "a2:00:00:00:00:01"}}, "fwd": "B"},
         "SDX004"),
        ({"match": WEB, "fwd": "A"}, "SDX004"),
        ({"match": WEB, "fwd": 3}, "SDX004"),
    )

    @staticmethod
    def both_shapes(clause):
        single = {"version": CONFIG_VERSION,
                  "participants": [{"name": "A", "asn": 65001},
                                   {"name": "B", "asn": 65002}],
                  "policies": [{"participant": "A", "direction": "out",
                                "clause": clause}]}
        federated = dict(single, exchanges=["IXP-A"], policies=[
            dict(single["policies"][0], exchange="IXP-A")])
        return single, federated

    @pytest.mark.parametrize("clause,check_id", FLAGGED)
    def test_both_shapes_take_the_same_raw_pass(self, clause, check_id):
        single, federated = self.both_shapes(clause)
        reports = [lint_config(single), lint_config(federated)]
        found = [[(d.check_id, d.location.document_index)
                  for d in report.errors] for report in reports]
        assert found[0] == found[1]
        assert found[0] and set(found[0]) == {(check_id, 0)}
        assert {dict(d.data)["exchange"] for d in reports[1].errors} == {
            "IXP-A"}

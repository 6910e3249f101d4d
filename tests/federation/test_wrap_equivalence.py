"""A one-exchange federation is byte-identical to a plain SDX.

Hypothesis properties over seeded random single-exchange scenarios: the
same :class:`~repro.verification.scenario.Scenario` built as an
``SdxController`` and as a one-exchange federation must carry the same
statics verdicts, and the federated walk must collapse to plain
single-exchange forwarding (delivered via ``upstream`` or dropped — a
lone exchange has nowhere to re-enter).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import analyze_federation
from repro.statics import analyze_controller
from repro.verification.corpus import generate_corpus
from repro.verification.scenario import generate_scenario

EXAMPLES = 12


def verdict_key(diagnostic):
    """The exchange-independent identity of one finding."""
    location = diagnostic.location
    return (diagnostic.check_id, diagnostic.severity,
            location.participant, location.direction, location.clause_index,
            diagnostic.message)


def scenario_from(seed):
    return generate_scenario(seed, participants=4, prefixes=3,
                             policies=5, steps=0)


class TestStaticsEquivalence:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_wrap_preserves_single_exchange_verdicts(self, seed):
        scenario = scenario_from(seed)
        single = analyze_controller(
            scenario.build_controller(statics_mode="off"))
        federated = analyze_federation(
            scenario.build_federation(with_dataplane=False))
        single_keys = sorted(verdict_key(d) for d in single.diagnostics)
        federated_keys = sorted(
            verdict_key(d) for d in federated.diagnostics
            if d.check_id not in ("SDX008", "SDX009"))
        assert federated_keys == single_keys

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_wrap_never_invents_federation_findings(self, seed):
        federation = scenario_from(seed).build_federation(
            with_dataplane=False)
        report = analyze_federation(federation)
        assert report.by_check("SDX008") == []
        assert report.by_check("SDX009") == []


class TestForwardingEquivalence:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_federated_walk_collapses_to_plain_sdx(self, seed):
        scenario = scenario_from(seed)
        controller = scenario.build_controller()
        federation = scenario.build_federation()
        corpus = generate_corpus(scenario, size=6, seed=seed)
        for sender in scenario.participant_names():
            for packet in corpus:
                accepted = [d for d in controller.send(sender, packet)
                            if d.accepted]
                outcome = federation.forward("IXP-A", sender, packet)
                assert len(outcome.hops) == 1
                if accepted:
                    assert outcome.is_delivered
                    assert outcome.via == "upstream"
                    assert outcome.participant == accepted[0].participant
                else:
                    assert outcome.kind == "dropped"

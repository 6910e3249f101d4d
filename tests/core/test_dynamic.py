"""Tests for live RIB-tracking predicates (Section 3.2's dynamic
attribute grouping)."""

import pytest

from repro.bgp.asn import AsPath
from repro.core.dynamic import contains_dynamic, resolve_dynamic, rib_match
from repro.exceptions import PolicyError
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import fwd, match

from tests.core.scenarios import packet

YOUTUBE_ASN = 43515


def youtube_exchange():
    """A, B plus a content AS originating YouTube-like prefixes via B."""
    from repro.core.controller import SdxController
    sdx = SdxController()
    edge = sdx.add_participant("Edge", 64500)
    sdx.add_participant("Transit", 64501)
    sdx.add_participant("Transcoder", 64502)
    sdx.announce_route("Transit", IPv4Prefix("60.0.0.0/8"),
                       AsPath([64501, 3356, YOUTUBE_ASN]))
    sdx.announce_route("Transit", IPv4Prefix("61.0.0.0/8"),
                       AsPath([64501, 3356, 2906]))  # not YouTube
    sdx.announce_route("Transcoder", IPv4Prefix("60.0.0.0/8"),
                       AsPath([64502, 3356, YOUTUBE_ASN]))
    sdx.announce_route("Transcoder", IPv4Prefix("61.0.0.0/8"),
                       AsPath([64502, 3356, 2906]))
    return sdx, edge


class TestRibPrefixSet:
    def test_unresolved_eval_raises(self):
        predicate = rib_match("srcip", "as_path", r".*43515$")
        with pytest.raises(PolicyError):
            predicate.holds(packet("60.0.0.1"))
        with pytest.raises(PolicyError):
            predicate.compile()

    def test_rejects_non_ip_field(self):
        with pytest.raises(PolicyError):
            rib_match("dstport", "as_path", r".*43515$")

    def test_contains_and_resolve(self):
        predicate = match(dstport=80) & rib_match(
            "dstip", "as_path", r".*43515$")
        assert contains_dynamic(predicate)
        sdx, edge = youtube_exchange()
        resolved = resolve_dynamic(predicate, edge.rib)
        assert not contains_dynamic(resolved)
        assert resolved.holds(packet("60.0.0.1", dstport=80))
        assert not resolved.holds(packet("61.0.0.1", dstport=80))

    def test_clause_decides_once_and_resolution_keeps_the_dstip_pin(self):
        """``Clause.dynamic`` / ``Clause.dstip`` are read off the unresolved
        predicate: a dynamic ``dstip`` node never resolves to a plain
        ``match``, so resolving cannot change what the clause pins."""
        from repro.core.clauses import clause_dstip, normalize_policy
        sdx, edge = youtube_exchange()
        dynamic, static = normalize_policy(
            ((match(dstip="60.0.0.0/8") & rib_match(
                "dstip", "as_path", r".*43515$")) >> fwd("Transcoder"))
            + (match(dstport=80) >> fwd("Transit")))
        assert dynamic.dynamic and not static.dynamic
        assert static.dstip is None
        assert dynamic.dstip == IPv4Prefix("60.0.0.0/8") == clause_dstip(
            resolve_dynamic(dynamic.predicate, edge.rib))

    def test_static_predicate_passthrough(self):
        predicate = match(dstport=80)
        sdx, edge = youtube_exchange()
        assert resolve_dynamic(predicate, edge.rib) is predicate


class TestDynamicThroughSdx:
    def test_paper_youtube_redirection(self):
        """Section 3.2's example: traffic *to* YouTube-originated space
        detours through a transcoding middlebox, tracked via as-path."""
        sdx, edge = youtube_exchange()
        edge.add_outbound(
            rib_match("dstip", "as_path", rf".*{YOUTUBE_ASN}$")
            >> fwd("Transcoder"))
        sdx.start()
        assert sdx.egress_of("Edge", packet("60.0.0.1")) == "Transcoder"
        assert sdx.egress_of("Edge", packet("61.0.0.1")) == "Transit"

    def test_tracks_rib_across_churn(self):
        """A newly YouTube-originated prefix joins the redirection set on
        the next (background) recompilation — no policy change needed."""
        sdx, edge = youtube_exchange()
        edge.add_outbound(
            rib_match("dstip", "as_path", rf".*{YOUTUBE_ASN}$")
            >> fwd("Transcoder"))
        sdx.start()
        fresh = IPv4Prefix("62.0.0.0/8")
        sdx.announce_route("Transit", fresh, AsPath([64501, YOUTUBE_ASN]))
        sdx.announce_route("Transcoder", fresh, AsPath([64502, YOUTUBE_ASN]))
        sdx.run_background_recompilation()
        assert sdx.egress_of("Edge", packet("62.0.0.1")) == "Transcoder"

    def test_fast_path_resolves_dynamic(self):
        """The incremental path resolves the live set immediately."""
        sdx, edge = youtube_exchange()
        edge.add_outbound(
            rib_match("dstip", "as_path", rf".*{YOUTUBE_ASN}$")
            >> fwd("Transcoder"))
        sdx.start()
        fresh = IPv4Prefix("62.0.0.0/8")
        sdx.announce_route("Transcoder", fresh, AsPath([64502, YOUTUBE_ASN]))
        assert sdx.egress_of("Edge", packet("62.0.0.1")) == "Transcoder"

    def test_dynamic_inbound_not_cached(self):
        sdx, edge = youtube_exchange()
        transit = sdx.participant("Transit")
        transit.add_inbound(
            rib_match("srcip", "as_path", r".*2906$") >> fwd(transit.port(0)))
        sdx.start()
        # RIB-tracking clauses opt out of reuse: the pipeline is resolved
        # anew every time, the static ones are not.
        pipeline = sdx.compiler._inbound_pipeline
        participant = sdx.topology.participant
        assert (pipeline(participant("Transit"))
                is not pipeline(participant("Transit")))
        assert pipeline(participant("Edge")) is pipeline(participant("Edge"))

    def test_config_round_trip(self):
        from repro.config import controller_from_config, export_config
        sdx, edge = youtube_exchange()
        edge.add_outbound(
            rib_match("dstip", "as_path", rf".*{YOUTUBE_ASN}$")
            >> fwd("Transcoder"))
        sdx.start()
        clone = controller_from_config(export_config(sdx))
        clone.start()
        assert clone.egress_of("Edge", packet("60.0.0.1")) == "Transcoder"
        assert clone.egress_of("Edge", packet("61.0.0.1")) == "Transit"

    def test_analysis_skips_dynamic_regions(self):
        from repro.statics.checks import clause_overlaps
        from repro.statics.regions import clause_regions
        sdx, edge = youtube_exchange()
        edge.add_outbound(
            rib_match("dstip", "as_path", rf".*{YOUTUBE_ASN}$")
            >> fwd("Transcoder"))
        edge.add_outbound(match(dstport=80) >> fwd("Transit"))
        clauses = edge.participant.outbound_clauses()
        assert clause_overlaps(
            clauses, [clause_regions(clause) for clause in clauses]) == []

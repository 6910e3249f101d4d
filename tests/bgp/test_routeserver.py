"""Tests for the route server: per-participant best routes, export
policies, change notification, and re-advertisement — the scenarios come
from Figure 1b of the paper."""

import pytest

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.bgp.routeserver import BestRouteChange, RouteServer
from repro.exceptions import BgpError, ParticipantError
from repro.net.addresses import IPv4Address, IPv4Prefix
from tests.bgp.reference import (
    reference_changes, reference_sends, reference_table)

P1 = IPv4Prefix("11.0.0.0/8")
P2 = IPv4Prefix("12.0.0.0/8")
P4 = IPv4Prefix("14.0.0.0/8")


def attrs(next_hop, path):
    return RouteAttributes(next_hop=IPv4Address(next_hop), as_path=AsPath(path))


def make_server():
    server = RouteServer()
    server.add_peer("A", 65001)
    server.add_peer("B", 65002)
    server.add_peer("C", 65003)
    return server


class TestChangeLog:
    """``RouteServer.rib_changes``: every RIB write names its prefixes,
    whatever path it took; what cannot be named answers ``None``."""

    def test_every_rib_write_path_names_its_prefixes(self):
        server = make_server()
        log = server.rib_changes

        def named_by(action):
            version = server.state_version
            action()
            assert server.state_version > version
            return log.since(version)

        assert named_by(lambda: server.announce(
            "B", P1, attrs("172.0.0.2", [65002, 100]))) == [P1]
        # A table transfer is one unnamed change: a full pass follows it.
        assert named_by(lambda: server.bulk_load([Update.announce(
            "C", P2, attrs("172.0.0.3", [65003, 100]))])) is None
        # A stuck route moves the RIB with no listener told: still named.
        assert named_by(lambda: server.inject_unnotified(
            Update.withdraw("C", P2))) == [P2]
        # Withdrawn to nothing, the prefix is gone from the RIB, not the log.
        assert named_by(lambda: server.withdraw("B", P1)) == [P1]
        assert server.all_prefixes() == ()
        # An update that changes no entry names nothing.
        assert named_by(lambda: server.withdraw("B", P1)) == []
        server.announce("B", P1, attrs("172.0.0.2", [65002, 100]))
        server.announce("B", P4, attrs("172.0.0.2", [65002, 100]))
        assert set(named_by(lambda: server.reset_session("B"))) == {P1, P4}

    def test_what_cannot_be_named_is_unknown(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002, 100]))
        for change in (
                lambda: server.set_export_policy("B", deny=["A"]),
                lambda: server.add_peer("D", 65004),
                lambda: server.remove_peer("D")):
            version = server.state_version
            change()
            assert server.rib_changes.since(version) is None
            assert server.rib_changes.since(server.state_version) == []


class TestPeering:
    def test_add_and_list_peers(self):
        server = make_server()
        assert server.peers() == ("A", "B", "C")
        assert server.session("A").is_established

    def test_duplicate_peer_rejected(self):
        server = make_server()
        with pytest.raises(ParticipantError):
            server.add_peer("A", 65009)

    def test_unknown_peer_rejected(self):
        with pytest.raises(ParticipantError):
            make_server().session("Z")

    def test_remove_peer_withdraws_routes(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        changes = server.remove_peer("B")
        assert any(change.new is None for change in changes)
        assert server.best_route_for("A", P1) is None
        assert "B" not in server.peers()

    def test_remove_peer_reports_the_decisions_taken_without_it(self):
        """What a removal reports is decided without the peer that is gone,
        and what a listener then reads is that decision, kept."""
        server = make_server()
        server.announce("A", P1, attrs("172.0.0.1", [65001, 65002]))
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        assert "B" in server.decide(P1).exceptions
        seen = []
        server.add_update_listener(
            lambda update, changes: seen.append((update, server.decide(P1))))
        before = reference_table(server, ("A", "C"), (P1, P2))
        changes = server.remove_peer("B")
        (update, decided), = seen
        assert decided is server.decide(P1)
        assert "B" not in decided.exceptions and "B" not in decided.peers
        assert changes == reference_changes(
            before, reference_table(server, ("A", "C"), (P1, P2)),
            ("A", "C"), update)

    def test_reset_session_flushes_routes(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        changes = server.reset_session("B")
        assert any(change.new is None for change in changes)
        assert server.best_route_for("A", P1) is None
        assert server.session("B").is_established
        assert server.session("B").resets == 1

    def test_fail_peer_flushes_and_stays_down(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        changes = server.fail_peer("B")
        assert any(change.new is None for change in changes)
        assert server.best_route_for("A", P1) is None
        assert server.announced_by("B") == ()
        assert server.session("B").is_down
        with pytest.raises(BgpError):
            server.submit(Update.withdraw("B", P1))

    def test_fail_peer_notifies_listeners(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        seen = []
        server.add_listener(seen.extend)
        server.fail_peer("B")
        assert [change.prefix for change in seen].count(P1) >= 1

    def test_recover_peer_reestablishes_with_empty_rib(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        server.fail_peer("B")
        server.recover_peer("B")
        assert server.session("B").is_established
        assert server.announced_by("B") == ()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        assert server.best_route_for("A", P1) is not None

    def test_inject_unnotified_moves_rib_silently(self):
        server = make_server()
        seen = []
        server.add_listener(seen.extend)
        server.inject_unnotified(
            Update.announce("B", P1, attrs("172.0.0.2", [65002])))
        assert seen == []
        assert server.best_route_for("A", P1) is not None
        assert server.announced_by("B") == (P1,)

    def test_inject_unnotified_requires_established(self):
        server = make_server()
        server.fail_peer("B")
        with pytest.raises(BgpError):
            server.inject_unnotified(
                Update.announce("B", P1, attrs("172.0.0.2", [65002])))


class TestBestRouteSelection:
    def test_single_announcer(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        best = server.best_route_for("A", P1)
        assert best.learned_from == "B"

    def test_own_routes_excluded(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        assert server.best_route_for("B", P1) is None

    def test_prefers_shorter_path(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002, 7000]))
        server.announce("C", P1, attrs("172.0.0.3", [65003]))
        assert server.best_route_for("A", P1).learned_from == "C"

    def test_candidates_for_lists_all_exporters(self):
        """Both routes may be given to A, so its route is the better one;
        B and C, each refused its own, fall through to the other's."""
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        server.announce("C", P1, attrs("172.0.0.3", [65003]))
        decision = server.decide(P1)
        assert {decision.route_for(peer).learned_from
                for peer in ("A", "B", "C")} == {"B", "C"}
        assert decision.route_for("A") is server.best_route_for("A", P1)
        assert decision.route_for("B").learned_from == "C"
        assert decision.route_for("C").learned_from == "B"

    def test_all_prefixes(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        server.announce("C", P2, attrs("172.0.0.3", [65003]))
        assert server.all_prefixes() == (P1, P2)


class TestExportPolicy:
    def test_figure_1b_selective_export(self):
        """AS B does not export p4 to AS A, so A must not use B for p4."""
        server = make_server()
        server.set_export_policy("B", deny={"A"})
        server.announce("B", P4, attrs("172.0.0.2", [65002]))
        assert server.best_route_for("A", P4) is None
        assert server.best_route_for("C", P4).learned_from == "B"
        assert server.reachable_prefixes("A", via="B") == ()
        assert server.reachable_prefixes("C", via="B") == (P4,)

    def test_allowlist(self):
        server = make_server()
        server.set_export_policy("B", allow={"C"})
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        assert server.best_route_for("A", P1) is None
        assert server.best_route_for("C", P1) is not None

    def test_deny_wins_over_allow(self):
        server = make_server()
        server.set_export_policy("B", allow={"A"}, deny={"A"})
        assert not server.exports_to("B", "A")

    def test_never_exports_to_self(self):
        assert not make_server().exports_to("B", "B")

    def test_unknown_announcer_rejected(self):
        with pytest.raises(ParticipantError):
            make_server().set_export_policy("Z", deny={"A"})

    def test_reachable_prefixes_unknown_via(self):
        with pytest.raises(ParticipantError):
            make_server().reachable_prefixes("A", via="Z")


class TestChangeNotification:
    def test_listener_sees_per_participant_changes(self):
        server = make_server()
        seen = []
        server.add_listener(seen.extend)
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        participants = {change.participant for change in seen}
        assert participants == {"A", "C"}
        assert all(change.new is not None for change in seen)

    def test_no_notification_for_redundant_update(self):
        server = make_server()
        attributes = attrs("172.0.0.2", [65002])
        server.announce("B", P1, attributes)
        seen = []
        server.add_listener(seen.extend)
        server.announce("B", P1, attributes)
        assert seen == []

    def test_withdrawal_change_has_none_new(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        seen = []
        server.add_listener(seen.extend)
        server.withdraw("B", P1)
        assert all(change.new is None for change in seen)

    def test_better_route_switches_best(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002, 7000]))
        seen = []
        server.add_listener(seen.extend)
        server.announce("C", P1, attrs("172.0.0.3", [65003]))
        change = next(c for c in seen if c.participant == "A")
        assert change.old.learned_from == "B"
        assert change.new.learned_from == "C"


class TestBulkLoad:
    def test_bulk_load_applies_without_notification(self):
        server = make_server()
        seen = []
        server.add_listener(seen.extend)
        count = server.bulk_load([
            Update.announce("B", P1, attrs("172.0.0.2", [65002])),
            Update.announce("C", P2, attrs("172.0.0.3", [65003])),
        ])
        assert count == 2
        assert seen == []
        assert server.best_route_for("A", P1) is not None
        assert server.updates_processed == 2

    def test_bulk_load_requires_established_session(self):
        server = RouteServer()
        server.add_peer("A", 65001, connect=False)
        with pytest.raises(BgpError):
            server.bulk_load([Update.withdraw("A", P1)])


class TestReadvertisement:
    def test_announcement_sent_on_session(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        change = BestRouteChange("A", P1, None, server.best_route_for("A", P1))
        sent = server.readvertise([change])
        assert len(sent) == 1
        assert server.session("A").sent_log[-1].announcements[0].prefix == P1

    def test_withdrawal_sent_when_new_is_none(self):
        server = make_server()
        change = BestRouteChange("A", P1, None, None)
        sent = server.readvertise([change])
        assert sent[0].withdrawals[0].prefix == P1

    def test_next_hop_rewriter_applies(self):
        server = make_server()
        server.set_next_hop_rewriter(
            lambda prefix, route: IPv4Address("192.0.2.77"))
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        change = BestRouteChange("A", P1, None, server.best_route_for("A", P1))
        sent = server.readvertise([change])
        announced = sent[0].announcements[0]
        assert announced.attributes.next_hop == IPv4Address("192.0.2.77")

    def test_view_for_builds_loc_rib(self):
        server = make_server()
        server.announce("B", P1, attrs("172.0.0.2", [65002]))
        server.announce("C", P2, attrs("172.0.0.3", [65003]))
        view = server.view_for("A")
        assert view.prefixes() == (P1, P2)
        own_view = server.view_for("B")
        assert own_view.prefixes() == (P2,)


def make_exchange(members):
    """``members`` peers; M0 announces P1, so M1's shorter path wins it."""
    server = RouteServer()
    for index in range(members):
        server.add_peer(f"M{index}", 65_000 + index)
    server.announce("M0", P1, attrs("172.0.0.1", [65_000, 3356, 1299]))
    return server


def decision_runs(server):
    return server.telemetry.registry.counter(
        "sdx_bgp_decision_runs_total").value


class TestDecidesOncePerPrefix:
    def test_decision_runs_do_not_grow_with_membership(self):
        runs = []
        for members in (10, 100):
            server = make_exchange(members)
            before = decision_runs(server)
            server.announce("M1", P1, attrs("172.0.0.2", [65_001]))
            runs.append(decision_runs(server) - before)
            assert server.best_route_for("M7", P1).learned_from == "M1"
        # One ranking, at the write: per changed prefix, not per peer.
        assert runs == [1, 1]

    def test_decision_span_is_tagged_with_its_runs(self):
        server = make_exchange(10)
        server.announce("M1", P1, attrs("172.0.0.2", [65_001]))
        span = [s for s in server.telemetry.tracer.finished()
                if s.name == "bgp.decision"][-1]
        assert span.tags["runs"] == 1  # the write; "before" reads the Loc-RIB

    def test_reads_rank_nothing(self):
        server = make_exchange(10)
        before = decision_runs(server)
        server.decide(P1), server.view_for("M3"), server.best_route_for("M2", P1)
        server.ranked_routes(P1)
        assert decision_runs(server) == before
        server.announce("M0", P1, attrs("172.0.0.1", [65_000, 3356, 1299]))
        assert decision_runs(server) == before  # nothing changed, nothing ranked

    def test_decision_partitions_the_receivers(self):
        server = make_exchange(10)
        server.announce("M1", P1, attrs("172.0.0.2", [65_001, 65_004]))
        decision = server.decide(P1)
        assert [entry.learned_from for entry in decision.ranked] == ["M1", "M0"]
        # Everyone gets M1's route but its announcer and the AS on its path.
        assert set(decision.exceptions) == {"M1", "M4"}
        assert decision.route_for("M1").learned_from == "M0"
        assert decision.route_for("M4").learned_from == "M0"
        assert decision.route_for("M9") is decision.best
        assert decision.route_for("nobody") is None

    def test_one_update_object_per_partition_cell(self):
        server = make_exchange(300)
        server.set_next_hop_rewriter(
            lambda prefix, route: IPv4Address("192.0.2.77"))
        sent = []
        server.add_listener(
            lambda changes: sent.extend(server.readvertise(changes)))
        server.announce("M1", P1, attrs("172.0.0.2", [65_001]))
        # M1 keeps M0's route; the other 299 move to M1's together.
        assert len(sent) == 299
        assert all(update is sent[0] for update in sent)
        for index in (0, 2, 299):
            assert server.session(f"M{index}").sent_log[-1] is sent[0]
        assert server.session("M1").sent_log == []
        assert sent[0].announcements[0].attributes.next_hop == IPv4Address(
            "192.0.2.77")

    def test_an_update_builds_no_per_peer_change(self, monkeypatch):
        """An announcement that moves 299 peers is reported as one decision
        pair: with no change listener, no ``BestRouteChange`` is built —
        and the count, the counter and every session's log are still what
        the 299 per-peer changes give."""
        server = make_exchange(300)

        def rewrite(prefix, route):
            return IPv4Address("192.0.2.77")

        server.set_next_hop_rewriter(rewrite)
        built = []
        init = BestRouteChange.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BestRouteChange, "__init__", counted)
        reported = []
        server.add_update_listener(lambda update, changes: (
            reported.append(changes), server.readvertise(changes)))
        readvertised = server.telemetry.registry.counter(
            "sdx_bgp_readvertised_total")
        before = readvertised.value
        server.announce("M1", P1, attrs("172.0.0.2", [65_001]))
        assert built == []
        (changes,) = reported
        assert len(changes) == 299
        assert readvertised.value - before == 299
        monkeypatch.undo()
        sends = reference_sends(server, changes, rewrite)
        assert sum(map(len, sends.values())) == 299
        for name in server.peers():
            assert server.session(name).sent_log == sends.get(name, [])


def count_export_checks(server, monkeypatch):
    """Count ``route_exported`` calls on ``server``; returns the tally list."""
    calls = []
    real = server.route_exported

    def counted(entry, receiver):
        calls.append(receiver)
        return real(entry, receiver)
    monkeypatch.setattr(server, "route_exported", counted)
    return calls


def restrict_by_allow_list(server):
    server.set_export_policy("M1", allow=["M2", "M3"])
    return frozenset()


def restrict_by_allow_community(server):
    return frozenset({(server.asn, 65_002), (server.asn, 65_003)})


def restrict_by_blanket_block(server):
    return frozenset({(0, 0)})


RESTRICTIONS = [restrict_by_allow_list, restrict_by_allow_community,
                restrict_by_blanket_block]


class TestExportRestrictedWork:
    """The side of the traffic on which :meth:`RouteServer.decide` must
    ask every peer: the top route's announcer has an allow-list, or the
    route carries a ``(server-asn, x)`` or ``(0, 0)`` community."""

    @staticmethod
    def restricted_exchange(members, restrict):
        server = make_exchange(members)
        communities = restrict(server)
        server.announce("M1", P1, RouteAttributes(
            next_hop=IPv4Address("172.0.0.2"), as_path=AsPath([65_001]),
            communities=communities))
        return server

    @pytest.mark.parametrize("restrict", RESTRICTIONS)
    def test_one_receiver_read_does_not_grow_with_membership(
            self, restrict, monkeypatch):
        checks = []
        for members in (10, 100):
            server = self.restricted_exchange(members, restrict)
            calls = count_export_checks(server, monkeypatch)
            best = server.best_route_for("M7", P1)
            assert best.learned_from == "M0"  # M1's route is withheld from M7
            assert set(calls) == {"M7"}
            checks.append(len(calls))
        assert checks[0] == checks[1] <= 2  # one per ranked route, at most

    @pytest.mark.parametrize("restrict", RESTRICTIONS)
    def test_view_for_asks_only_about_its_own_receiver(
            self, restrict, monkeypatch):
        server = self.restricted_exchange(100, restrict)
        calls = count_export_checks(server, monkeypatch)
        assert server.view_for("M2").prefixes() == (P1,)
        assert set(calls) == {"M2"} and len(calls) <= 2

    @pytest.mark.parametrize("restrict", RESTRICTIONS)
    def test_update_costs_no_more_than_the_per_receiver_decision(
            self, restrict, monkeypatch):
        members = 50
        server = self.restricted_exchange(members, restrict)
        calls = count_export_checks(server, monkeypatch)
        changes = []
        server.add_listener(changes.extend)
        server.withdraw("M1", P1)
        # The per-(receiver, prefix) algorithm asked about every candidate
        # for every receiver, before and after: 2 routes, then 1.
        assert len(calls) <= members * 2 + members * 1
        moved = {change.participant for change in changes}
        if restrict is restrict_by_blanket_block:
            assert moved == set()  # nobody had M1's route
        else:
            assert moved == {"M2", "M3"}

    def test_kept_decision_is_a_snapshot(self):
        server = make_exchange(10)
        decision = server.decide(P1)
        server.add_peer("late", 65_999)
        assert decision.route_for("late") is None
        assert server.decide(P1).route_for("late") is decision.best
        with pytest.raises(TypeError):
            decision.exceptions["M5"] = None

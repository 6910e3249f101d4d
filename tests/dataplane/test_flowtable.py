"""Tests for the priority flow table."""

from repro.net.packet import Packet
from repro.policy.classifier import Action, Classifier, Rule
from repro.policy.flowrules import FlowRule, to_flow_rules
from repro.policy.headerspace import WILDCARD, HeaderSpace
from repro.policy.matchindex import MatchIndex
from repro.policy.policies import fwd, match
from repro.dataplane.flowtable import FlowTable
from repro.southbound.diff import FlowMod, compute_delta

from tests.policy.test_matchindex import filing


def rule(priority, actions=(), **constraints):
    return FlowRule(priority=priority, match=HeaderSpace(**constraints), actions=actions)


def assert_filed(table):
    """The table's one index files each installed match once, with its
    entries, highest priority first."""
    held = {}
    for level in table._levels.values():
        for match, entry in level.items():
            held.setdefault(match, []).append(entry)
    filed = {match: entries for ports in table._index._tags.values()
             for node in ports.values()
             for bucket in [node] + [bucket for found, _order in
                                     (node.lengths or {}).values()
                                     for bucket in found.values()]
             for match, entries in bucket.items()}
    assert filed == {match: tuple(sorted(
        entries, key=lambda entry: (-entry[0].priority, entry[1])))
        for match, entries in held.items()}
    assert dict(table._index._payloads) == filed


class TestInstallation:
    def test_install_orders_by_priority(self):
        table = FlowTable()
        table.install(rule(1))
        table.install(rule(5, dstport=80))
        table.install(rule(3, dstport=443))
        assert [r.priority for r in table.rules] == [5, 3, 1]

    def test_equal_priority_keeps_insertion_order(self):
        """Across guards too, and for the packet both rules match."""
        table = FlowTable()
        first = rule(5, (Action(port=1),), dstport=80)
        second = rule(5, (Action(port=2),), port=1)
        third = rule(5, (Action(port=3),), dstport=22)
        table.install_many([first, second, third])
        assert table.rules == (first, second, third)
        assert table.lookup(Packet(port=1, dstport=80)) is first
        table.apply_mod(FlowMod.delete(first))
        table.install(first)
        assert table.rules == (second, third, first)
        assert table.lookup(Packet(port=1, dstport=80)) is second

    def test_a_key_holds_one_rule(self):
        """Installing onto a taken key rewrites it, as an ADD would."""
        table = FlowTable()
        table.install(rule(5, (Action(port=1),), dstport=80))
        table.process(Packet(port=1, dstport=80))
        again = rule(5, (Action(port=2),), dstport=80)
        table.install(again)
        assert table.rules == (again,)
        assert table.packets_matched(again) == 1

    def test_install_classifier(self):
        table = FlowTable()
        installed = table.install_classifier((match(dstport=80) >> fwd(2)).compile())
        assert installed == len(table)

    def test_replace_with_swaps_table(self):
        """What ``replace_with`` did, said the one way left to say it."""
        table = FlowTable()
        table.install(rule(9))
        table.apply_delta(compute_delta(
            table.rules, to_flow_rules(fwd(2).compile())))
        assert all(r.actions == (Action(port=2),) for r in table.rules)

    def test_emptied_levels_and_guards_are_forgotten(self):
        """Tags and prefixes come and go for as long as the exchange runs:
        ``dstip`` prefixes of several lengths, nesting both ways, arriving
        and leaving in either order beside a rule that stays. The one index
        forgets what empties, and files each match once, with its entries
        at every priority."""
        table = FlowTable()
        for tag in range(50):
            churned = rule(7 + tag, dstmac=f"a2:00:00:00:00:{tag:02x}", port=1)
            table.install(churned)
            table.apply_mod(FlowMod.delete(churned))
        assert len(table) == 0 and not table._levels and table.rules == ()
        assert filing(table._index) == {}
        kept = rule(5, dstip="10.0.0.0/8", port=1)
        table.install(kept)
        prefixes = ["10.0.0.0/7", "10.0.0.0/16", "10.1.0.0/16",
                    "10.1.2.0/24", "10.1.2.3/32", "0.0.0.0/0"]
        for arriving in (prefixes, prefixes[::-1]):
            for leaving in (arriving, arriving[::-1]):
                churned = [rule(priority, dstip=prefix, port=port)
                           for prefix in arriving for port in (1, None)
                           for priority in (5, 9)]
                table.install_many(churned)
                assert len(filing(table._index)[None, 1]) == 7
                assert_filed(table)
                for prefix in leaving:
                    for port in (1, None):
                        for priority in (9, 5):
                            table.apply_mod(FlowMod.delete(
                                rule(priority, dstip=prefix, port=port)))
                            assert_filed(table)
                assert filing(table._index) == {
                    (None, 1): [(8, 0x0A000000)]}
                assert table.rules == (kept,)
        table.apply_mod(FlowMod.delete(kept))
        assert len(table) == 0 and not table._levels and table.rules == ()
        assert filing(table._index) == {}

    def test_generation_bumps_on_mutation(self):
        table = FlowTable()
        start = table.generation
        table.install(rule(1))
        table.clear()
        assert table.generation == start + 2


class TestOneIndexQuery:
    """However many priority levels the fast path opens, an overlap walk
    and a lookup each ask the table's one index once."""

    FAST_LEVELS = 40

    def table(self):
        table = FlowTable()
        tags = [f"a2:00:00:00:00:{tag:02x}" for tag in range(1, 9)]
        for depth, tag in enumerate(tags):  # the main table: a few levels
            for port in (1, 2, 3):
                table.install(rule(100 - depth % 3, (Action(port=port),),
                                   dstmac=tag, port=port, dstport=80))
            table.install(rule(10, (Action(port=4),), dstmac=tag))
        table.install(rule(1))
        for level in range(self.FAST_LEVELS):  # one rule per fast-path level
            table.install(rule(1_000_001 + 2 * level, (Action(port=5),),
                               dstmac=tags[level % len(tags)],
                               port=1 + level % 3, dstport=443))
        return table

    @staticmethod
    def counting(monkeypatch):
        queries = []
        for name in ("meeting", "hit_by"):
            original = getattr(MatchIndex, name)

            def counted(index, query, _name=name, _original=original):
                queries.append(_name)
                return _original(index, query)

            monkeypatch.setattr(MatchIndex, name, counted)
        return queries

    def test_overlapping_and_lookup_ask_once(self, monkeypatch):
        table = self.table()
        levels = len({installed.priority for installed in table.rules})
        assert levels == self.FAST_LEVELS + 5
        queries = self.counting(monkeypatch)
        probe = HeaderSpace(dstmac="a2:00:00:00:00:02", port=2)
        found = table.overlapping(probe)
        assert queries == ["meeting"]
        assert found == [installed for installed in table.rules
                         if installed.match.overlaps(probe)]
        del queries[:]
        last = table.rules[-1]
        assert table.overlapping(probe, before=last) == found[:-1]
        assert queries == ["meeting"]
        del queries[:]
        for dstport, winner in ((443, 1_000_051), (80, 99), (22, 10)):
            packet = Packet(dstmac="a2:00:00:00:00:02", port=2,
                            dstport=dstport)
            assert table.lookup(packet).priority == winner
            assert queries == ["hit_by"]
            del queries[:]


class TestProcessing:
    def test_first_match_by_priority(self):
        table = FlowTable()
        table.install(rule(1, (Action(port=9),)))
        table.install(rule(5, (Action(port=2),), dstport=80))
        assert table.process(Packet(port=1, dstport=80)) == (Packet(port=2, dstport=80),)
        assert table.process(Packet(port=1, dstport=22)) == (Packet(port=9, dstport=22),)

    def test_table_miss_drops(self):
        table = FlowTable()
        table.install(rule(5, (Action(port=2),), dstport=80))
        assert table.process(Packet(port=1, dstport=22)) == ()

    def test_drop_rule(self):
        table = FlowTable()
        table.install(rule(5, (), dstport=80))
        assert table.process(Packet(port=1, dstport=80)) == ()

    def test_counters(self):
        table = FlowTable()
        web = rule(5, (Action(port=2),), dstport=80)
        table.install(web)
        table.process(Packet(port=1, dstport=80))
        table.process(Packet(port=1, dstport=80))
        assert table.packets_matched(web) == 2

    def test_lookup_returns_none_on_miss(self):
        assert FlowTable().lookup(Packet(port=1)) is None

    def test_render_contains_priorities(self):
        table = FlowTable()
        table.install(rule(5, (Action(port=2),), dstport=80))
        assert "priority=5" in table.render()


class TestApplyMod:
    def test_add_inserts_in_priority_order(self):
        table = FlowTable()
        table.apply_mod(FlowMod.add(rule(3, (Action(port=1),), dstport=22)))
        table.apply_mod(FlowMod.add(rule(7, (Action(port=2),), dstport=80)))
        assert [r.priority for r in table.rules] == [7, 3]

    def test_modify_rewrites_actions_preserving_counter(self):
        table = FlowTable()
        web = rule(5, (Action(port=1),), dstport=80)
        table.install(web)
        table.process(Packet(port=1, dstport=80))
        table.apply_mod(FlowMod.modify(rule(5, (Action(port=9),), dstport=80)))
        survivor = table.rules[0]
        assert survivor.actions == (Action(port=9),)
        assert table.packets_matched(survivor) == 1

    def test_delete_removes_key(self):
        table = FlowTable()
        table.install(rule(5, (Action(port=1),), dstport=80))
        table.install(rule(1, (Action(port=2),)))
        table.apply_mod(FlowMod.delete(rule(5, (), dstport=80)))
        assert [r.priority for r in table.rules] == [1]

    def test_a_flowmod_is_independent_of_its_level_size(self, monkeypatch):
        """Hundreds of rules share a priority; adding, modifying, deleting
        and finding one compares no match with its neighbours'."""
        table = FlowTable()
        table.install_many(
            rule(5, (Action(port=2),), port=1 + index % 7, dstport=index,
                 dstmac=f"a2:00:00:00:{index % 50:02x}:01")
            for index in range(700))
        compared = []
        monkeypatch.setattr(HeaderSpace, "__eq__", lambda self, other: (
            compared.append(1), self._constraints == other._constraints)[1])
        target = rule(5, (Action(port=3),), port=3, dstport=2,
                      dstmac="a2:00:00:00:02:01")
        table.apply_mod(FlowMod.modify(target))
        assert table.rule_for_key(5, target.match) is not None
        table.apply_mod(FlowMod.delete(target))
        table.apply_mod(FlowMod.add(target))
        assert len(table) == 700 and len(compared) <= 8

    def test_lookup_probes_only_the_guards_the_packet_satisfies(self, monkeypatch):
        table = FlowTable()
        table.install_many(
            rule(9 - index % 3, (Action(port=2),), port=1 + index % 7,
                 dstmac=f"a2:00:00:00:{index % 50:02x}:01", dstport=index)
            for index in range(700))
        table.install(rule(1))
        probed = []
        original = HeaderSpace.matches
        monkeypatch.setattr(HeaderSpace, "matches", lambda self, packet: (
            probed.append(self), original(self, packet))[1])
        hit = table.lookup(Packet(port=3, dstmac="a2:00:00:00:02:01", dstport=2))
        assert hit is not None and hit.match.get("dstport") == 2
        assert len(probed) <= 4
        assert table.lookup(Packet(port=3, dstmac="a2:00:00:00:02:09")).priority == 1

    def test_delete_removes_every_duplicate_instance(self):
        table = FlowTable()
        table.install(rule(5, (Action(port=1),), dstport=80))
        table.install(rule(5, (Action(port=2),), dstport=80))
        table.apply_mod(FlowMod.delete(rule(5, (), dstport=80)))
        assert len(table) == 0

    def test_add_on_existing_key_acts_as_modify(self):
        table = FlowTable()
        table.install(rule(5, (Action(port=1),), dstport=80))
        table.apply_mod(FlowMod.add(rule(5, (Action(port=2),), dstport=80)))
        assert len(table) == 1
        assert table.rules[0].actions == (Action(port=2),)

    def test_rule_for_key(self):
        table = FlowTable()
        web = rule(5, (Action(port=1),), dstport=80)
        table.install(web)
        assert table.rule_for_key(5, HeaderSpace(dstport=80)) is web
        assert table.rule_for_key(5, WILDCARD) is None


class TestCounterPreservingReplace:
    @staticmethod
    def _replace(table, classifier):
        table.apply_delta(compute_delta(table.rules, to_flow_rules(classifier)))

    def _classifier(self, web_port):
        return Classifier([
            Rule(HeaderSpace(dstport=80), (Action(port=web_port),)),
            Rule(HeaderSpace(dstport=22), (Action(port=3),)),
            Rule(WILDCARD, ()),
        ])

    def test_unchanged_rules_keep_counters(self):
        table = FlowTable()
        table.install_classifier(self._classifier(web_port=1))
        table.process(Packet(port=9, dstport=22))
        table.process(Packet(port=9, dstport=22))
        ssh = table.lookup(Packet(port=9, dstport=22))
        assert table.packets_matched(ssh) == 2
        # Recompile changes only the web rule; ssh must keep its counter.
        self._replace(table, self._classifier(web_port=2))
        assert table.lookup(Packet(port=9, dstport=22)) is ssh
        assert table.packets_matched(ssh) == 2
        assert table.lookup(Packet(port=9, dstport=80)).actions == (Action(port=2),)

    def test_identical_replace_touches_nothing(self):
        table = FlowTable()
        table.install_classifier(self._classifier(web_port=1))
        generation = table.generation
        rules = table.rules
        self._replace(table, self._classifier(web_port=1))
        assert table.rules is rules  # the very tuple: nothing was touched
        assert table.generation == generation

    def test_replace_return_value_is_new_table_size(self):
        """The delta's own count says what was sent; the table's what it
        holds once the stale rule is reclaimed."""
        table = FlowTable()
        table.install(rule(9))
        delta = compute_delta(table.rules,
                              to_flow_rules(self._classifier(web_port=1)))
        assert table.apply_delta(delta) == delta.total == 4
        assert len(table) == 3


class TestCookies:
    """The OpenFlow-style per-rule cookie: issued at install, transferred
    by MODIFY, dropped (never recycled) on DELETE — the stable identity
    the monitoring collector keys its counter deltas by."""

    def test_install_issues_monotonic_cookies(self):
        table = FlowTable()
        first = rule(5, (Action(port=1),), dstport=80)
        second = rule(3, (Action(port=2),), dstport=22)
        table.install(first)
        table.install(second)
        assert 0 < table.cookie_of(first) < table.cookie_of(second)

    def test_uninstalled_rule_reads_zero(self):
        table = FlowTable()
        web = rule(5, (Action(port=1),), dstport=80)
        assert table.cookie_of(web) == 0
        table.install(web)
        table.clear()
        assert table.cookie_of(web) == 0

    def test_modify_transfers_the_cookie(self):
        table = FlowTable()
        web = rule(5, (Action(port=1),), dstport=80)
        table.install(web)
        cookie = table.cookie_of(web)
        table.apply_mod(FlowMod.modify(rule(5, (Action(port=9),), dstport=80)))
        survivor = table.rules[0]
        assert survivor is not web
        assert table.cookie_of(survivor) == cookie
        assert table.cookie_of(web) == 0

    def test_idempotent_modify_keeps_the_rule_object(self):
        table = FlowTable()
        web = rule(5, (Action(port=1),), dstport=80)
        table.install(web)
        cookie = table.cookie_of(web)
        table.apply_mod(FlowMod.modify(rule(5, (Action(port=1),), dstport=80)))
        assert table.rules == (web,)
        assert table.cookie_of(web) == cookie

    def test_delete_and_readd_issues_a_fresh_cookie(self):
        table = FlowTable()
        web = rule(5, (Action(port=1),), dstport=80)
        table.install(web)
        cookie = table.cookie_of(web)
        table.apply_mod(FlowMod.delete(web))
        table.apply_mod(FlowMod.add(rule(5, (Action(port=1),), dstport=80)))
        assert table.cookie_of(table.rules[0]) > cookie

    def test_counters_snapshot_rows_match_accessors(self):
        table = FlowTable()
        web = rule(5, (Action(port=2),), dstport=80)
        ssh = rule(3, (Action(port=3),), dstport=22)
        table.install(web)
        table.install(ssh)
        table.process(Packet(port=1, dstport=80), size_bytes=500)
        table.process(Packet(port=1, dstport=80), size_bytes=700)
        table.process(Packet(port=1, dstport=22), size_bytes=100)
        assert table.counters_snapshot() == (
            (web, table.cookie_of(web), 2, 1200),
            (ssh, table.cookie_of(ssh), 1, 100),
        )


class TestTelemetryBinding:
    """Regression: rebinding the table's telemetry must be idempotent
    per registry — no handle re-fetch, no gratuitous gauge writes."""

    def _bound(self):
        from repro.telemetry import Telemetry
        telemetry = Telemetry()
        table = FlowTable()
        table.bind_telemetry(telemetry)
        table.install(rule(5, (Action(port=1),), dstport=80))
        table.process(Packet(port=1, dstport=80))
        return telemetry, table

    def test_rebinding_the_same_registry_is_a_noop(self):
        telemetry, table = self._bound()
        gauge = telemetry.registry.get("sdx_flowtable_rules")
        table.bind_telemetry(telemetry)
        # Same handle objects, and activity keeps accumulating in place.
        assert telemetry.registry.get("sdx_flowtable_rules") is gauge
        table.process(Packet(port=1, dstport=80))
        assert telemetry.registry.get(
            "sdx_flowtable_packets_total").value == 2

    def test_rebinding_a_different_registry_moves_recording(self):
        from repro.telemetry import Telemetry
        first, table = self._bound()
        second = Telemetry()
        table.bind_telemetry(second)
        table.process(Packet(port=1, dstport=80))
        # The old registry stops receiving; the new one starts fresh,
        # with the rule gauge synced at bind time.
        assert first.registry.get("sdx_flowtable_packets_total").value == 1
        assert second.registry.get("sdx_flowtable_packets_total").value == 1
        assert second.registry.get("sdx_flowtable_rules").value == 1

"""Tests for the prefix trie and RIB structures, including a brute-force
longest-prefix-match comparison driven by hypothesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Announcement, Update, Withdrawal
from repro.bgp.rib import (
    CHANGE_LOG_SIZE, AdjRibIn, ChangeLog, PrefixTrie, RibView, RouteEntry)
from repro.exceptions import BgpError
from repro.net.addresses import IPv4Address, IPv4Prefix

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
prefix_strategy = st.builds(
    lambda n, l: IPv4Prefix(network=n, length=l),
    addresses,
    st.integers(min_value=0, max_value=32),
)


#: Prefixes nested inside one /16, so random tries actually nest.
clustered_prefixes = st.builds(
    lambda bits, l: IPv4Prefix(network=(10 << 24) + (1 << 16) + bits, length=l),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=14, max_value=32),
)


class CountingTable(dict):
    """One per-length table of a trie, counting reads."""

    steps = 0

    def get(self, key, default=None):
        CountingTable.steps += 1
        return super().get(key, default)

    def values(self):
        CountingTable.steps += len(self)
        return super().values()


def count_steps(trie, query):
    """Probes plus scanned entries of one ``covered_by(query)``."""
    trie._by_length = {length: CountingTable(table)
                       for length, table in trie._by_length.items()}
    CountingTable.steps = 0
    trie.covered_by(query)
    return CountingTable.steps


def entry_for(prefix_text, learned_from="A", path=(65001,), next_hop="172.0.0.1", **kw):
    return RouteEntry(
        prefix=IPv4Prefix(prefix_text),
        attributes=RouteAttributes(next_hop=IPv4Address(next_hop),
                                   as_path=AsPath(path), **kw),
        learned_from=learned_from)


class TestPrefixTrie:
    def test_insert_and_exact(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("10.0.0.0/8"), "a")
        assert trie.exact(IPv4Prefix("10.0.0.0/8")) == "a"
        assert trie.exact(IPv4Prefix("10.0.0.0/16")) is None
        assert IPv4Prefix("10.0.0.0/8") in trie

    def test_insert_replaces(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("10.0.0.0/8"), "a")
        trie.insert(IPv4Prefix("10.0.0.0/8"), "b")
        assert trie.exact(IPv4Prefix("10.0.0.0/8")) == "b"
        assert len(trie) == 1

    def test_remove(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("10.0.0.0/8"), "a")
        assert trie.remove(IPv4Prefix("10.0.0.0/8")) == "a"
        assert trie.remove(IPv4Prefix("10.0.0.0/8")) is None
        assert len(trie) == 0

    def test_longest_match_prefers_specific(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("10.0.0.0/8"), "short")
        trie.insert(IPv4Prefix("10.1.0.0/16"), "long")
        assert trie.longest_match("10.1.2.3") == (IPv4Prefix("10.1.0.0/16"), "long")
        assert trie.longest_match("10.2.0.1") == (IPv4Prefix("10.0.0.0/8"), "short")
        assert trie.longest_match("11.0.0.1") is None

    def test_default_route_matches_everything(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("0.0.0.0/0"), "default")
        assert trie.longest_match("203.0.113.7")[1] == "default"

    def test_covering(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("10.0.0.0/8"), "a")
        trie.insert(IPv4Prefix("10.1.0.0/16"), "b")
        trie.insert(IPv4Prefix("11.0.0.0/8"), "c")
        covering = trie.covering(IPv4Prefix("10.1.2.0/24"))
        assert [p for p, _ in covering] == [IPv4Prefix("10.1.0.0/16"), IPv4Prefix("10.0.0.0/8")]

    def test_covered_by(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("10.0.0.0/8"), "a")
        trie.insert(IPv4Prefix("10.1.0.0/16"), "b")
        trie.insert(IPv4Prefix("11.0.0.0/8"), "c")
        covered = dict(trie.covered_by(IPv4Prefix("10.0.0.0/8")))
        assert set(covered.values()) == {"a", "b"}

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(prefix_strategy, clustered_prefixes),
                    max_size=40),
           st.one_of(prefix_strategy, clustered_prefixes))
    def test_covered_by_agrees_with_the_linear_scan(self, prefixes, query):
        trie = PrefixTrie()
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
        scanned = {stored: value for stored, value in trie.items()
                   if query.contains_prefix(stored)}
        found = trie.covered_by(query)
        assert dict(found) == scanned
        assert len(found) == len(scanned)

    def test_covered_by_work_is_bounded_by_the_query(self):
        """Steps — hash probes plus entries scanned — must not grow with
        what is stored outside the queried prefix (the old linear scan
        visited every stored prefix on every call)."""
        inside = [IPv4Prefix(f"10.1.{third}.0/24") for third in range(16)]
        trie = PrefixTrie()
        for prefix in [IPv4Prefix("10.1.0.0/16"), *inside]:
            trie.insert(prefix, str(prefix))
        query = IPv4Prefix("10.1.0.0/20")
        few = count_steps(trie, query)
        for index in range(10_000):
            trie.insert(IPv4Prefix(
                network=(20 << 24) + (index << 8), length=24), "outside")
        many = count_steps(trie, query)
        assert many <= few
        assert {p for p, _ in trie.covered_by(query)} == set(inside)

    def test_iteration(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("10.0.0.0/8"), 1)
        trie.insert(IPv4Prefix("11.0.0.0/8"), 2)
        assert set(trie) == {IPv4Prefix("10.0.0.0/8"), IPv4Prefix("11.0.0.0/8")}
        assert dict(trie.items())[IPv4Prefix("11.0.0.0/8")] == 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(prefix_strategy, max_size=20), addresses)
    def test_longest_match_agrees_with_brute_force(self, prefixes, address):
        trie = PrefixTrie()
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
        result = trie.longest_match(address)
        containing = [p for p in prefixes if p.contains_address(address)]
        if not containing:
            assert result is None
        else:
            best_length = max(p.length for p in containing)
            assert result is not None
            assert result[0].length == best_length
            assert result[0].contains_address(address)


class TestAdjRibIn:
    def test_apply_announcement(self):
        adj = AdjRibIn("A")
        update = Update.announce("A", IPv4Prefix("10.0.0.0/8"),
                                 entry_for("10.0.0.0/8").attributes)
        assert adj.apply(update) == [IPv4Prefix("10.0.0.0/8")]
        assert adj.route(IPv4Prefix("10.0.0.0/8")) is not None
        assert len(adj) == 1

    def test_duplicate_announcement_reports_no_change(self):
        adj = AdjRibIn("A")
        attributes = entry_for("10.0.0.0/8").attributes
        adj.apply(Update.announce("A", IPv4Prefix("10.0.0.0/8"), attributes))
        assert adj.apply(Update.announce("A", IPv4Prefix("10.0.0.0/8"), attributes)) == []

    def test_withdrawal(self):
        adj = AdjRibIn("A")
        adj.apply(Update.announce("A", IPv4Prefix("10.0.0.0/8"),
                                  entry_for("10.0.0.0/8").attributes))
        assert adj.apply(Update.withdraw("A", IPv4Prefix("10.0.0.0/8"))) == [
            IPv4Prefix("10.0.0.0/8")]
        assert adj.route(IPv4Prefix("10.0.0.0/8")) is None

    def test_withdrawal_of_unknown_prefix_is_noop(self):
        adj = AdjRibIn("A")
        assert adj.apply(Update.withdraw("A", IPv4Prefix("10.0.0.0/8"))) == []

    def test_rejects_foreign_update(self):
        adj = AdjRibIn("A")
        with pytest.raises(BgpError):
            adj.apply(Update.withdraw("B", IPv4Prefix("10.0.0.0/8")))

    def test_reannounce_in_same_update_wins_over_withdrawal(self):
        adj = AdjRibIn("A")
        prefix = IPv4Prefix("10.0.0.0/8")
        attributes = entry_for("10.0.0.0/8").attributes
        adj.apply(Update.announce("A", prefix, attributes))
        update = Update(sender="A",
                        announcements=(Announcement(prefix, attributes),),
                        withdrawals=(Withdrawal(prefix),))
        adj.apply(update)
        assert adj.route(prefix) is not None

    def test_changed_prefixes_reported_once_in_first_seen_order(self):
        adj = AdjRibIn("A")
        first, second, third = (IPv4Prefix(f"10.{i}.0.0/16") for i in range(3))
        old = entry_for("10.0.0.0/16").attributes
        new = entry_for("10.0.0.0/16", path=(65001, 65009)).attributes
        adj.apply(Update(sender="A", announcements=tuple(
            Announcement(prefix, old) for prefix in (first, second))))
        update = Update(
            sender="A",
            withdrawals=(Withdrawal(second), Withdrawal(first)),
            announcements=(Announcement(third, new), Announcement(second, new),
                           Announcement(third, old)))
        # second: withdrawn then re-announced, reported where first seen.
        assert adj.apply(update) == [second, first, third]
        assert adj.route(first) is None
        assert adj.route(second).attributes == new
        assert adj.route(third).attributes == old

    def test_apply_is_linear_in_update_size(self, monkeypatch):
        """One table-transfer UPDATE must not compare every announced
        prefix with every other (it did: 12.5 M comparisons for 5 000)."""
        size = 5_000
        attributes = entry_for("10.0.0.0/8").attributes
        update = Update(sender="A", announcements=tuple(
            Announcement(IPv4Prefix(network=(10 << 24) + (i << 8), length=24),
                         attributes)
            for i in range(size)))
        comparisons = 0
        original = IPv4Prefix.__eq__

        def counting_eq(self, other):
            nonlocal comparisons
            comparisons += 1
            return original(self, other)

        monkeypatch.setattr(IPv4Prefix, "__eq__", counting_eq)
        changed = AdjRibIn("A").apply(update)
        monkeypatch.undo()
        assert len(changed) == size
        assert comparisons <= 4 * size


class TestRibView:
    def make_view(self):
        routes = {
            IPv4Prefix("10.0.0.0/8"): entry_for("10.0.0.0/8", path=(7018, 43515)),
            IPv4Prefix("20.0.0.0/8"): entry_for("20.0.0.0/8", path=(3356, 1234)),
            IPv4Prefix("30.0.0.0/8"): entry_for("30.0.0.0/8", path=(43515,)),
        }
        return RibView(routes)

    def test_paper_as_path_filter(self):
        """Section 3.2: select every prefix originated by AS 43515."""
        view = self.make_view()
        assert view.filter("as_path", r".*43515$") == (
            IPv4Prefix("10.0.0.0/8"), IPv4Prefix("30.0.0.0/8"))

    def test_next_hop_filter(self):
        view = self.make_view()
        assert len(view.filter("next_hop", r"^172\.")) == 3

    def test_unsupported_attribute(self):
        with pytest.raises(BgpError):
            self.make_view().filter("local_pref", "100")

    def test_originated_by(self):
        view = self.make_view()
        assert view.originated_by(43515) == (
            IPv4Prefix("10.0.0.0/8"), IPv4Prefix("30.0.0.0/8"))

    def test_prefixes_sorted(self):
        assert list(self.make_view().prefixes()) == sorted(self.make_view().prefixes())

    def test_route_lookup(self):
        view = self.make_view()
        assert view.route(IPv4Prefix("10.0.0.0/8")).learned_from == "A"
        assert view.route(IPv4Prefix("99.0.0.0/8")) is None
        assert len(view) == 3


class TestChangeLog:
    def test_names_what_changed_since_a_version_latest_first(self):
        log = ChangeLog()
        log.record("a")
        log.record("bc")
        seen = log.version
        log.record("ad")
        assert log.version == 3
        assert log.since(seen) == ["d", "a"]
        assert log.since(1) == ["d", "a", "c", "b"]
        assert log.since(0) == ["d", "a", "c", "b"]
        assert log.since(log.version) == []

    def test_a_key_is_kept_once_under_its_last_change(self):
        log = ChangeLog()
        for _ in range(3 * CHANGE_LOG_SIZE):  # a flap storm is one entry
            log.record("a")
        assert log.since(0) == ["a"]
        assert log.since(log.version - 1) == ["a"]

    def test_an_unnamed_change_is_unknown_to_whoever_looked_before(self):
        log = ChangeLog()
        log.record("a")
        before = log.version
        log.record()
        assert log.since(before) is None and log.since(0) is None
        assert log.since(log.version) == []
        log.record("b")
        assert log.since(before + 1) == ["b"]

    def test_past_the_cap_is_unknown(self):
        log = ChangeLog()
        log.record([0])
        for key in range(1, CHANGE_LOG_SIZE + 1):
            log.record([key])
        # Key 0 fell off: a reader from before it cannot be answered ...
        assert log.since(0) is None
        # ... one from after it can, in full.
        assert log.since(1) == list(range(CHANGE_LOG_SIZE, 0, -1))
        assert len(log._changed_at) == CHANGE_LOG_SIZE

    def test_one_change_naming_more_than_the_cap_is_unknown(self):
        log = ChangeLog()
        log.record(range(CHANGE_LOG_SIZE + 1))
        assert log.since(0) is None and not log._changed_at
        assert log.since(1) == []

    def test_trie_copy_is_independent(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix("10.0.0.0/8"), 1)
        twin = trie.copy()
        twin.insert(IPv4Prefix("10.0.0.0/8"), 2)
        twin.insert(IPv4Prefix("11.0.0.0/8"), 3)
        assert trie.exact(IPv4Prefix("10.0.0.0/8")) == 1 and len(trie) == 1
        assert twin.exact(IPv4Prefix("10.0.0.0/8")) == 2 and len(twin) == 2

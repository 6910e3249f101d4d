"""Tests for classifier reductions — they shrink tables without changing
first-match semantics (checked by hypothesis) — and for the overlap
numbering the compiler keys a table by, both read off the one match
index."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.classifier import Action, Classifier, Rule, merge_drop_tail
from repro.policy.headerspace import WILDCARD, HeaderSpace
from repro.policy.matchindex import MatchIndex

from tests.core.reference_numbering import file_at_depth
from tests.policy.strategies import header_spaces, packets, policies


def remove_shadowed(classifier):
    """The compiler's cover filter: each rule numbered unless a kept one
    covers it."""
    index = MatchIndex()
    return Classifier([
        rule for rule in classifier.rules
        if file_at_depth(index, rule.match, unless_covered=True) is not None])


def depths_of(matches):
    """The compiler's numbering of ``matches``, filed in order."""
    index = MatchIndex()
    return [file_at_depth(index, match) for match in matches]


def quadratic_remove_shadowed(classifier):
    """The reference: every rule against every kept earlier rule."""
    kept = []
    for rule in classifier.rules:
        if any(earlier.match.covers(rule.match) for earlier in kept):
            continue
        kept.append(rule)
    return Classifier(kept)


def quadratic_depths(matches):
    """The reference: the longest chain of earlier matches, each
    overlapping the next, that ends in each one."""
    depths = []
    for index, match in enumerate(matches):
        depths.append(1 + max(
            (depths[earlier] for earlier in range(index)
             if matches[earlier].intersect(match) is not None), default=-1))
    return depths


#: Matches shaped like SDX rules: ingress port and/or MAC tag, plus the
#: general fields of ``header_spaces``.
tagged_spaces = st.builds(
    lambda space, tag: space if tag is None else HeaderSpace(
        dstmac=f"a2:00:00:00:00:0{tag}", **dict(space.items())),
    header_spaces(), st.sampled_from([None, 1, 2, 3]))


def compiled_exchange(participants, prefixes, **kwargs):
    from repro.workloads.policies import generate_policies, install_assignments
    from repro.workloads.topology import generate_ixp
    ixp = generate_ixp(participants, prefixes, seed=0)
    sdx = ixp.build_controller(with_dataplane=False, reduce_table=False,
                               **kwargs)
    install_assignments(sdx, generate_policies(ixp, seed=1))
    return sdx.start().classifier


@lru_cache(maxsize=None)
def tagless_exchange():
    """60 members, 1 200 prefixes and no tags: ``dstip`` is what keeps
    the rules of one port apart."""
    from repro.policy.policies import fwd, match
    from repro.workloads.topology import generate_ixp
    ixp = generate_ixp(60, 1_200, seed=0)
    sdx = ixp.build_controller(with_dataplane=False, use_vnh=False)
    big = [spec.name for spec in ixp.top_by_prefixes(2)]
    client = next(spec.name for spec in ixp.participants
                  if spec.name not in big)
    for port, target in ((80, big[0]), (443, big[1]), (8080, big[0])):
        sdx.participant(client).participant.add_outbound(
            match(dstport=port) >> fwd(target))
    sdx.start()
    return sdx


class TestRemoveShadowed:
    def test_drops_rule_under_wildcard(self):
        classifier = Classifier([
            Rule(WILDCARD, (Action(port=1),)),
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
        ])
        reduced = remove_shadowed(classifier)
        assert len(reduced) == 1
        assert reduced.rules[0].actions == (Action(port=1),)

    def test_keeps_unshadowed_rules(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
            Rule(HeaderSpace(dstport=443), (Action(port=3),)),
            Rule(WILDCARD, ()),
        ])
        assert len(remove_shadowed(classifier)) == 3

    def test_prefix_shadowing(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstip="10.0.0.0/8"), (Action(port=1),)),
            Rule(HeaderSpace(dstip="10.1.0.0/16"), (Action(port=2),)),
            Rule(WILDCARD, ()),
        ])
        reduced = remove_shadowed(classifier)
        assert len(reduced) == 2


class TestIndexedShadowElimination:
    """The bucketed pass is the quadratic one, faster."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(tagged_spaces, max_size=25))
    def test_equals_quadratic_on_random_tables(self, spaces):
        classifier = Classifier(
            [Rule(space, (Action(port=index),))
             for index, space in enumerate(spaces)])
        assert (remove_shadowed(classifier).rules
                == quadratic_remove_shadowed(classifier).rules)

    def test_equals_quadratic_on_a_compiled_exchange(self):
        for use_vnh in (True, False):
            table = compiled_exchange(40, 400, use_vnh=use_vnh)
            # Seed some dead rules: the table again, below itself.
            doubled = Classifier(table.rules[:-1] + table.rules)
            assert (remove_shadowed(doubled).rules
                    == quadratic_remove_shadowed(doubled).rules
                    == remove_shadowed(table).rules)

    def test_covers_calls_stay_linear(self, monkeypatch):
        table = compiled_exchange(300, 6_000)
        assert len(table) >= 2_000
        calls = 0
        original = HeaderSpace.covers

        def counting(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(HeaderSpace, "covers", counting)
        remove_shadowed(table)
        assert calls <= 8 * len(table)


class TestOverlapDepth:
    """``file_at_depth``, the reference numbering, is the longest chain."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(tagged_spaces, max_size=25))
    def test_equals_the_longest_chain_on_random_tables(self, spaces):
        depths = depths_of(spaces)
        assert depths == quadratic_depths(spaces)
        for one, depth in zip(spaces, depths):
            for other, same in zip(spaces, depths):
                if one is not other and depth == same:
                    assert one.intersect(other) is None

    def test_equals_the_longest_chain_on_a_compiled_exchange(self):
        """With tags (port and VMAC buckets) and without (prefixes nest
        inside one port's bucket, both ways round)."""
        for use_vnh in (True, False):
            matches = [rule.match for rule in
                       compiled_exchange(40, 400, use_vnh=use_vnh).rules]
            assert depths_of(matches) == quadratic_depths(matches)

    def test_a_prefix_length_seen_late_still_finds_what_lies_inside(self):
        index = MatchIndex()
        inner = [HeaderSpace(port=1, dstip=f"10.{n}.0.0/16") for n in range(4)]
        assert [file_at_depth(index, match) for match in inner] == [0, 0, 0, 0]
        assert file_at_depth(index, HeaderSpace(port=1, dstip="10.0.0.0/8")) == 1
        assert file_at_depth(index, HeaderSpace(dstip="10.2.0.0/15")) == 2
        assert file_at_depth(index, HeaderSpace(port=2,
                                                dstip="10.2.0.0/15")) == 3

    def test_a_port_less_rule_does_not_visit_every_port(self, monkeypatch):
        """The default layer: per tag a few per-ingress exceptions and one
        port-less rule under them, over hundreds of ports. Filed by port
        first, each port-less rule walked them all (639 x 150 000: 1.4 s
        where tag-first takes 0.13)."""
        from repro.policy import matchindex
        visited = 0
        original = matchindex._agreeing

        def counting(level, value):
            nonlocal visited
            found = list(original(level, value))
            visited += len(found)
            return found

        monkeypatch.setattr(matchindex, "_agreeing", counting)
        index = MatchIndex()
        tags = [f"a2:00:00:00:{tag // 256:02x}:{tag % 256:02x}"
                for tag in range(600)]
        for number, tag in enumerate(tags):
            for port in (number % 300, (number * 7 + 1) % 300):
                assert file_at_depth(
                    index, HeaderSpace(port=port + 1, dstmac=tag)) == 0
        for tag in tags:
            assert file_at_depth(index, HeaderSpace(dstmac=tag)) == 1
        assert visited <= 6 * 3 * len(tags)

    def test_overlap_tests_stay_linear(self, monkeypatch):
        """The tag-less table keeps thousands of prefixes per port: a
        depth pass that did not bucket on ``dstip`` would be quadratic."""
        table = tagless_exchange().last_compilation.rules
        assert len(table) >= 1_000
        calls = 0
        original = HeaderSpace.overlaps

        def counting(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(HeaderSpace, "overlaps", counting)
        depths_of([rule.match for rule in table[:-1]])
        assert calls <= 8 * len(table)

    def test_the_installed_table_walks_the_same_buckets(self, monkeypatch):
        """The flow table files its levels the same way: one rule's walk
        tests the rules under its own prefix and the port-less ones around
        it — 77 for 76 hits, where a (port, tag) filing tested all 1 328 —
        and a lookup tests no more than the buckets a packet can hit."""
        table = tagless_exchange().table
        assert len(table) == 1_328
        rule = table.rules[0]
        assert (rule.match.get("port"), str(rule.match.get("dstip"))) == (
            1, "16.2.0.0/24")
        before = table.overlap_tests
        assert len(table.overlapping(rule.match)) == 76
        assert table.overlap_tests - before == 77
        tested = 0
        original = HeaderSpace.matches

        def counting(self, packet):
            nonlocal tested
            tested += 1
            return original(self, packet)

        monkeypatch.setattr(HeaderSpace, "matches", counting)
        for installed in table.rules:
            tested = 0
            probe = installed.match.concretise(
                port=installed.match.get("port") or 1)
            assert table.lookup(probe) is not None
            assert tested <= 2


class TestMergeDropTail:
    def test_collapses_trailing_drops(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
            Rule(HeaderSpace(dstport=443), ()),
            Rule(HeaderSpace(dstport=22), ()),
            Rule(WILDCARD, ()),
        ])
        reduced = merge_drop_tail(classifier)
        assert len(reduced) == 2

    def test_no_wildcard_tail_untouched(self):
        classifier = Classifier([Rule(HeaderSpace(dstport=443), ())])
        assert merge_drop_tail(classifier) is classifier

    def test_keeps_drops_above_forwarding_rules(self):
        classifier = Classifier([
            Rule(HeaderSpace(dstport=443), ()),
            Rule(HeaderSpace(dstport=80), (Action(port=2),)),
            Rule(WILDCARD, ()),
        ])
        assert len(merge_drop_tail(classifier)) == 3


def optimize(classifier):
    """The reductions the compiler runs on a table, in its order."""
    return merge_drop_tail(remove_shadowed(classifier))


class TestOptimizePreservesSemantics:
    @settings(max_examples=100, deadline=None)
    @given(policies(max_depth=4), packets())
    def test_optimize_preserves_eval_property(self, policy, packet):
        compiled = policy.compile()
        reduced = optimize(compiled)
        assert reduced.eval(packet) == compiled.eval(packet)
        assert len(reduced) <= len(compiled)

    @settings(max_examples=100, deadline=None)
    @given(policies(max_depth=4))
    def test_optimize_keeps_total_property(self, policy):
        assert optimize(policy.compile()).is_total

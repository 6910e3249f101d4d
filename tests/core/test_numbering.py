"""The compiler numbers the table tag by tag and carries each tag's rules
from one compilation to the next; the table must be the one numbering
every block whole gives (``tests/core/reference_numbering.py``), rule for
rule and priority for priority — cold, and after updates patched it."""

from collections import Counter

import pytest

from repro.policy.policies import drop, fwd, match
from repro.workloads import generate_trace
from repro.workloads.policies import generate_policies, install_assignments
from repro.workloads.topology import generate_ixp

from repro.core.compiler import _units
from repro.core.fec import Grouping

from tests.core.reference_numbering import reference_table, whole_block


def drop_clauses_around(sdx, ixp, seed):
    """A holder whose drop clauses sit above and below its tagged ones;
    another holder keeps tagged clauses only."""
    holder = sdx.topology.policy_holders()[0]
    target = holder.outbound_targets()[0]
    handle = sdx.participant(holder.name)
    kept = list(holder.outbound_policies)
    for policy in kept:
        handle.remove_outbound(policy)
    handle.add_outbound(match(dstport=4321) >> drop)
    for policy in kept:
        handle.add_outbound(policy)
    handle.add_outbound((match(dstport=4322) >> drop)
                        + (match(dstport=4323) >> fwd(target)))


CASES = {
    "drop clauses": ({}, drop_clauses_around),
    "reduce_table=False": ({"reduce_table": False}, None),
    "use_vnh=False": ({"use_vnh": False}, None),
    "optimized=False": ({"optimized": False}, None),
}


def assert_reference(sdx, result):
    expected = reference_table(sdx, result)
    assert len(result.rules) == len(expected)
    assert set(result.rules) == set(expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_table_is_the_whole_block_numbering(case, seed):
    options, edit = CASES[case]
    ixp = generate_ixp(16, 160, seed=seed)
    sdx = ixp.build_controller(with_dataplane=False, **options)
    install_assignments(sdx, generate_policies(ixp, seed=seed + 1))
    if edit is not None:
        edit(sdx, ixp, seed)
    started = sdx.start()
    assert_reference(sdx, started)
    holder = sdx.topology.policy_holders()[-1]
    # The next hop of the most groups: its inbound edit recomposes them.
    hops = Counter(sdx.route_server.decide(group.representative).best
                   .learned_from for group in started.groups)
    member = sdx.topology.participant(hops.most_common(1)[0][0]) \
        if hops else sdx.topology.participants()[seed]
    edits = {
        14: lambda: sdx.participant(member.name).add_inbound(
            match(srcip="0.0.0.0/1") >> fwd(member.port(0))),
        24: lambda: sdx.participant(holder.name).add_outbound(
            fwd(holder.outbound_targets()[0])),
    }
    for number, event in enumerate(generate_trace(
            ixp, max_updates=40, seed=seed + 2)):
        sdx.submit_update(event.update)
        if number in edits:
            edits[number]()
            assert_reference(sdx, sdx.last_compilation)
        if number % 10 == 9:
            patched = sdx.run_background_recompilation()
            assert_reference(sdx, patched)
            sdx.compiler.invalidate_inbound_cache()
            cold = sdx.compiler.compile()
            assert set(cold.rules) == set(patched.rules)
            assert cold.blocks and all(cold.blocks)
            sdx.compiler.resume(patched)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_holder_laid_out_tag_by_tag_is_its_whole_block(seed):
    """``_outbound_part`` is the one builder of a holder's rules, for a
    compilation's tags and for the fast path's one fresh tag. Laid out tag
    by tag — no clause filter can mask — or compiled whole, its units are
    the whole block's, rule for rule and in order."""
    ixp = generate_ixp(16, 160, seed=seed)
    sdx = ixp.build_controller(with_dataplane=False)
    install_assignments(sdx, generate_policies(ixp, seed=seed + 1))
    drop_clauses_around(sdx, ixp, seed)
    # A filter of several disjoint matches, in an order to keep.
    tagged = sdx.topology.policy_holders()[-1]
    sdx.participant(tagged.name).add_outbound(
        (match(dstport=8443) | match(dstport=8080) | match(dstport=8000))
        >> fwd(tagged.outbound_targets()[-1]))
    started = sdx.start()
    compiler = sdx.compiler
    _groups, grouping, by_context = started.reuse.get(
        ("groups", None), (None, ([], Grouping(), {})))[1]
    eligible = compiler._eligibility(grouping, by_context)
    layer = started.reuse["defaults", None][1].classifier
    vmac = sdx.allocator.vmac_for_group(started.groups[0].group_id)
    laid_out = several = 0
    for owner in sdx.topology.policy_holders():
        clauses = owner.outbound_clauses()
        everywhere = eligible(owner, clauses)
        one_tag = tuple((vmac,) if tags is None or vmac in tags else ()
                        for tags in everywhere)
        for tags in (everywhere, one_tag):
            part = compiler._outbound_part(owner, clauses, tags, layer,
                                           None, {})
            expected = _units(whole_block(compiler, owner, tags, layer).rules)
            assert {tag: list(rules) for tag, rules in part.units.items()} \
                == expected, owner.name
            if part.filters is not None:
                laid_out += 1
                several = max(several, *map(len, part.filters))
    assert several > 1
    assert laid_out and laid_out < 2 * len(sdx.topology.policy_holders())

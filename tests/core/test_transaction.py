"""The change transaction: one path, one undo, both gates judge the delta.

The rollback property raises once at every stage boundary of
``SdxController._transaction`` — and inside the observers and listeners
it runs — for every kind of change, and asserts that nothing but the RIB
and the change logs remembers the attempt: the snapshot below is equal
before and after, the same change then succeeds, rebuilds exactly what
it rebuilds on a twin exchange that never failed (a warm compile), and
leaves every standing invariant intact.
"""

import copy

import pytest

from repro.bgp.asn import AsPath
from repro.core.compiler import REUSE_STAGES
from repro.core.controller import SdxController
from repro.core.vnh import vmac_for_fec
from repro.exceptions import StaticDataplaneError, StaticPolicyError
from repro.net.addresses import IPv4Prefix
from repro.net.packet import Packet
from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.policy.policies import fwd, match
from repro.statics import analyze_controller_dataplane
from repro.statics.dataplane import (
    DataplaneVerifier,
    committed_spaces_from_controller,
)
from repro.verification.invariants import check_all
from repro.verification.runtime import canonical_state
from repro.workloads.policies import generate_policies, install_assignments
from repro.workloads.topology import generate_ixp

from tests.core.scenarios import check_block_deltas
from tests.federation.scenarios import clean_scenario


class Boom(Exception):
    """The injected failure."""


def once(call, *, after, error=Boom):
    """``call``, raising ``error`` the first time it runs — once it has
    done its work (``after``) or instead of it — and transparent since."""
    armed = [True]

    def wrapper(*args, **kwargs):
        if armed[0] and not after:
            armed[0] = False
            raise error("injected")
        result = call(*args, **kwargs)
        if armed[0]:
            armed[0] = False
            raise error("injected")
        return result

    return wrapper


class RaisingObserver:
    """A southbound observer whose ``hook`` raises at its ``nth`` call."""

    def __init__(self, hook, nth=1, error=Boom):
        self.hook, self.left, self.error = hook, nth, error

    def __call__(self, batch):
        pass

    def __getattr__(self, name):
        if name != self.hook:
            raise AttributeError(name)
        return self._fire

    def _fire(self, *_args):
        self.left -= 1
        if self.left == 0:
            raise self.error("injected")


def patch(owner, name, **how):
    setattr(owner, name, once(getattr(owner, name), **how))


#: Failure point -> arm it on ``(controller, gate owner)``.
FAILURES = {
    "admit": lambda sdx, owner: patch(owner, "lint_policies", after=False),
    "compile": lambda sdx, owner: patch(sdx.compiler, "compile", after=False),
    "assign_groups": lambda sdx, owner: patch(
        sdx.allocator, "assign_groups", after=True),
    "on_apply_begin": lambda sdx, owner: sdx.southbound.add_observer(
        RaisingObserver("on_apply_begin")),
    "after_flush_installs": lambda sdx, owner: patch(
        sdx.southbound, "flush_installs", after=True),
    "before_deletes": lambda sdx, owner: patch(
        sdx, "_advertise_moved", after=True),
    "on_apply_end": lambda sdx, owner: sdx.southbound.add_observer(
        RaisingObserver("on_apply_end")),
    "on_apply_end_of_deletes": lambda sdx, owner: sdx.southbound.add_observer(
        RaisingObserver("on_apply_end", nth=2)),
    "strict_gate_refusal": lambda sdx, owner: sdx.southbound.add_observer(
        RaisingObserver("on_apply_end", error=StaticDataplaneError)),
}


def exchange(**kwargs):
    """The 12 x 80 exchange of the issue's scratch readings, started."""
    ixp = generate_ixp(12, 80, seed=3)
    kwargs.setdefault("dataplane_statics_mode", "warn")
    kwargs.setdefault("statics_mode", "warn")
    sdx = ixp.build_controller(with_dataplane=True, **kwargs)
    install_assignments(sdx, generate_policies(ixp, seed=4))
    sdx.start()
    return sdx


def probes(sdx):
    return [Packet(dstip=prefix.first_address + 1, dstport=port,
                   srcip="10.1.2.3", protocol=6)
            for prefix in sdx.route_server.all_prefixes()[:8]
            for port in (80, 4321)]


def forwarding_pair(sdx, holders=None):
    """A (holder, target) with prefixes the holder may reach via target."""
    for holder in holders or sdx.topology.participants():
        for target in sdx.topology.participants():
            if (holder is not target and not holder.is_remote
                    and sdx.route_server.reachable_prefixes(
                        holder.name, via=target.name)):
                return sdx.participant(holder.name), target.name
    raise AssertionError("no eligible pair")


def policy_holders(sdx):
    return [p for p in sdx.topology.participants() if p.outbound_policies]


def churn(sdx):
    """Fast-path debt: withdraw and re-announce a few policy prefixes."""
    for prefix in sdx.route_server.all_prefixes()[:4]:
        announcer = sdx.route_server.ranked_routes(prefix)[0].learned_from
        sdx.withdraw_route(announcer, prefix)
        sdx.announce_route(announcer, prefix, AsPath(
            [sdx.topology.participant(announcer).asn, 64999]))
    assert sdx.engine.fast_path_rules_live and sdx.engine.dirty


class Change:
    """One kind of change: the exchange it runs on, and the change."""

    def __init__(self, prepare, run, federated=False):
        self.prepare, self.run, self.federated = prepare, run, federated

    def build(self):
        if self.federated:
            owner = clean_scenario().build_federation(
                statics_mode="warn", dataplane_statics_mode="warn")
            return owner.exchange("IXP-B"), owner
        sdx = exchange()
        self.prepare(sdx)
        return sdx, sdx


def add_policy(sdx, _owner):
    holder, target = forwarding_pair(sdx)
    holder.add_outbound(match(dstport=4321) >> fwd(target))


def remove_policy(sdx, _owner):
    holder = sdx.participant(policy_holders(sdx)[0].name)
    holder.remove_outbound(holder.participant.outbound_policies[0])


def batched_edit(sdx, _owner):
    holder, target = forwarding_pair(sdx, policy_holders(sdx))
    present = holder.participant.outbound_policies

    def swap(participant):
        participant.remove_outbound(present[0])
        participant.add_outbound(match(dstport=4321) >> fwd(target))
        participant.add_outbound(match(dstport=4322) >> fwd(target))

    holder.edit(swap)


CHANGES = {
    "policy_add": Change(lambda sdx: None, add_policy),
    "policy_remove": Change(lambda sdx: None, remove_policy),
    "batched_edit": Change(lambda sdx: None, batched_edit),
    "degrade_suspend": Change(
        lambda sdx: None, lambda sdx, _owner: sdx.suspend_policies()),
    "degrade_restore": Change(
        lambda sdx: sdx.suspend_policies(),
        lambda sdx, _owner: sdx.restore_policies()),
    "background_recompile": Change(
        churn, lambda sdx, _owner: sdx.run_background_recompilation()),
    "federated_add": Change(
        None, lambda _sdx, owner: owner.add_outbound(
            "IXP-B", "Eyeball", match(dstport=4321) >> fwd("Transit")),
        federated=True),
}


def verifier_caches(verifier):
    """Everything the dataplane verifier keeps between windows."""
    return {name: copy.deepcopy(getattr(verifier, name)) for name in (
        "_diags", "_rewrites", "_rewrite_tags", "_space_snapshot",
        "_space_index", "_vmac_snapshot")}


def table_of(sdx):
    """The installed table as the set of its rules: keys are the
    compilation's, so a table put back is the same set, though rules that
    share a priority come back in another install order."""
    rules = frozenset(sdx.table.rules)
    assert len(rules) == len(sdx.table)
    return rules


def snapshot(sdx):
    allocator, installed = sdx.allocator, sdx.engine.installed
    return {
        "rules": table_of(sdx),
        "policies": [(p.name, p.outbound_policies, p.inbound_policies,
                      p.policies_suspended, p.policy_generation)
                     for p in sdx.topology.participants()],
        "vmacs": allocator.vmac_index(),
        "live": sorted(allocator.live_vmacs),
        "quarantine": list(allocator._pending_retire),
        "free": list(allocator._free),
        "cursor": (allocator._next_offset, allocator._next_tag),
        "arp": allocator.responder.bindings(),
        "fibs": [(p.name, sorted(p.router.routes().items()),
                  p.router.fib_size, sorted(p.router._rib.items()),
                  sorted(p.router._fib.items()), sorted(p.router.overlay))
                 for p in sdx.topology.participants() if p.router is not None],
        "shared": (sorted(sdx.shared_routes.rib.items()),
                   sorted(sdx.shared_routes.fib.items())),
        "pending": sdx.southbound.queue.pending_mods(),
        "verifier": verifier_caches(sdx.dataplane_verifier),
        "engine": (sdx.started, sdx.engine.dirty,
                   sdx.engine.fast_path_rules_live, sdx.engine._fast_priority),
        "installed": installed,
        "memo": sdx.compiler._last(),
        "reuse": dict(installed.reuse),
    }


def assert_as_before(sdx, before, canonical):
    after = snapshot(sdx)
    assert canonical_state(sdx).diff(canonical) == []
    for aspect in before:
        if aspect not in ("installed", "memo", "reuse"):
            assert after[aspect] == before[aspect], aspect
    assert sdx.southbound.pending == 0
    assert sdx.last_compilation is sdx.engine.installed is before["installed"]
    assert after["memo"] is before["memo"]
    assert after["reuse"].keys() == before["reuse"].keys()
    assert all(after["reuse"][key] is entry
               for key, entry in before["reuse"].items())


def reuse_counts(sdx):
    registry = sdx.telemetry.registry
    return {(stage, outcome): registry.get(
                "sdx_compile_reuse_total", stage=stage, outcome=outcome).value
            for stage in REUSE_STAGES for outcome in ("hit", "miss")}


def rebuilt_by(sdx, run, owner):
    """stage -> (hits, misses) of running the change."""
    before = reuse_counts(sdx)
    run(sdx, owner)
    after = reuse_counts(sdx)
    return {stage: (after[stage, "hit"] - before[stage, "hit"],
                    after[stage, "miss"] - before[stage, "miss"])
            for stage in REUSE_STAGES}


@pytest.mark.parametrize("failure", FAILURES)
@pytest.mark.parametrize("change", CHANGES)
def test_a_failed_change_leaves_no_trace_and_the_next_one_is_warm(
        change, failure):
    change = CHANGES[change]
    sdx, owner = change.build()
    # Every delta, the refused window's and the retry's, is the oracle's;
    # and a rolled-back window leaves the engine knowing the table.
    taken = check_block_deltas(sdx)
    before, canonical = snapshot(sdx), canonical_state(sdx)
    FAILURES[failure](sdx, owner)
    try:
        change.run(sdx, owner)
    except (Boom, StaticDataplaneError):
        pass
    else:
        pytest.skip("the change never reaches this failure point")
    assert_as_before(sdx, before, canonical)

    # The next change succeeds, and costs what it costs on an exchange
    # that never failed: the memo is where it was.
    twin, twin_owner = change.build()
    assert (rebuilt_by(sdx, change.run, owner)
            == rebuilt_by(twin, change.run, twin_owner))
    assert sum(hits for hits, _misses in rebuilt_by(
        sdx, lambda s, _o: s.recompile(), owner).values()) > 0
    assert table_of(sdx) == table_of(twin)
    assert canonical_state(sdx).diff(canonical_state(twin)) == []
    assert check_all(sdx, probes(sdx)) == []
    assert sdx.lint_dataplane().errors == []
    assert taken["block"] and not taken["fallback"]


def test_window_end_exception_leaves_the_table_as_it_stood():
    """The issue's first scratch reading: at the parent, one exception at
    the end of the install window of one ``add_outbound`` left 76 rules
    where 45 stood, five groups assigned but never advertised, the deletes
    gone from the queue and the policy installed."""
    sdx = exchange(statics_mode="off", dataplane_statics_mode="off")
    holder, target = forwarding_pair(sdx)
    rules, groups = table_of(sdx), sdx.allocator.vmac_index()
    installed, policies = sdx.engine.installed, holder.participant.outbound_policies
    sdx.southbound.add_observer(RaisingObserver("on_apply_end"))
    with pytest.raises(Boom):
        holder.add_outbound(match(dstport=4321) >> fwd(target))
    assert table_of(sdx) == rules
    assert sdx.allocator.vmac_index() == groups
    assert sdx.southbound.pending == 0
    assert sdx.last_compilation is sdx.engine.installed is installed
    assert sdx.compiler._last() is installed
    assert holder.participant.outbound_policies == policies


# ----------------------------------------------------------------------
# The BGP case: the update is a fact, what was derived from it is undone
# ----------------------------------------------------------------------


def raising_listener(sdx):
    sdx.route_server.add_update_listener(
        once(lambda update, changes: None, after=False))


@pytest.mark.parametrize("arm", [
    raising_listener,
    FAILURES["on_apply_end"],
    FAILURES["strict_gate_refusal"],
], ids=["listener", "observer", "strict_gate_refusal"])
def test_a_failed_update_keeps_the_route_and_undoes_the_fast_path(arm):
    sdx, twin = exchange(), exchange()
    prefix = sdx.route_server.all_prefixes()[0]
    announcer = next(p for p in sdx.topology.participants()
                     if p.router is not None and not any(
                         entry.learned_from == p.name
                         for entry in sdx.route_server.ranked_routes(prefix)))
    path = AsPath([announcer.asn])
    before = snapshot(sdx)
    (arm if arm is raising_listener else lambda s: arm(s, s))(sdx)
    with pytest.raises((Boom, StaticDataplaneError)):
        sdx.announce_route(announcer.name, prefix, path)
    assert announcer.name in {
        entry.learned_from
        for entry in sdx.route_server.ranked_routes(prefix)}
    after = snapshot(sdx)
    for aspect in ("rules", "vmacs", "quarantine", "free", "cursor", "arp",
                   "pending", "policies"):
        assert after[aspect] == before[aspect], aspect
    # The verifier judges the old table against the new routes: what it
    # holds is what a fresh analysis of this very state finds.
    assert (sdx.dataplane_verifier.state_report().to_json()
            == analyze_controller_dataplane(sdx).to_json())
    assert sdx.last_compilation is before["installed"]
    assert sdx.engine.dirty

    # The next background swap picks the prefix up.
    twin.announce_route(announcer.name, prefix, path)
    assert sdx.run_background_recompilation() is not None
    twin.run_background_recompilation()
    # Equal up to the name of the tag the twin's fast path used up.
    assert canonical_state(sdx).diff(canonical_state(twin)) == []
    assert check_all(sdx, probes(sdx)) == []


def push_blackhole(sdx):
    """A rule rewriting to a tag nobody holds: an SDX012 error the strict
    gate refuses on its own."""
    sdx.southbound.push_rules([FlowRule(
        900_000, HeaderSpace(dstip=IPv4Prefix("99.99.0.0/16")),
        (Action(dstmac=vmac_for_fec(999_999), port=1),))])


def refused_policy_change(sdx):
    FAILURES["strict_gate_refusal"](sdx, sdx)
    add_policy(sdx, sdx)


@pytest.mark.parametrize("refused", [push_blackhole, refused_policy_change],
                         ids=["gate", "injected"])
def test_a_refused_window_leaves_the_verifier_as_a_fresh_one(refused):
    """Whatever the refused window's verdicts put in the caches — the
    per-rule verdicts, the tag -> rewriting rules index — is gone: the
    verifier holds what one built on the rolled-back table holds."""
    sdx = exchange(dataplane_statics_mode="strict")
    before = verifier_caches(sdx.dataplane_verifier)
    with pytest.raises(StaticDataplaneError):
        refused(sdx)
    fresh = DataplaneVerifier(
        sdx.table, committed_spaces=lambda: committed_spaces_from_controller(sdx),
        vmac_index=sdx.allocator.vmac_index, mode="off")
    assert verifier_caches(sdx.dataplane_verifier) == verifier_caches(fresh)
    assert verifier_caches(sdx.dataplane_verifier) == before


# ----------------------------------------------------------------------
# The wedge: a BGP-caused finding never vetoes the next edit
# ----------------------------------------------------------------------

P1 = IPv4Prefix("11.0.0.0/8")
P2 = IPv4Prefix("12.0.0.0/8")


def wedge_exchange():
    sdx = SdxController(statics_mode="strict")
    a = sdx.add_participant("A", 65001)
    sdx.add_participant("B", 65002)
    c = sdx.add_participant("C", 65003, ports=2)
    sdx.add_participant("D", 65004)
    sdx.announce_route("B", P1, AsPath([65002, 100]))
    sdx.announce_route("C", P1, AsPath([65003, 200, 100]))
    sdx.announce_route("C", P2, AsPath([65003, 200]))
    a.add_outbound(match(dstport=80) >> fwd("B"))
    sdx.start()
    # B's only route goes: A's standing clause now forwards nowhere.
    sdx.withdraw_route("B", P1)
    sdx.run_background_recompilation()
    assert sdx.lint_policies().by_check("SDX003")
    return sdx, a, c


class TestTheGateJudgesTheDelta:
    def test_bgp_caused_finding_does_not_veto_an_unrelated_edit(self):
        """The issue's second scratch reading: at the parent the strict
        gate refused C's edit for A's SDX003 — and left it installed."""
        sdx, _a, c = wedge_exchange()
        c.add_inbound(match(srcip="0.0.0.0/1") >> fwd(c.port(1)))
        assert len(c.participant.inbound_policies) == 1
        assert sdx.egress_of("A", Packet(
            dstip="12.0.0.1", dstport=80, srcip="1.2.3.4", protocol=6)) == "C"
        # The finding is reported — on the change, and to whoever lints.
        assert sdx.last_statics_report.by_check("SDX003")

    def test_a_new_routeless_forward_is_still_refused_and_uninstalled(self):
        sdx, a, _c = wedge_exchange()
        rules, policies = table_of(sdx), a.participant.outbound_policies
        with pytest.raises(StaticPolicyError) as refusal:
            a.add_outbound(match(dstport=22) >> fwd("D"))
        assert "SDX003" in str(refusal.value) and "'D'" in str(refusal.value)
        assert refusal.value.report is sdx.last_statics_report
        assert a.participant.outbound_policies == policies
        assert table_of(sdx) == rules
        # ... and it blocks nobody: the owner's next, sound edit goes in.
        a.add_outbound(match(dstport=443) >> fwd("C"))
        assert len(a.participant.outbound_policies) == 2

    def test_removing_an_earlier_clause_is_not_a_new_finding(self):
        sdx, a, _c = wedge_exchange()
        a.add_outbound(match(dstport=443) >> fwd("C"))
        standing, sound = a.participant.outbound_policies
        a.remove_outbound(sound)
        a.add_outbound(match(dstport=8080) >> fwd("C"))
        # The routeless clause itself may go, too.
        a.remove_outbound(standing)
        assert not sdx.last_statics_report.has_errors

    def test_the_state_before_is_analysed_only_when_the_change_has_errors(self):
        sdx, a, c = wedge_exchange()
        calls = []
        lint = sdx.lint_policies
        sdx.lint_policies = lambda **kw: calls.append(kw) or lint(**kw)
        clean = SdxController(statics_mode="strict")
        clean_calls = []
        clean_lint = clean.lint_policies
        clean.lint_policies = (
            lambda **kw: clean_calls.append(kw) or clean_lint(**kw))
        b = clean.add_participant("B", 65002, ports=2)
        b.add_inbound(match(srcip="0.0.0.0/1") >> fwd(b.port(1)))
        assert len(clean_calls) == 1
        # Standing errors: the state before the change is analysed too.
        c.add_inbound(match(srcip="0.0.0.0/1") >> fwd(c.port(1)))
        assert len(calls) == 2

    def test_start_refuses_standing_errors(self):
        sdx = SdxController()
        a = sdx.add_participant("A", 65001)
        sdx.add_participant("B", 65002)
        a.add_outbound(match(dstport=80) >> fwd("B"))  # B announces nothing
        sdx.statics_mode = "strict"
        with pytest.raises(StaticPolicyError):
            sdx.start()
        assert not sdx.started and len(sdx.table) == 0
        assert sdx.last_compilation is None


# ----------------------------------------------------------------------
# The catch-all drop holds one priority: a deeper default layer is not news
# ----------------------------------------------------------------------


def test_a_change_that_deepens_the_default_layer_passes_the_strict_gate():
    """With the drop numbered like any other rule (one level under
    whatever it follows), ``gated_changes`` seed 2 lost 2 of 3 192 ops: a
    regroup made the new default layer one level deeper, so until the
    delete phase the *old* drop sat on the level of new rules for a fresh
    VMAC and — older — won their packets; SDX011, which judges the window
    against the new committed spaces, refused the change. Pinned under
    both bands, the drop ties with nothing."""
    from repro.southbound.diff import DEFAULT_BAND_TOP, DROP_PRIORITY

    def default_band(sdx):
        return [rule for rule in sdx.last_compilation.rules
                if DROP_PRIORITY < rule.priority <= DEFAULT_BAND_TOP]

    sdx = exchange(dataplane_statics_mode="strict")
    assert sdx.lint_dataplane().errors == []
    # The member most tagged prefixes leave through by default: an inbound
    # clause of its own splits every default rule toward it, one more
    # level; an update to one of those prefixes first means the swap also
    # regroups it under a fresh tag.
    tagged = [prefix for group in sdx.allocator.groups()
              for prefix in group.prefixes]
    best = {prefix: sdx.route_server.decide(prefix).best for prefix in tagged}
    target = max(sdx.topology.participants(), key=lambda p: sum(
        route.learned_from == p.name for route in best.values()))
    prefix, route = next((prefix, route) for prefix, route in best.items()
                         if route.learned_from == target.name)
    *hops, _origin = route.attributes.as_path.asns
    sdx.announce_route(target.name, prefix, AsPath([*hops, 64_999]))
    assert sdx.engine.dirty
    deepest = min(rule.priority for rule in default_band(sdx))
    tags = set(sdx.allocator.vmac_index())
    handle = sdx.participant(target.name)
    handle.add_inbound(match(srcport=4321) >> fwd(handle.port()))
    assert min(rule.priority for rule in default_band(sdx)) == deepest - 1
    fresh = sdx.allocator.vmac_for_prefix(prefix)
    assert fresh not in tags
    assert any(rule.priority == deepest - 1  # where the old drop would be
               and rule.match.get("dstmac") == fresh
               for rule in default_band(sdx))
    assert sdx.last_compilation.rules[-1].priority == DROP_PRIORITY
    assert sdx.dataplane_verifier.state_report().errors == []
    assert check_all(sdx, probes(sdx)) == []

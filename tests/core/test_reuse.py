"""Stage reuse in the compiler: what a change rebuilds, and that reusing is
indistinguishable from recompiling everything.

Work is read off ``sdx_compile_reuse_total{stage, outcome}`` and the
``southbound.diff`` span's ``keyed`` tag — counts, not timings. Soundness
is a twin run: the same random operations on a controller as shipped and
on one that forgets every stage result before each of them must leave the
same rules in the same order and the same VNH partition after every step,
and every delta either engine computes must be the one ``compute_delta``
gives over the live table (``check_block_deltas``).
"""

import random

import pytest

from repro.bgp.asn import AsPath
from repro.bgp.messages import Update
from repro.core.compiler import REUSE_STAGES
from repro.net.addresses import IPv4Prefix
from repro.policy.classifier import Action
from repro.policy.flowrules import FlowRule
from repro.policy.headerspace import HeaderSpace
from repro.policy.policies import drop, fwd, match
from repro.southbound.diff import DEFAULT_BAND_TOP, PRIORITY_CEILING
from repro.verification.invariants import check_table_is_compilation

from tests.core.scenarios import (
    P1, P2, check_block_deltas, figure1_controller)

ALL = {"groups", "defaults", "inbound", "stage2", "outbound",
       "composition", "reduction"}


def reuse_counts(sdx):
    registry = sdx.telemetry.registry
    return {(stage, outcome): registry.get(
                "sdx_compile_reuse_total", stage=stage, outcome=outcome).value
            for stage in REUSE_STAGES for outcome in ("hit", "miss")}


def compile_work(sdx):
    """The unit counts the latest ``compile`` span reports."""
    span = [s for s in sdx.telemetry.tracer.finished()
            if s.name == "compile"][-1]
    return {key: span.tags[key]
            for key in ("dirty_prefixes", "groups_rebuilt", "rules_numbered")}


def keyed(sdx):
    """Rules the latest southbound diff hashed."""
    return [s for s in sdx.telemetry.tracer.finished()
            if s.name == "southbound.diff"][-1].tags["keyed"]


def misses(sdx, operation):
    """stage -> rebuilds caused by ``operation()`` (stages with none omitted)."""
    before = reuse_counts(sdx)
    operation()
    after = reuse_counts(sdx)
    return {stage: after[stage, "miss"] - before[stage, "miss"]
            for stage in REUSE_STAGES
            if after[stage, "miss"] != before[stage, "miss"]}


@pytest.fixture
def started():
    sdx, a, b, c, e = figure1_controller()
    sdx.start()
    return sdx, a, b, c, e


class TestWhatAChangeRebuilds:
    def test_catalogue(self):
        assert set(REUSE_STAGES) == ALL

    def test_unchanged_state_rebuilds_nothing(self, started):
        sdx = started[0]
        assert misses(sdx, sdx.recompile) == {}

    def test_clause_toward_existing_target_rebuilds_one_block(self, started):
        sdx, a, *_ = started
        change = misses(
            sdx, lambda: a.add_outbound(match(dstport=8080) >> fwd("B")))
        assert change == {"outbound": 1, "composition": 1, "reduction": 1}

    def test_clause_toward_new_target_regroups_and_builds_that_block(
            self, started):
        sdx, _a, _b, c, _e = started
        # (C, B) is a new context, but C may use B for exactly the prefixes
        # of existing groups: the partition, hence every tag, stands.
        change = misses(
            sdx, lambda: c.add_outbound(match(dstport=22) >> fwd("B")))
        assert change == {"groups": 1, "outbound": 1, "composition": 1,
                          "reduction": 1}

    def test_inbound_change_recomposes_but_recompiles_no_outbound_part(
            self, started):
        sdx, _a, _b, c, _e = started
        change = misses(sdx, lambda: c.add_inbound(
            match(srcip="0.0.0.0/1") >> fwd(c.port(0))))
        assert change == {"inbound": 1, "stage2": 1, "composition": 2,
                          "reduction": 2}

    def test_bgp_announcement_rebuilds_what_reads_routing(self, started):
        sdx = started[0]
        touched = sum(map(len, sdx.last_compilation.groups))

        def announce():
            sdx.announce_route("C", P1, AsPath([65003, 100, 7]))
            sdx.run_background_recompilation()

        change = misses(sdx, announce)
        # Every stage but the inbound side is gone through again — the
        # outbound stage because the update moved the tags of A, the one
        # holder; a holder whose tags stood would keep its block ...
        assert set(change) == ALL - {"inbound", "stage2"}
        assert change["outbound"] == 1
        # ... for the one prefix the update named and the one group it left.
        work = compile_work(sdx)
        assert work["dirty_prefixes"] == 1 < touched
        assert 1 <= work["groups_rebuilt"] < len(sdx.last_compilation.groups)

    def test_update_that_moves_no_group_keeps_the_blocks(self, started):
        sdx = started[0]

        def announce():  # E's p5 is touched by no policy
            sdx.announce_route("E", IPv4Prefix("15.0.0.0/8"),
                               AsPath([65005, 300, 9]))
            sdx.run_background_recompilation()

        assert set(misses(sdx, announce)) == {"groups", "defaults"}
        assert compile_work(sdx) == {"dirty_prefixes": 1, "groups_rebuilt": 0,
                                     "rules_numbered": 0}

    def test_export_policy_rebuilds_what_reads_routing(self, started):
        sdx = started[0]
        groups = sdx.last_compilation.groups

        def restrict():
            sdx.route_server.set_export_policy("C", deny=["A"])
            sdx.recompile()

        assert set(misses(sdx, restrict)) == ALL - {"inbound", "stage2"}
        # The log cannot name what an export edit moved: nothing is kept.
        work = compile_work(sdx)
        assert work == {
            "dirty_prefixes": sum(map(len, sdx.last_compilation.groups)),
            "groups_rebuilt": len(sdx.last_compilation.groups),
            "rules_numbered": work["rules_numbered"]}
        # Every default-layer rule is composed anew, so numbered anew.
        assert work["rules_numbered"] >= len(sdx.last_compilation.rules) - sum(
            len(numbered) for _composed, (numbered, _index)
            in sdx.last_compilation.reuse["reduction", "A"][1].values())
        assert not {id(g) for g in groups} & {
            id(g) for g in sdx.last_compilation.groups}

    def test_untouched_groups_keep_their_objects(self, started):
        sdx = started[0]
        before = {g.signature: g for g in sdx.last_compilation.groups}
        sdx.withdraw_route("B", P1)
        sdx.run_background_recompilation()
        after = {g.signature: g for g in sdx.last_compilation.groups}
        kept = [s for s in after if s in before
                and after[s].prefixes is before[s].prefixes]
        assert kept and len(kept) < len(after)

    def test_new_participant_rebuilds_all_but_the_others_pipelines(
            self, started):
        sdx = started[0]

        def join():
            sdx.add_participant("F", 65006)
            sdx.recompile()

        change = misses(sdx, join)
        # A holder's block reads nothing of a member that announces
        # nothing: its clauses and tags stand, and it expanded no mask
        # against the default layer, so it is kept; composing it with the
        # new inbound stage is not.
        assert set(change) == ALL - {"outbound"}
        assert change["inbound"] == 1

    def test_suspend_and_restore(self, started):
        sdx = started[0]
        suspended = misses(sdx, sdx.suspend_policies)
        # Only B had an inbound policy to mask; no outbound part is left.
        assert suspended["inbound"] == 1
        assert "outbound" not in suspended
        restored = misses(sdx, sdx.restore_policies)
        assert restored["inbound"] == 1 and restored["outbound"] == 1

    def test_invalidate_makes_the_next_compile_cold(self, started):
        sdx = started[0]
        sdx.compiler.invalidate_inbound_cache()
        before = reuse_counts(sdx)
        result = sdx.compiler.compile()
        after = reuse_counts(sdx)
        assert all(after[stage, "hit"] == before[stage, "hit"]
                   for stage in REUSE_STAGES)
        assert all(after[stage, "miss"] > before[stage, "miss"]
                   for stage in REUSE_STAGES)
        assert result.classifier.rules == sdx.last_compilation.classifier.rules

    def test_discarded_compile_leaves_nothing_on_the_compiler(self, started):
        sdx = started[0]
        sdx.compiler.invalidate_inbound_cache()
        sdx.compiler.compile()  # result dropped, as sdxbench's Fig. 8 does
        assert sdx.compiler._last() is None
        assert set(misses(sdx, sdx.compiler.compile)) == ALL

    def test_compile_span_names_the_stages_rebuilt(self, started):
        sdx, a, *_ = started
        a.add_outbound(match(dstport=8080) >> fwd("B"))
        span = [s for s in sdx.telemetry.tracer.finished()
                if s.name == "compile"][-1]
        assert span.tags["rebuilt"] == "composition,outbound,reduction"


class TestInboundPipelineIdentity:
    """Satellite bug: an outbound-only change used to rebuild the inbound
    side (shared ``policy_generation`` plus an explicit invalidation)."""

    def test_outbound_change_keeps_the_inbound_pipeline(self, started):
        sdx, _a, b, *_ = started
        pipeline = sdx.compiler._inbound_pipeline
        before = pipeline(b.participant)
        policy = match(dstport=22) >> fwd("C")
        b.add_outbound(policy)
        assert pipeline(b.participant) is before
        b.remove_outbound(policy)
        assert pipeline(b.participant) is before

    def test_inbound_change_replaces_it(self, started):
        sdx, _a, b, *_ = started
        before = sdx.compiler._inbound_pipeline(b.participant)
        b.add_inbound(match(dstport=22) >> drop)
        assert sdx.compiler._inbound_pipeline(b.participant) is not before

    def test_multi_predicate_inbound_clause_survives_outbound_change(
            self, started):
        # A chained clause normalises to a fresh Conjunction object; the
        # clause cache must not be dropped by the other direction.
        sdx, _a, b, *_ = started
        b.add_inbound(match(dstport=22) >> match(protocol=6) >> drop)
        clauses = b.participant.inbound_clauses()
        b.add_outbound(match(dstport=22) >> fwd("C"))
        assert b.participant.inbound_clauses() is clauses


# ----------------------------------------------------------------------
# Soundness: reuse == recompiling everything
# ----------------------------------------------------------------------

PREFIXES = [IPv4Prefix(f"{20 + index}.0.0.0/8") for index in range(6)]
NAMES = ("A", "B", "C", "D")


def build_pair():
    pair = []
    for _ in range(2):
        sdx, *_ = figure1_controller()
        sdx.add_participant("D", 65004)
        sdx.start()
        pair.append(sdx)
    return pair


def random_operation(rng, installed, ports):
    """One operation as ``(label, apply)``, ``apply(sdx)`` performing it on
    either twin. ``installed`` remembers the removable policies (one policy
    object goes to both twins — policies are immutable values)."""
    kind = rng.choice(["out+", "out+", "out-", "in+", "in-", "announce",
                       "withdraw", "export", "suspend", "background"])
    name = rng.choice(NAMES)
    if kind in ("out+", "in+"):
        if kind == "out+":
            predicate = rng.choice([
                match(dstport=rng.choice([80, 443, 22])),
                match(dstip=rng.choice(PREFIXES + [P1, P2])),
                match(),
                match(dstport=80) & ~match(srcip="10.0.0.0/8")])
            policy = predicate >> fwd(
                rng.choice([n for n in NAMES if n != name]))
        else:
            half = rng.choice(["0.0.0.0/1", "128.0.0.0/1"])
            policy = match(srcip=half) >> fwd(ports[name])
        direction = kind[:-1]
        installed.append((direction, name, policy))
        return (f"{name} {kind} {policy!r}", lambda sdx: getattr(
            sdx.participant(name), f"add_{direction}bound")(policy))
    if kind in ("out-", "in-"):
        ours = [item for item in installed if item[0] == kind[:-1]]
        if not ours:
            return None
        item = rng.choice(ours)
        installed.remove(item)
        direction, owner, policy = item
        return (f"{owner} {kind} {policy!r}", lambda sdx: getattr(
            sdx.participant(owner), f"remove_{direction}bound")(policy))
    if kind == "announce":
        prefix = rng.choice(PREFIXES)
        path = AsPath([65000 + NAMES.index(name) + 1,
                       *rng.sample(range(100, 120), rng.randint(0, 2))])
        return (f"{name} announces {prefix}",
                lambda sdx: sdx.announce_route(name, prefix, path))
    if kind == "withdraw":
        prefix = rng.choice(PREFIXES)
        return (f"{name} withdraws {prefix}",
                lambda sdx: sdx.withdraw_route(name, prefix))
    if kind == "export":
        denied = rng.sample([n for n in NAMES if n != name], rng.randint(0, 2))

        def restrict(sdx):
            sdx.route_server.set_export_policy(name, deny=denied)
            sdx.recompile()
        return f"{name} denies {denied}", restrict
    if kind == "suspend":
        def flip(sdx):
            if sdx.policies_suspended:
                sdx.restore_policies()
            else:
                sdx.suspend_policies()
        return "suspend/restore", flip
    return ("background recompilation",
            lambda sdx: sdx.run_background_recompilation())


def observable(sdx):
    return (
        [(rule.priority, rule.match, rule.actions) for rule in sdx.table.rules],
        {(group.prefixes, sdx.allocator.vmac_for_group(group.group_id))
         for group in sdx.allocator.groups()},
        {prefix: sdx.allocator.vmac_for_prefix(prefix)
         for prefix in sdx.allocator.ephemeral_prefixes()})


@pytest.mark.parametrize("seed", range(12))
def test_reuse_is_indistinguishable_from_recompiling_everything(seed):
    rng = random.Random(seed)
    shipped, forgetful = build_pair()
    taken = [check_block_deltas(sdx) for sdx in (shipped, forgetful)]
    ports = {name: shipped.participant(name).port(0) for name in NAMES}
    installed = []
    history = []
    for _ in range(30):
        operation = random_operation(rng, installed, ports)
        if operation is None:
            continue
        label, apply = operation
        history.append(label)
        apply(shipped)
        forgetful.compiler.invalidate_inbound_cache()
        apply(forgetful)
        assert observable(shipped) == observable(forgetful), history
    # The run exercised reuse at all, and the block diff with it.
    assert any(count for (_stage, outcome), count
               in reuse_counts(shipped).items() if outcome == "hit")
    assert taken[0]["block"] and not taken[0]["fallback"]


# ----------------------------------------------------------------------
# Soundness at scale: patching == a cold compile, on a generated exchange
# ----------------------------------------------------------------------

BGP_STEPS = {"burst", "withdraw", "reannounce", "community", "stuck"}


class Twins:
    """A generated 40-member exchange with the Section 6.1 policy mix,
    twice: as shipped, and with a compiler that forgets everything before
    every compilation — and must then miss at every stage it runs."""

    def __init__(self, seed, prefixes=400):
        from repro.workloads import (
            generate_burst_trace, generate_ixp, generate_policies)
        from repro.workloads.policies import install_assignments
        self.rng = random.Random(seed)
        self.ixp = generate_ixp(40, prefixes, seed=3)
        self.pair = []
        for _ in range(2):
            sdx = self.ixp.build_controller(with_dataplane=False)
            install_assignments(sdx, generate_policies(self.ixp, seed=4))
            sdx.start()
            self.pair.append(sdx)
        self.shipped, self.forgetful = self.pair
        self._forget_before_every_compile(self.forgetful)
        self.trace = iter([event.update for event in generate_burst_trace(
            self.ixp, bursts=40, burst_size=20, hot_prefixes=10, seed=seed)])
        self.names = [spec.name for spec in self.ixp.participants]
        self.policies, self.withdrawn, self.down = [], [], []
        self.joined = 0

    @staticmethod
    def _forget_before_every_compile(sdx):
        compile_ = sdx.compiler.compile

        def cold():
            sdx.compiler.invalidate_inbound_cache()
            before = reuse_counts(sdx)
            result = compile_()
            after = reuse_counts(sdx)
            assert all(after[stage, "hit"] == before[stage, "hit"]
                       for stage in REUSE_STAGES)
            assert all(after[stage, "miss"] > before[stage, "miss"]
                       for stage in ("groups", "defaults", "composition"))
            return result

        sdx.compiler.compile = cold

    def touched(self):
        return sorted(prefix for group in self.shipped.last_compilation.groups
                      for prefix in group.prefixes)

    def both(self, action):
        for sdx in self.pair:
            action(sdx)

    def operation(self):
        """Draw one operation: ``(kind, apply)`` or ``None``."""
        rng, server = self.rng, self.shipped.route_server
        up = [name for name in self.names if name not in self.down]
        kind = rng.choice([
            "burst", "burst", "burst", "withdraw", "reannounce", "context+",
            "context-", "pinned", "negated", "export", "community", "reset",
            "fail", "recover", "stuck", "join", "leave"])
        if kind == "burst":
            updates = [update for update in (next(self.trace) for _ in range(20))
                       if update.sender not in self.down]

            def burst(sdx):
                for update in updates:
                    sdx.submit_update(update)
                sdx.run_background_recompilation()
            return kind, burst
        if kind == "withdraw":  # to nothing: every announcer lets go
            prefix = rng.choice(self.touched())
            routes = server.ranked_routes(prefix)
            self.withdrawn.append(routes)

            def withdraw(sdx):
                for route in routes:
                    sdx.withdraw_route(route.learned_from, prefix)
                sdx.run_background_recompilation()
            return kind, withdraw
        if kind == "reannounce":
            if not self.withdrawn:
                return None
            routes = [route for route in self.withdrawn.pop()
                      if route.learned_from not in self.down]

            def reannounce(sdx):
                for route in routes:
                    sdx.submit_update(Update.announce(
                        route.learned_from, route.prefix, route.attributes))
                sdx.run_background_recompilation()
            return kind, reannounce
        if kind in ("context+", "pinned", "negated"):
            holder = rng.choice([p for p in self.shipped.topology.participants()
                                 if p.outbound_clauses()])
            targets = [name for name in up if name != holder.name
                       and (kind != "context+"
                            or name not in holder.outbound_targets())
                       and server.reachable_prefix_set(holder.name, via=name)]
            if not targets:
                return None
            target = rng.choice(targets)
            predicate = match(dstport=rng.randrange(1024, 4096))
            if kind == "pinned":
                predicate = predicate & match(dstip=rng.choice(
                    server.reachable_prefixes(holder.name, via=target)))
            if kind == "negated":
                predicate = predicate & ~match(srcip="10.0.0.0/8")
            policy = predicate >> fwd(target)
            self.policies.append((holder.name, policy))
            return kind, lambda sdx: sdx.participant(
                holder.name).add_outbound(policy)
        if kind == "context-":  # often the last clause toward its target
            if not self.policies:
                return None
            holder, policy = self.policies.pop(
                rng.randrange(len(self.policies)))
            return kind, lambda sdx: sdx.participant(
                holder).remove_outbound(policy)
        if kind == "export":
            name = rng.choice(up)
            denied = rng.sample([n for n in self.names if n != name],
                                rng.randint(0, 3))

            def restrict(sdx):
                sdx.route_server.set_export_policy(name, deny=denied)
                sdx.recompile()
            return kind, restrict
        if kind == "community":  # sticky, announcer-wide (trap ii)
            route = rng.choice(server.ranked_routes(
                rng.choice(self.touched())))
            if route.learned_from in self.down:
                return None
            blocked = self.ixp.by_name(rng.choice(
                [n for n in self.names if n != route.learned_from])).asn

            def tag(sdx):
                sdx.announce_route(
                    route.learned_from, route.prefix,
                    route.attributes.as_path, communities=[(0, blocked)])
                sdx.run_background_recompilation()
            return kind, tag
        if kind in ("reset", "fail"):
            name = rng.choice(up)
            if kind == "fail":
                self.down.append(name)

            def tear_down(sdx):
                getattr(sdx.route_server, {"reset": "reset_session",
                                           "fail": "fail_peer"}[kind])(name)
                sdx.run_background_recompilation()
            return kind, tear_down
        if kind == "recover":
            if not self.down:
                return None
            name = self.down.pop()
            routes = [(prefix, path) for sender, prefix, path
                      in self.ixp.announcements if sender == name]

            def recover(sdx):
                sdx.route_server.recover_peer(name)
                for prefix, path in routes:
                    sdx.announce_route(name, prefix, path)
                sdx.run_background_recompilation()
            return kind, recover
        if kind == "stuck":  # the RIB moves, nobody is told (trap iv)
            route = rng.choice(server.ranked_routes(
                rng.choice(self.touched())))
            if route.learned_from in self.down:
                return None
            update = Update.withdraw(route.learned_from, route.prefix)

            def stuck(sdx):
                sdx.route_server.inject_unnotified(update)
                sdx.recompile()
            return kind, stuck
        if kind == "join":
            self.joined += 1
            name, asn = f"NEW{self.joined}", 64000 + self.joined
            prefix = rng.choice(self.touched())

            def join(sdx):
                sdx.add_participant(name, asn)
                sdx.announce_route(name, prefix, AsPath([asn, 7]))
                sdx.recompile()
            return kind, join
        if kind == "leave":
            if not self.joined or f"NEW{self.joined}" not in server.peers():
                return None
            name = f"NEW{self.joined}"

            def leave(sdx):
                sdx.route_server.remove_peer(name)
                sdx.recompile()
            return kind, leave
        raise AssertionError(kind)


@pytest.mark.parametrize("seed", range(12))
def test_patching_is_indistinguishable_from_a_cold_compile_at_scale(seed):
    twins = Twins(seed)
    taken = [check_block_deltas(sdx) for sdx in twins.pair]
    history, patched = [], 0
    while len(history) < 40:
        drawn = twins.operation()
        if drawn is None:
            continue
        kind, apply = drawn
        history.append(kind)
        table = len(twins.touched())
        twins.both(apply)
        assert observable(twins.shipped) == observable(twins.forgetful), history
        if kind in BGP_STEPS:  # the shipped arm really patched
            assert compile_work(twins.shipped)["dirty_prefixes"] < table, history
            patched += 1
    assert patched
    assert taken[0]["block"] and not taken[0]["fallback"]


@pytest.mark.parametrize("prefixes", [400, 1600])
def test_a_burst_costs_a_burst_sized_recompile(prefixes, monkeypatch):
    """Work counts, not timings: after a burst naming k prefixes the
    recompilation regroups those prefixes and runs the export predicate
    for them and the groups they changed — not once per policy-touched
    prefix, whatever the table size — and ranks nothing: the burst's own
    writes did."""
    from repro.bgp.routeserver import RouteServer
    twins = Twins(0, prefixes)
    sdx = twins.shipped
    registry = sdx.telemetry.registry
    before = sdx.last_compilation
    updates = [next(twins.trace) for _ in range(20)]
    for update in updates:
        sdx.submit_update(update)
    shadows = len(shadow_rules(sdx))
    named = {prefix for update in updates for prefix in update.prefixes}
    exported = []
    route_exported = RouteServer.route_exported
    monkeypatch.setattr(
        RouteServer, "route_exported",
        lambda *args: exported.append(1) or route_exported(*args))
    runs = registry.get("sdx_bgp_decision_runs_total").value
    sdx.run_background_recompilation()
    runs = registry.get("sdx_bgp_decision_runs_total").value - runs
    work = compile_work(sdx)
    touched = sum(map(len, sdx.last_compilation.groups))
    members = len(sdx.topology.participants())
    assert work["dirty_prefixes"] == len(named)
    assert runs == 0
    assert len(exported) <= members * (len(named) + work["groups_rebuilt"])
    # The table is many times the burst: none of this is per touched prefix.
    assert len(named) + work["groups_rebuilt"] < touched / 4
    # Numbering and keying are per tag that moved: a tag whose group (its
    # prefixes, its signature — which holders may use it) stands keeps its
    # numbered rules and its block, the very object.
    after = sdx.last_compilation
    moved = tags_that_moved(sdx, before, after)
    of_moved = sum(rule.match.get("dstmac") in moved
                   for result in (before, after) for rule in result.rules)
    assert 0 < work["rules_numbered"] <= of_moved
    # The fast path's shadow rules are deleted as they are, unkeyed.
    assert shadows and 0 < keyed(sdx) <= of_moved
    if prefixes >= 1600:
        assert max(work["rules_numbered"], keyed(sdx)) < len(after.rules) / 4


def tags_that_moved(sdx, before, after):
    """The VMACs of groups that came, went, or changed prefixes or
    signature between two compilations."""
    old = {vmac: group for vmac, group in zip(
        before.reuse["defaults", None][1].pieces, before.groups)}
    new = {vmac: group for vmac, group in zip(
        after.reuse["defaults", None][1].pieces, after.groups)}
    return {vmac for vmac in old.keys() | new.keys()
            if vmac not in old or vmac not in new
            or (old[vmac].prefixes, old[vmac].signature)
            != (new[vmac].prefixes, new[vmac].signature)}


@pytest.mark.parametrize("prefixes", [1000, 2000])
def test_a_cold_compile_asks_per_class_and_a_write_ranks_once(
        prefixes, monkeypatch):
    """Work counts, not timings, at 60 members: a cold compile ranks
    nothing, and its grouping runs the export predicate at most once per
    context for each distinct tuple of ranked export classes — a number
    the prefix count does not enter; an inline update ranks each prefix it
    changes once, and the decisions around it rank nothing."""
    from repro.bgp.routeserver import RouteServer
    from repro.core.fec import compute_prefix_groups
    from repro.workloads import generate_ixp, generate_policies, generate_trace
    from repro.workloads.policies import install_assignments
    ixp = generate_ixp(60, prefixes, seed=3)
    sdx = ixp.build_controller(with_dataplane=False)
    install_assignments(sdx, generate_policies(ixp, seed=4))
    sdx.start()
    server, participants = sdx.route_server, sdx.topology.participants()
    runs = sdx.telemetry.registry.get("sdx_bgp_decision_runs_total")
    loaded = runs.value
    assert loaded == sum(len(server.announced_by(p.name)) for p in participants)

    sdx.compiler.invalidate_inbound_cache()
    cold = sdx.compiler.compile()
    assert runs.value == loaded
    touched = sum(map(len, cold.groups))

    exported = []
    route_exported = RouteServer.route_exported
    monkeypatch.setattr(
        RouteServer, "route_exported",
        lambda *args: exported.append(1) or route_exported(*args))
    assert [g.prefixes for g in compute_prefix_groups(participants, server)] \
        == [g.prefixes for g in cold.groups]
    monkeypatch.undo()
    contexts = {(p.name, target) for p in participants
                for target in p.outbound_targets()}
    classes = {tuple(entry.export_class for entry in server.ranked_routes(p))
               for p in server.all_prefixes()}
    assert 0 < len(exported) <= len(classes) * len(contexts)
    assert len(exported) < touched / 2  # the parent: >= 1 per touched prefix

    for event in generate_trace(ixp, max_updates=40, seed=5):
        update = event.update
        stored = {entry.prefix: entry
                  for entry in server.routes_from(update.sender)}
        before = runs.value
        sdx.submit_update(update)
        now = {entry.prefix: entry
               for entry in server.routes_from(update.sender)}
        changed = [prefix for prefix in set(update.prefixes)
                   if stored.get(prefix) != now.get(prefix)]
        assert runs.value - before == len(changed), update


def test_a_compile_that_raises_leaves_the_kept_result_as_it_was(monkeypatch):
    """Patching is transactional: a compilation that dies in the
    default-piece builder changes nothing of what the previous result
    keeps, and the next one still equals a cold compile."""
    from repro.core import compiler as compiler_module
    twins = Twins(1)
    sdx = twins.shipped
    for _ in range(20):
        sdx.submit_update(next(twins.trace))
    gone = twins.touched()[0]  # withdrawn to nothing: its group changes
    for route in sdx.route_server.ranked_routes(gone):
        sdx.withdraw_route(route.learned_from, gone)

    def snapshot():
        reuse = sdx.last_compilation.reuse
        _groups, grouping, _by_context = reuse["groups", None][1]
        return (dict(reuse), sorted(grouping.signatures.items()),
                dict(grouping.groups), dict(reuse["defaults", None][1].pieces),
                dict(reuse["composition", None][1].units))

    before = snapshot()
    build = compiler_module.build_default_forwarding

    def dies_midway(*args):
        yield next(build(*args))  # one group's piece is built, then:
        raise RuntimeError("mid-compile")

    monkeypatch.setattr(compiler_module, "build_default_forwarding", dies_midway)
    with pytest.raises(RuntimeError, match="mid-compile"):
        sdx.run_background_recompilation()
    monkeypatch.undo()
    assert snapshot() == before
    assert sdx.compiler._last() is sdx.last_compilation

    patched = sdx.run_background_recompilation()
    assert compile_work(sdx)["dirty_prefixes"] < sum(map(len, patched.groups))
    sdx.compiler.invalidate_inbound_cache()
    cold = sdx.compiler.compile()
    assert cold.classifier.rules == patched.classifier.rules
    assert cold.groups == patched.groups


# ----------------------------------------------------------------------
# The block diff: what the twins do not reach, and what a change keys
# ----------------------------------------------------------------------


def shadow_rules(sdx):
    return [rule for rule in sdx.table.rules if rule.priority >= PRIORITY_CEILING]


class TestTheBlockDiff:
    """Each case holds every sync to ``compute_delta`` over the live table
    and the queue, and ends with the table the compilation."""

    def test_shadow_rules_on_the_table_are_reclaimed(self, started):
        sdx = started[0]
        taken = check_block_deltas(sdx)
        sdx.announce_route("C", P1, AsPath([65003, 100, 7]))
        assert shadow_rules(sdx)
        sdx.run_background_recompilation()
        assert taken == {"block": 1}
        assert not shadow_rules(sdx)
        assert check_table_is_compilation(sdx) == []

    def test_pushes_pending_in_a_deferred_window_are_reclaimed(self, started):
        sdx = started[0]
        taken = check_block_deltas(sdx)
        with sdx.southbound.deferred():
            sdx.announce_route("C", P1, AsPath([65003, 100, 7]))
            assert sdx.southbound.pending and not shadow_rules(sdx)
            sdx.run_background_recompilation()
        assert taken == {"block": 1}
        assert not shadow_rules(sdx) and not sdx.southbound.pending
        assert check_table_is_compilation(sdx) == []

    def test_a_rule_written_straight_into_the_table_takes_the_fallback(
            self, started):
        sdx, a, *_ = started
        taken = check_block_deltas(sdx)
        strays = [FlowRule(DEFAULT_BAND_TOP - 7, HeaderSpace(dstport=9),
                           (Action(port=1),)),
                  FlowRule(PRIORITY_CEILING + 7, HeaderSpace(dstport=9), ())]
        for rule in strays:
            sdx.table.install(rule)
        a.add_outbound(match(dstport=8080) >> fwd("B"))
        assert taken == {"fallback": 1}
        assert not set(strays) & set(sdx.table.rules)
        assert check_table_is_compilation(sdx) == []
        # Reclaimed: the engine knows the table again.
        a.add_outbound(match(dstport=8081) >> fwd("B"))
        assert taken == {"fallback": 1, "block": 1}


class TestWhatAChangeKeys:
    """Work counts at the generated 40 x 400 exchange."""

    def test_a_one_clause_change_keys_its_block_and_its_ports_exceptions(
            self):
        sdx = Twins(0).shipped
        holder = sdx.topology.policy_holders()[0]
        target = holder.outbound_targets()[0]
        ports = set(holder.switch_ports)
        before, generation = sdx.last_compilation, sdx.allocator.generation

        def on_its_ports(result):  # its block and its exceptions
            return sum(rule.match.get("port") in ports for rule in result.rules)

        change = misses(sdx, lambda: sdx.participant(holder.name).add_outbound(
            match(dstport=4321) >> fwd(target)))
        after = sdx.last_compilation
        assert change == {"outbound": 1, "composition": 1, "reduction": 1}
        assert sdx.allocator.generation == generation
        assert 0 < keyed(sdx) <= on_its_ports(before) + on_its_ports(after)
        # Keying both tables whole, as the fallback does, is 5x as much.
        assert 5 * keyed(sdx) < len(before.rules) + len(after.rules)
        assert sdx.engine.last_delta.unchanged == len(before.rules)

    def test_a_recompile_after_one_update_keeps_most_holders_blocks(self):
        twins = Twins(0)
        sdx, server = twins.shipped, twins.shipped.route_server
        holders = sdx.topology.policy_holders()
        holder, target = next(
            (holder, target) for holder in holders
            for target in holder.outbound_targets()
            if not any(target in other.outbound_targets()
                       for other in holders if other is not holder))
        prefix = next(prefix for prefix in twins.touched() if prefix
                      not in server.reachable_prefix_set(holder.name, via=target))
        asn = sdx.topology.participant(target).asn

        def one_update():  # the holder may now reach the prefix via target
            sdx.announce_route(target, prefix, AsPath([asn, 7, 8, 9]))
            sdx.run_background_recompilation()

        change = misses(sdx, one_update)
        assert compile_work(sdx)["dirty_prefixes"] == 1
        # Only the holder whose tags it moved rebuilds its block.
        assert change["outbound"] == 1 < len(holders)
        assert change["reduction"] == 2  # that block and the default layer

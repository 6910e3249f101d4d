"""Stage reuse in the compiler: what a change rebuilds, and that reusing is
indistinguishable from recompiling everything.

Work is read off ``sdx_compile_reuse_total{stage, outcome}`` — counts, not
timings. Soundness is a twin run: the same random operations on a
controller as shipped and on one that forgets every stage result before
each of them must leave the same rules in the same order and the same
VNH partition after every step.
"""

import random

import pytest

from repro.bgp.asn import AsPath
from repro.core.compiler import REUSE_STAGES
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import drop, fwd, match

from tests.core.scenarios import P1, P2, figure1_controller

ALL = {"rankings", "groups", "defaults", "inbound", "stage2", "outbound",
       "composition", "reduction"}


def reuse_counts(sdx):
    registry = sdx.telemetry.registry
    return {(stage, outcome): registry.get(
                "sdx_compile_reuse_total", stage=stage, outcome=outcome).value
            for stage in REUSE_STAGES for outcome in ("hit", "miss")}


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

        def announce():
            sdx.announce_route("C", P1, AsPath([65003, 100, 7]))
            sdx.run_background_recompilation()

        change = misses(sdx, announce)
        assert set(change) == ALL - {"inbound", "stage2"}

    def test_export_policy_rebuilds_what_reads_routing(self, started):
        sdx = started[0]

        def restrict():
            sdx.route_server.set_export_policy("C", deny=["A"])
            sdx.recompile()

        assert set(misses(sdx, restrict)) == ALL - {"inbound", "stage2"}

    def test_new_participant_rebuilds_all_but_the_others_pipelines(
            self, started):
        sdx = started[0]

        def join():
            sdx.add_participant("F", 65006)
            sdx.recompile()

        change = misses(sdx, join)
        assert set(change) == ALL
        assert change["inbound"] == 1

    def test_suspend_and_restore(self, started):
        sdx = started[0]
        suspended = misses(sdx, sdx.suspend_policies)
        # Only B had an inbound policy to mask; no outbound part is left.
        assert suspended["inbound"] == 1
        assert "outbound" not in suspended and "rankings" not in suspended
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
    # The run exercised reuse at all.
    assert any(count for (_stage, outcome), count
               in reuse_counts(shipped).items() if outcome == "hit")

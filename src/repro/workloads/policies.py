"""The Section 6.1 policy generator: eyeball / transit / content mixes.

From the paper: "the top 15% of eyeball ASes, the top 5% of transit
ASes, and a random set of 5% of content ASes install custom policies",
where

* **content providers** install outbound policies for three randomly
  chosen top eyeball networks, plus one inbound policy matching one
  header field;
* **eyeball networks** install inbound policies for half of the content
  providers, matching one randomly selected header field, and no
  outbound policies;
* **transit networks** install outbound policies for one prefix group
  for half of the top eyeball networks (destination prefix plus one
  header field) and inbound policies proportional to the number of top
  content providers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.controller import SdxController
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import Policy, drop, fwd, match
from repro.workloads.seeding import SeedLike, derive_seed, make_rng
from repro.workloads.topology import ParticipantSpec, SyntheticIxp, generate_ixp

#: Single-field match options used by the generator (field, values).
_FIELD_CHOICES: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("dstport", (80, 443, 8080, 1935, 53)),
    ("srcport", (80, 443, 123, 53)),
    ("protocol", (6, 17)),
)

#: Fractions of each category that install custom policies (Section 6.1).
POLICY_FRACTIONS = {"eyeball": 0.15, "transit": 0.05, "content": 0.05}


@dataclass(frozen=True)
class PolicyAssignment:
    """One generated policy: who installs it, which direction, and why."""

    participant: str
    direction: str  # "in" or "out"
    policy: Policy
    description: str

    def install(self, controller: SdxController) -> None:
        """Install the policy on a controller hosting the participant."""
        install_assignments(controller, [self])


def _single_field_match(rng: random.Random):
    field, values = rng.choice(_FIELD_CHOICES)
    value = rng.choice(values)
    return match(**{field: value}), f"{field}={value}"


def _source_half_match(rng: random.Random):
    half = rng.choice(("0.0.0.0/1", "128.0.0.0/1"))
    return match(srcip=half), f"srcip={half}"


def _policy_installers(ixp: SyntheticIxp,
                       rng: random.Random) -> Tuple[List[ParticipantSpec], ...]:
    eyeballs = [p for p in ixp.participants if p.category == "eyeball"]
    transits = [p for p in ixp.participants if p.category == "transit"]
    contents = [p for p in ixp.participants if p.category == "content"]
    eyeballs.sort(key=lambda p: (-len(p.prefixes), p.name))
    transits.sort(key=lambda p: (-len(p.prefixes), p.name))
    top_eyeballs = eyeballs[:max(1, round(len(eyeballs) * POLICY_FRACTIONS["eyeball"]))]
    top_transits = transits[:max(1, round(len(transits) * POLICY_FRACTIONS["transit"]))]
    content_count = max(1, round(len(contents) * POLICY_FRACTIONS["content"]))
    chosen_content = rng.sample(contents, k=min(content_count, len(contents))) \
        if contents else []
    return top_eyeballs, top_transits, chosen_content


def generate_policies(ixp: SyntheticIxp, *, seed: SeedLike = 0,
                      prefix_sample: Optional[Sequence[IPv4Prefix]] = None
                      ) -> List[PolicyAssignment]:
    """The Section 6.1 policy mix for a synthetic IXP.

    ``prefix_sample``, when given, restricts transit destination-prefix
    policies to that set (the Figure 6 experiments sweep how many
    prefixes have policies applied). ``seed`` is an int or a
    :class:`random.Random`.
    """
    rng = make_rng(seed)
    top_eyeballs, top_transits, chosen_content = _policy_installers(ixp, rng)
    assignments: List[PolicyAssignment] = []

    # Content providers: 3 outbound toward top eyeballs + 1 inbound.
    for content in chosen_content:
        targets = rng.sample(top_eyeballs, k=min(3, len(top_eyeballs)))
        for target in targets:
            if target.name == content.name:
                continue
            predicate, label = _single_field_match(rng)
            assignments.append(PolicyAssignment(
                participant=content.name, direction="out",
                policy=predicate >> fwd(target.name),
                description=f"content {content.name}: {label} -> {target.name}"))
        predicate, label = _single_field_match(rng)
        assignments.append(PolicyAssignment(
            participant=content.name, direction="in",
            policy=predicate,
            description=f"content {content.name}: inbound {label}"))

    # Eyeballs: inbound policies for half of the content providers.
    for eyeball in top_eyeballs:
        count = max(1, len(chosen_content) // 2) if chosen_content else 1
        for _ in range(count):
            if rng.random() < 0.5:
                predicate, label = _source_half_match(rng)
            else:
                predicate, label = _single_field_match(rng)
            port_index = rng.randrange(eyeball.ports)
            assignments.append(PolicyAssignment(
                participant=eyeball.name, direction="in",
                policy=predicate >> _own_port_fwd(eyeball, port_index),
                description=f"eyeball {eyeball.name}: inbound {label} "
                            f"-> port {port_index}"))

    # Transit: outbound (prefix + field) for half the top eyeballs,
    # inbound proportional to content providers.
    eligible_prefixes = list(prefix_sample) if prefix_sample is not None else None
    for transit in top_transits:
        targets = top_eyeballs[:max(1, len(top_eyeballs) // 2)]
        for target in targets:
            if target.name == transit.name or not target.prefixes:
                continue
            pool = [p for p in target.prefixes
                    if eligible_prefixes is None or p in eligible_prefixes]
            if not pool:
                continue
            prefix = rng.choice(pool)
            predicate, label = _single_field_match(rng)
            assignments.append(PolicyAssignment(
                participant=transit.name, direction="out",
                policy=(match(dstip=prefix) & predicate) >> fwd(target.name),
                description=f"transit {transit.name}: {prefix} & {label} "
                            f"-> {target.name}"))
        for _ in range(max(1, len(chosen_content))):
            predicate, label = _single_field_match(rng)
            assignments.append(PolicyAssignment(
                participant=transit.name, direction="in",
                policy=predicate,
                description=f"transit {transit.name}: inbound {label}"))

    return assignments


#: Symbolic target prefix meaning "my own interface number N"; resolved
#: against real switch-port numbers when the policy is installed.
_SELF_PORT = "@self:"


def _own_port_fwd(spec: ParticipantSpec, port_index: int) -> Policy:
    """A forward to the installer's own interface ``port_index``.

    Emitted symbolically because concrete switch-port numbers exist only
    once the participant is attached to a controller.
    """
    return fwd(f"{_SELF_PORT}{port_index}")


def install_assignments(controller: SdxController,
                        assignments: Sequence[PolicyAssignment]) -> int:
    """Install generated assignments on a controller; returns the count.

    Symbolic own-port forwards are resolved against the controller's
    actual port numbering here.
    """
    installed = 0
    for assignment in assignments:
        handle = controller.participant(assignment.participant)
        policy = assignment.policy
        own_ports = handle.participant.switch_ports
        mapping = {
            f"{_SELF_PORT}{index}": handle.port(min(index, len(own_ports) - 1))
            for index in range(4)
        } if own_ports else {}
        policy = policy.substitute_ports(mapping)
        if assignment.direction == "out":
            handle.participant.add_outbound(policy)
        else:
            handle.participant.add_inbound(policy)
        installed += 1
    return installed


def loaded_exchange(participants: int, prefixes: int, *, seed: int = 0,
                    policy_seed: Optional[int] = None, start: bool = True,
                    **kwargs: Any) -> Tuple[SdxController, SyntheticIxp]:
    """A generated exchange running its generated Section 6.1 policies.

    Generates the IXP from ``seed``, builds its controller with
    ``kwargs``, installs the policies drawn from ``policy_seed``
    (default ``seed + 1``) and, with ``start``, compiles and installs
    the initial table. Returns ``(controller, ixp)``.
    """
    ixp = generate_ixp(participants, prefixes, seed=seed)
    controller = ixp.build_controller(**kwargs)
    install_assignments(controller, generate_policies(
        ixp, seed=seed + 1 if policy_seed is None else policy_seed))
    if start:
        controller.start()
    return controller, ixp


# ----------------------------------------------------------------------
# Seeded defect injection (static-analyzer recall testing)
# ----------------------------------------------------------------------

#: Destination ports the Section 6.1 generator never emits; injectors
#: draw from these so an injected clause cannot collide with workload
#: policies (which would change which clause a diagnostic lands on).
_DEFECT_PORTS: Tuple[int, ...] = (2049, 4443, 5432, 6379, 7077, 9090)

#: Documentation prefixes (RFC 5737) — never announced by any workload
#: generator, so a forward pinned to one is route-less by construction.
_UNROUTED_PREFIXES: Tuple[str, ...] = (
    "192.0.2.0/24", "198.51.100.0/24", "203.0.113.0/24")

#: The check ID each injector's defect must be reported under.
DEFECT_KINDS: Tuple[str, ...] = (
    "shadowed_clause", "routeless_forward", "isolation_violation",
    "blackhole", "field_sanity", "unreachable_default")


@dataclass(frozen=True)
class InjectedDefect:
    """One seeded defect and where the analyzer must report it."""

    kind: str
    check_id: str
    participant: str
    direction: str
    description: str
    clause_index: Optional[int] = None
    document: Optional[Dict[str, Any]] = None
    document_index: Optional[int] = None
    prefix: Optional[str] = None

    def matches(self, diagnostic) -> bool:
        """True if ``diagnostic`` reports exactly this defect."""
        if diagnostic.check_id != self.check_id:
            return False
        location = diagnostic.location
        if location.participant != self.participant:
            return False
        if (self.clause_index is not None
                and location.clause_index != self.clause_index):
            return False
        if (self.document_index is not None
                and location.document_index != self.document_index):
            return False
        if self.prefix is not None:
            data = dict(diagnostic.data)
            if self.prefix not in data.get("prefixes", ()):
                return False
        return True


def defect_detected(defect: InjectedDefect, report) -> bool:
    """True if ``report`` contains a diagnostic for ``defect``."""
    return any(defect.matches(diag) for diag in report.diagnostics)


def _physical_names(controller: SdxController) -> List[str]:
    return sorted(
        p.name for p in controller.topology.participants() if not p.is_remote)


def _reachable_pairs(controller: SdxController) -> List[Tuple[str, str]]:
    """(sender, target) pairs where the target eligibly exports >=1 prefix."""
    server = controller.route_server
    names = _physical_names(controller)
    peers = set(server.peers())
    pairs: List[Tuple[str, str]] = []
    for sender in names:
        for target in sorted(peers - {sender}):
            if server.reachable_prefixes(sender, via=target):
                pairs.append((sender, target))
    return pairs


def _fresh_port(controller: SdxController, rng: random.Random,
                *participants: str) -> int:
    """A defect port no existing clause of ``participants`` matches on."""
    used = set()
    for name in participants:
        p = controller.topology.participant(name)
        clauses = list(p.inbound_clauses())
        if not p.is_remote:
            clauses.extend(p.outbound_clauses())
        for clause in clauses:
            used.update(
                value for _f, value in _walk_dstports(clause.predicate))
    candidates = [port for port in _DEFECT_PORTS if port not in used]
    if not candidates:
        raise ValueError(
            f"no fresh defect port available for {participants!r}")
    return rng.choice(candidates)


def _walk_dstports(predicate) -> List[Tuple[str, int]]:
    from repro.policy.policies import Match

    found: List[Tuple[str, int]] = []
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, Match) and "dstport" in node.space:
            found.append(("dstport", node.space["dstport"]))
        stack.extend(node.children())
    return found


def inject_shadowed_clause(controller: SdxController, *,
                           seed: SeedLike = 0) -> InjectedDefect:
    """Install a clause fully shadowed by the one before it (SDX001)."""
    rng = make_rng(seed)
    pairs = _reachable_pairs(controller)
    if not pairs:
        raise ValueError("no (sender, target) pair with eligible prefixes")
    sender, target = rng.choice(pairs)
    port = _fresh_port(controller, rng, sender)
    participant = controller.topology.participant(sender)
    participant.add_outbound(match(dstport=port) >> fwd(target))
    participant.add_outbound(
        (match(dstport=port) & match(protocol=6)) >> fwd(target))
    index = len(participant.outbound_clauses()) - 1
    return InjectedDefect(
        kind="shadowed_clause", check_id="SDX001",
        participant=sender, direction="out", clause_index=index,
        description=f"{sender}: clause #{index} (dstport={port} & protocol=6 "
                    f"-> {target}) shadowed by #{index - 1}")


def inject_routeless_forward(controller: SdxController, *,
                             seed: SeedLike = 0) -> InjectedDefect:
    """Install a fwd() whose match region the BGP join erases (SDX003)."""
    rng = make_rng(seed)
    server = controller.route_server
    announced = server.all_prefixes()
    candidates = [
        IPv4Prefix(text) for text in _UNROUTED_PREFIXES
        if all(IPv4Prefix(text).intersection(p) is None for p in announced)
    ]
    if not candidates:
        raise ValueError("no unannounced documentation prefix available")
    unrouted = rng.choice(candidates)
    names = _physical_names(controller)
    peers = set(server.peers())
    options = [
        (sender, target)
        for sender in names for target in sorted(peers - {sender})
    ]
    if not options:
        raise ValueError("need at least two peers to inject a forward")
    sender, target = rng.choice(options)
    participant = controller.topology.participant(sender)
    participant.add_outbound(match(dstip=unrouted) >> fwd(target))
    index = len(participant.outbound_clauses()) - 1
    return InjectedDefect(
        kind="routeless_forward", check_id="SDX003",
        participant=sender, direction="out", clause_index=index,
        description=f"{sender}: clause #{index} forwards {unrouted} to "
                    f"{target}, which exports no covering route")


def inject_blackhole(controller: SdxController, *,
                     seed: SeedLike = 0) -> InjectedDefect:
    """Steer one sender's traffic into a peer whose inbound drops it
    (SDX005)."""
    rng = make_rng(seed)
    pairs = _reachable_pairs(controller)
    if not pairs:
        raise ValueError("no (sender, target) pair with eligible prefixes")
    sender, target = rng.choice(pairs)
    port = _fresh_port(controller, rng, sender, target)
    egress = controller.topology.participant(target)
    egress.add_inbound(match(dstport=port) >> drop)
    participant = controller.topology.participant(sender)
    participant.add_outbound(match(dstport=port) >> fwd(target))
    index = len(participant.outbound_clauses()) - 1
    return InjectedDefect(
        kind="blackhole", check_id="SDX005",
        participant=sender, direction="out", clause_index=index,
        description=f"{sender}: clause #{index} steers dstport={port} into "
                    f"{target}, whose inbound drops it")


def inject_unreachable_default(controller: SdxController, *,
                               seed: SeedLike = 0) -> InjectedDefect:
    """Deny one participant the only route toward a prefix (SDX007)."""
    rng = make_rng(seed)
    server = controller.route_server
    names = _physical_names(controller)
    options: List[Tuple[str, str, IPv4Prefix]] = []
    for prefix in server.all_prefixes():
        announcers = {entry.learned_from
                      for entry in server.ranked_routes(prefix)}
        if len(announcers) != 1:
            continue
        announcer = next(iter(announcers))
        for victim in names:
            if victim == announcer:
                continue
            if prefix in server.announced_by(victim):
                continue
            if server.best_route_for(victim, prefix) is None:
                continue  # already unreachable; nothing to inject
            options.append((victim, announcer, prefix))
    if not options:
        raise ValueError("no single-announcer prefix to cut off")
    victim, announcer, prefix = rng.choice(options)
    deny, allow = server.export_policy(announcer)
    server.set_export_policy(
        announcer, deny=set(deny) | {victim}, allow=allow)
    return InjectedDefect(
        kind="unreachable_default", check_id="SDX007",
        participant=victim, direction="out", prefix=str(prefix),
        description=f"{victim}: lost its only route toward {prefix} "
                    f"(export denied by {announcer})")


def inject_isolation_violation(controller: SdxController, *,
                               seed: SeedLike = 0) -> InjectedDefect:
    """A raw policy document matching the SDX virtual-MAC space (SDX004)."""
    rng = make_rng(seed)
    names = _physical_names(controller)
    if not names:
        raise ValueError("no physical participant to attribute the policy to")
    sender = rng.choice(names)
    others = [n for n in names if n != sender] or [sender]
    target = rng.choice(others)
    vmac = f"a2:00:00:00:00:{rng.randrange(256):02x}"
    document = {
        "match": {"kind": "match", "fields": {"dstmac": vmac}},
        "fwd": target,
    }
    return InjectedDefect(
        kind="isolation_violation", check_id="SDX004",
        participant=sender, direction="out", document=document,
        description=f"{sender}: raw policy matches reserved field dstmac "
                    f"({vmac}, inside the VMAC range)")


def inject_field_sanity_defect(controller: SdxController, *,
                               seed: SeedLike = 0) -> InjectedDefect:
    """A raw policy document that fails field/type validation (SDX006)."""
    rng = make_rng(seed)
    names = _physical_names(controller)
    if not names:
        raise ValueError("no physical participant to attribute the policy to")
    sender = rng.choice(names)
    others = [n for n in names if n != sender] or [sender]
    target = rng.choice(others)
    variants: Tuple[Dict[str, Any], ...] = (
        {"match": {"kind": "match", "fields": {"dstprot": "6"}},
         "fwd": target},
        {"match": {"kind": "match", "fields": {"dstport": "-80"}},
         "fwd": target},
        {"match": {"kind": "match", "fields": {"dstip": "10.0.0.0/40"}},
         "fwd": target},
        {"match": {"kind": "match", "fields": {"dstport": "80"}},
         "fwd": target, "drop": True},
    )
    document = rng.choice(variants)
    return InjectedDefect(
        kind="field_sanity", check_id="SDX006",
        participant=sender, direction="out", document=document,
        description=f"{sender}: raw policy fails field/type sanity "
                    f"({document['match']['fields']})")


_INJECTORS = {
    "shadowed_clause": inject_shadowed_clause,
    "routeless_forward": inject_routeless_forward,
    "isolation_violation": inject_isolation_violation,
    "blackhole": inject_blackhole,
    "field_sanity": inject_field_sanity_defect,
    "unreachable_default": inject_unreachable_default,
}


def inject_defects(controller: SdxController, *, seed: SeedLike = 0,
                   kinds: Sequence[str] = DEFECT_KINDS
                   ) -> List[InjectedDefect]:
    """Inject one seeded defect per kind; returns them in ``kinds`` order.

    Raw-document defects get consecutive ``document_index`` values in
    injection order — pass the documents to the analyzer in that same
    order (see :func:`defect_documents`).
    """
    defects: List[InjectedDefect] = []
    document_index = 0
    for kind in kinds:
        try:
            injector = _INJECTORS[kind]
        except KeyError:
            raise ValueError(
                f"unknown defect kind {kind!r}; known: "
                f"{sorted(_INJECTORS)}") from None
        defect = injector(controller, seed=derive_seed(seed, f"defect-{kind}"))
        if defect.document is not None:
            defect = InjectedDefect(
                **{**defect.__dict__, "document_index": document_index})
            document_index += 1
        defects.append(defect)
    return defects


def defect_documents(defects: Sequence[InjectedDefect]):
    """The raw policy documents of ``defects`` as analyzer inputs."""
    from repro.statics.diagnostics import RawPolicyDocument

    documents = []
    for defect in defects:
        if defect.document is None:
            continue
        documents.append(RawPolicyDocument(
            participant=defect.participant, direction=defect.direction,
            clause=defect.document, index=defect.document_index or 0))
    return documents


# ----------------------------------------------------------------------
# Dataplane defect injection (SDX010/SDX012 recall testing)
# ----------------------------------------------------------------------

#: The dataplane-level defect kinds and their check IDs. Unlike the
#: policy-level kinds these corrupt the *installed flow table* (through
#: the southbound engine), so only `repro.statics.dataplane` can see
#: them — the policy analyzer's view is clean by construction.
DATAPLANE_DEFECT_KINDS: Tuple[str, ...] = (
    "compiled_blackhole", "shadowed_install")


def _fresh_table_dstport(controller: SdxController,
                         rng: random.Random) -> int:
    """A defect port no installed rule matches on."""
    used = {rule.match.get("dstport") for rule in controller.table.rules}
    candidates = [port for port in _DEFECT_PORTS if port not in used]
    if not candidates:
        raise ValueError("no fresh defect dstport available in the table")
    return rng.choice(candidates)


def _free_priority(controller: SdxController, priority: int, match) -> int:
    """The highest priority <= ``priority`` whose key is uninstalled."""
    while controller.table.rule_for_key(priority, match) is not None:
        priority -= 1
        if priority <= 0:
            raise ValueError("no free priority below the requested one")
    return priority


def inject_compiled_blackhole(controller: SdxController, *,
                              seed: SeedLike = 0) -> InjectedDefect:
    """Install a rule rewriting traffic to a dead VMAC (SDX012).

    The rule matches an announced prefix plus a fresh destination port at
    a priority just under the fast-path band, and its rewrite targets a
    virtual MAC the allocator never assigned — the compiled-artifact
    analogue of a blackhole: the fabric tags the traffic for a next hop
    that does not exist.
    """
    from repro.core.incremental import FAST_PATH_BASE
    from repro.net.mac import vmac_for_fec
    from repro.policy.classifier import Action
    from repro.policy.flowrules import FlowRule
    from repro.policy.headerspace import HeaderSpace

    rng = make_rng(seed)
    prefixes = sorted(controller.route_server.all_prefixes())
    if not prefixes:
        raise ValueError("no announced prefix to blackhole")
    prefix = rng.choice(prefixes)
    port = _fresh_table_dstport(controller, rng)
    live = set(controller.allocator.vmac_index())
    dead = vmac_for_fec(rng.randrange(500_000, 900_000))
    while dead in live:  # pragma: no cover - astronomically unlikely
        dead = vmac_for_fec(rng.randrange(500_000, 900_000))
    egress_ports = [
        p for participant in controller.topology.participants()
        for p in participant.switch_ports]
    if not egress_ports:
        raise ValueError("no physical participant port for the rewrite")
    space = HeaderSpace(dstip=prefix, dstport=port)
    priority = _free_priority(controller, FAST_PATH_BASE - 1, space)
    rule = FlowRule(priority=priority, match=space,
                    actions=(Action(dstmac=dead, port=rng.choice(egress_ports)),))
    controller.southbound.push_rules([rule])
    return InjectedDefect(
        kind="compiled_blackhole", check_id="SDX012",
        participant="table", direction="rule", clause_index=priority,
        description=f"table: rule #{priority} rewrites {prefix} "
                    f"dstport={port} to dead VMAC {dead}")


def inject_shadowed_install(controller: SdxController, *,
                            seed: SeedLike = 0) -> InjectedDefect:
    """Install a rule fully shadowed by an already-installed one (SDX010).

    Duplicates an installed rule's match at a just-lower priority with
    drop actions: the higher twin wins every packet, so the new rule is
    dead weight — the installed-table analogue of a shadowed clause.
    """
    from repro.policy.flowrules import FlowRule

    rng = make_rng(seed)
    candidates = [rule for rule in controller.table.rules
                  if rule.priority > 1 and len(rule.match)]
    if not candidates:
        raise ValueError("no installed rule to shadow")
    victim = rng.choice(candidates)
    priority = _free_priority(controller, victim.priority - 1, victim.match)
    rule = FlowRule(priority=priority, match=victim.match, actions=())
    controller.southbound.push_rules([rule])
    return InjectedDefect(
        kind="shadowed_install", check_id="SDX010",
        participant="table", direction="rule", clause_index=priority,
        description=f"table: rule #{priority} duplicates the match of "
                    f"rule #{victim.priority} at lower priority")


_DATAPLANE_INJECTORS = {
    "compiled_blackhole": inject_compiled_blackhole,
    "shadowed_install": inject_shadowed_install,
}


def inject_dataplane_defects(controller: SdxController, *,
                             seed: SeedLike = 0,
                             kinds: Sequence[str] = DATAPLANE_DEFECT_KINDS
                             ) -> List[InjectedDefect]:
    """Inject one seeded dataplane defect per kind, in ``kinds`` order.

    The controller must be started (the injectors corrupt the installed
    table). Detection is checked against
    :func:`repro.statics.dataplane.analyze_flowtable` output — or the
    live verifier's incremental report, which must agree byte for byte.
    """
    defects: List[InjectedDefect] = []
    for kind in kinds:
        try:
            injector = _DATAPLANE_INJECTORS[kind]
        except KeyError:
            raise ValueError(
                f"unknown dataplane defect kind {kind!r}; known: "
                f"{sorted(_DATAPLANE_INJECTORS)}") from None
        defects.append(injector(
            controller, seed=derive_seed(seed, f"defect-{kind}")))
    return defects


# ----------------------------------------------------------------------
# Federation defect injection (SDX008/SDX009 recall testing)
# ----------------------------------------------------------------------

#: The federation-level defect kinds and their check IDs.
FEDERATION_DEFECT_KINDS: Tuple[str, ...] = (
    "federation_loop", "stitched_blackhole")


def _federation_fresh_port(federation, rng: random.Random) -> int:
    """A defect port no clause anywhere in the federation matches on."""
    used = set()
    for exchange in federation.exchanges():
        controller = federation.exchange(exchange)
        for participant in controller.topology.participants():
            clauses = list(participant.inbound_clauses())
            if not participant.is_remote:
                clauses.extend(participant.outbound_clauses())
            for clause in clauses:
                used.update(
                    value for _f, value in _walk_dstports(clause.predicate))
    candidates = [port for port in _DEFECT_PORTS if port not in used]
    if not candidates:
        raise ValueError("no fresh defect port available in the federation")
    return rng.choice(candidates)


def _federation_unrouted_prefix(federation, rng: random.Random) -> IPv4Prefix:
    """A documentation prefix no exchange in the federation announces."""
    announced: List[IPv4Prefix] = []
    for exchange in federation.exchanges():
        announced.extend(federation.exchange(exchange)
                         .route_server.all_prefixes())
    candidates = [
        IPv4Prefix(text) for text in _UNROUTED_PREFIXES
        if all(IPv4Prefix(text).intersection(p) is None for p in announced)
    ]
    if not candidates:
        raise ValueError("no unannounced documentation prefix available")
    return rng.choice(candidates)


def _shared_pairs(federation) -> List[Tuple[str, str, str, str]]:
    """(X, Y, A, B) choices: shared X and Y both present at A and B."""
    shared = federation.shared_participants()
    pairs: List[Tuple[str, str, str, str]] = []
    for left in shared:
        for right in shared:
            if right == left:
                continue
            common = [exchange for exchange in federation.presence(left)
                      if exchange in federation.presence(right)]
            if len(common) >= 2:
                pairs.append((left, right, common[0], common[1]))
    return pairs


def inject_federation_loop(federation, *,
                           seed: SeedLike = 0) -> InjectedDefect:
    """Seed the canonical Prelude loop across two exchanges (SDX008).

    Shared participants X and Y each claim transit for a fresh prefix at
    a different exchange; X's outbound at B steers matching traffic into
    Y, Y's outbound at A steers it back into X. Each clause is locally
    valid, and the composed path cycles ``(B,X) -> (A,Y) -> (B,X)``.
    """
    from repro.bgp.asn import AsPath

    rng = make_rng(seed)
    pairs = _shared_pairs(federation)
    if not pairs:
        raise ValueError(
            "need two shared participants with two common exchanges")
    left, right, first, second = rng.choice(pairs)
    prefix = _federation_unrouted_prefix(federation, rng)
    port = _federation_fresh_port(federation, rng)
    left_asn = federation.topology.participant(left).asn
    right_asn = federation.topology.participant(right).asn
    origin_asn = rng.randrange(1_000, 60_000)
    federation.announce_route(
        first, left, prefix, AsPath([left_asn, origin_asn]))
    federation.announce_route(
        second, right, prefix, AsPath([right_asn, origin_asn]))
    clause = match(dstport=port)
    federation.exchange(second).topology.participant(left).add_outbound(
        clause >> fwd(right))
    federation.exchange(first).topology.participant(right).add_outbound(
        clause >> fwd(left))
    anchor = federation.exchange(second).topology.participant(left)
    index = len(anchor.outbound_clauses()) - 1
    return InjectedDefect(
        kind="federation_loop", check_id="SDX008",
        participant=left, direction="out", clause_index=index,
        description=f"{left}: clause #{index} at {second} "
                    f"(dstport={port} -> {right}) composes with "
                    f"{right}'s clause at {first} into the cycle "
                    f"{second}:{left} -> {first}:{right}")


def inject_stitched_blackhole(federation, *,
                              seed: SeedLike = 0) -> InjectedDefect:
    """Seed a cross-exchange blackhole (SDX009).

    A sender at exchange A steers matching traffic into a shared
    participant T whose route re-enters exchange B — where T's own
    outbound policy drops it. Exchange A accepted traffic the stitched
    path can never deliver.
    """
    from repro.bgp.asn import AsPath

    rng = make_rng(seed)
    options: List[Tuple[str, str, str, str, str]] = []
    for transit in federation.shared_participants():
        presence = federation.presence(transit)
        for entry in presence:
            for other in presence:
                if other == entry:
                    continue
                senders = [name for name in federation.topology.names()
                           if name != transit
                           and entry in federation.presence(name)]
                relays = [name for name in federation.topology.names()
                          if name != transit
                          and other in federation.presence(name)]
                for sender in senders:
                    for relay in relays:
                        options.append(
                            (sender, transit, relay, entry, other))
    if not options:
        raise ValueError(
            "need a shared participant with peers at two exchanges")
    sender, transit, relay, first, second = rng.choice(options)
    prefix = _federation_unrouted_prefix(federation, rng)
    port = _federation_fresh_port(federation, rng)
    transit_asn = federation.topology.participant(transit).asn
    relay_asn = federation.topology.participant(relay).asn
    origin_asn = rng.randrange(1_000, 60_000)
    federation.announce_route(
        first, transit, prefix, AsPath([transit_asn, origin_asn]))
    federation.announce_route(
        second, relay, prefix, AsPath([relay_asn, origin_asn]))
    federation.exchange(first).topology.participant(sender).add_outbound(
        match(dstport=port) >> fwd(transit))
    federation.exchange(second).topology.participant(transit).add_outbound(
        match(dstport=port) >> drop)
    anchor = federation.exchange(first).topology.participant(sender)
    index = len(anchor.outbound_clauses()) - 1
    return InjectedDefect(
        kind="stitched_blackhole", check_id="SDX009",
        participant=sender, direction="out", clause_index=index,
        description=f"{sender}: clause #{index} at {first} steers "
                    f"dstport={port} into {transit}, whose outbound at "
                    f"{second} drops it after re-entry")


_FEDERATION_INJECTORS = {
    "federation_loop": inject_federation_loop,
    "stitched_blackhole": inject_stitched_blackhole,
}


def inject_federation_defects(federation, *, seed: SeedLike = 0,
                              kinds: Sequence[str] = FEDERATION_DEFECT_KINDS
                              ) -> List[InjectedDefect]:
    """Inject one seeded federation defect per kind, in ``kinds`` order."""
    defects: List[InjectedDefect] = []
    for kind in kinds:
        try:
            injector = _FEDERATION_INJECTORS[kind]
        except KeyError:
            raise ValueError(
                f"unknown federation defect kind {kind!r}; known: "
                f"{sorted(_FEDERATION_INJECTORS)}") from None
        defects.append(injector(
            federation, seed=derive_seed(seed, f"defect-{kind}")))
    return defects

"""Seeded, replayable scenarios: exchanges + policies + trace.

A :class:`Scenario` is a fully serialisable description of one
differential-testing run: the participants of a small exchange — or of a
federation of exchanges stitched by members that attend several — the
base routing table, a policy mix restricted to constructs whose intended
semantics the reference interpreter can state independently, and a BGP
update trace. Everything derives deterministically from one integer seed
(via :mod:`repro.workloads.seeding`), and the JSON round-trip is exact —
a failure artifact replays bit-for-bit on another machine.

A single exchange is the one-exchange case of a federation: every
announcement, policy and trace step carries the exchange it lands on,
and :meth:`Scenario.project` restricts a federation to one exchange (a
one-exchange scenario is its own projection). The federation keys are
left out of the JSON at their one-exchange defaults, so a single-exchange
scenario serialises exactly as it did before federations existed.

Trace steps are drawn through the same
:class:`~repro.workloads.updates.UpdateSequencer` the calibrated trace
generator uses, so fuzzing exercises the announce/withdraw/re-announce
mix the paper measured rather than an arbitrary one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.bgp.asn import AsPath
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.core.controller import PEERING_LAN, SdxController
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.policy.headerspace import HeaderSpace
from repro.policy.policies import Policy, drop, fwd, match
from repro.workloads.routing import PrefixPool, synthesize_as_path
from repro.workloads.seeding import SeedLike, derive_seed, make_rng
from repro.workloads.updates import UpdateSequencer

#: Serialisation format version stamped into every scenario dict.
SCENARIO_VERSION = 1

#: The exchange of a single-exchange scenario.
DEFAULT_EXCHANGE = "IXP-A"

#: Keys only a federation needs; each is left out of the JSON at its
#: one-exchange default.
_FEDERATION_KEYS = ("exchange", "exchanges", "owners")

#: Single-field match options for generated policies (field, values).
FIELD_CHOICES: Tuple[Tuple[str, Tuple[Union[int, str], ...]], ...] = (
    ("dstport", (80, 443, 53, 8080)),
    ("srcport", (80, 443, 123)),
    ("protocol", (6, 17)),
)

#: Source-half CIDRs used by generated inbound policies.
SRC_HALVES: Tuple[str, ...] = ("0.0.0.0/1", "128.0.0.0/1")


@dataclass(frozen=True)
class ScenarioParticipant:
    """One member and the exchanges it attends, in preference order."""

    name: str
    asn: int
    ports: int = 1
    exchanges: Tuple[str, ...] = (DEFAULT_EXCHANGE,)


@dataclass(frozen=True)
class ScenarioAnnouncement:
    """One base-table route: who announces which prefix with which path,
    at which exchange."""

    participant: str
    prefix: str
    as_path: Tuple[int, ...]
    exchange: str = DEFAULT_EXCHANGE


@dataclass(frozen=True)
class ScenarioPolicy:
    """One generated policy clause, restricted to reference-checkable forms.

    Outbound: ``match(field=value)`` (optionally refined with
    ``dstip=dst_prefix``) forwarding to ``target``, or dropping when
    ``target`` is ``None``. Inbound: the same single-field match steering
    accepted traffic to the installer's own interface ``port_index``.
    The clause is installed at ``exchange``.
    """

    participant: str
    direction: str
    field: str
    value: Union[int, str]
    target: Optional[str] = None
    dst_prefix: Optional[str] = None
    port_index: int = 0
    exchange: str = DEFAULT_EXCHANGE

    def predicate_space(self) -> HeaderSpace:
        """The clause predicate as a raw :class:`HeaderSpace`."""
        constraints: Dict[str, Union[int, str]] = {self.field: self.value}
        if self.dst_prefix is not None:
            constraints["dstip"] = self.dst_prefix
        return HeaderSpace(**constraints)

    def build(self, port_of) -> Policy:
        """The clause as a policy AST.

        ``port_of(participant, index)`` resolves the installer's own
        interface number for inbound clauses (concrete switch ports exist
        only once the scenario is attached to a controller).
        """
        predicate = match(self.predicate_space())
        if self.direction == "out":
            if self.target is None:
                return predicate >> drop
            return predicate >> fwd(self.target)
        return predicate >> fwd(port_of(self.participant, self.port_index))


@dataclass(frozen=True)
class TraceStep:
    """One BGP event of the trace, at one exchange."""

    kind: str
    participant: str
    prefix: str
    as_path: Tuple[int, ...] = ()
    med: int = 0
    exchange: str = DEFAULT_EXCHANGE

    def to_update(self, next_hop: IPv4Address) -> Update:
        """The step as a BGP :class:`Update` with the given next hop."""
        prefix = IPv4Prefix(self.prefix)
        if self.kind == "withdraw":
            return Update.withdraw(self.participant, prefix)
        attributes = RouteAttributes(
            next_hop=next_hop, as_path=AsPath(self.as_path), med=self.med)
        return Update.announce(self.participant, prefix, attributes)


def _encode(item) -> Dict[str, object]:
    """``item``'s fields as a JSON-safe dict, less the federation keys
    at their one-exchange default."""
    payload: Dict[str, object] = {}
    for spec in fields(item):
        value = getattr(item, spec.name)
        if spec.name in _FEDERATION_KEYS and value == spec.default:
            continue
        if isinstance(value, tuple) and value and is_dataclass(value[0]):
            value = [_encode(element) for element in value]
        payload[spec.name] = value
    return payload


def _decode(cls, items) -> tuple:
    """``cls`` instances from :func:`_encode` dicts (lists -> tuples)."""
    return tuple(
        cls(**{key: tuple(value) if isinstance(value, list) else value
               for key, value in item.items()})
        for item in items)


@dataclass(frozen=True)
class Scenario:
    """A complete, serialisable differential-testing scenario.

    ``exchanges`` name the federation's exchanges (one for a plain
    exchange); ``owners`` records each prefix's federation-wide origin
    as ``(prefix, participant)`` pairs — a packet handed to its origin is
    delivered, any other egress carries it on (see
    :mod:`repro.federation.dataplane`).
    """

    seed: int
    participants: Tuple[ScenarioParticipant, ...]
    prefixes: Tuple[str, ...]
    announcements: Tuple[ScenarioAnnouncement, ...]
    policies: Tuple[ScenarioPolicy, ...]
    trace: Tuple[TraceStep, ...]
    exchanges: Tuple[str, ...] = (DEFAULT_EXCHANGE,)
    owners: Tuple[Tuple[str, str], ...] = ()

    # ------------------------------------------------------------------
    # Derived topology facts (mirroring SdxController's deterministic
    # allocation, so the reference interpreter needs no controller)
    # ------------------------------------------------------------------

    def participant_names(self) -> Tuple[str, ...]:
        """Member names in registration order."""
        return tuple(spec.name for spec in self.participants)

    def presence(self, name: str) -> Tuple[str, ...]:
        """The exchanges ``name`` attends, in preference order."""
        return self._spec(name).exchanges

    def participants_at(self, exchange: str
                        ) -> Tuple[ScenarioParticipant, ...]:
        """Members present at ``exchange``, in registration order."""
        return tuple(spec for spec in self.participants
                     if exchange in spec.exchanges)

    def _spec(self, name: str) -> ScenarioParticipant:
        for spec in self.participants:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def switch_ports(self) -> Dict[str, Tuple[int, ...]]:
        """Per-participant physical switch ports (sequential from 1)."""
        ports: Dict[str, Tuple[int, ...]] = {}
        cursor = 1
        for spec in self.participants:
            ports[spec.name] = tuple(range(cursor, cursor + spec.ports))
            cursor += spec.ports
        return ports

    def port_ips(self) -> Dict[str, IPv4Address]:
        """Each participant's first-interface peering-LAN address."""
        ips: Dict[str, IPv4Address] = {}
        host = 1
        for spec in self.participants:
            ips[spec.name] = PEERING_LAN.first_address + host
            host += spec.ports
        return ips

    def base_updates(self) -> List[Update]:
        """The base routing table as one announcement per route."""
        ips = self.port_ips()
        out: List[Update] = []
        for announcement in self.announcements:
            attributes = RouteAttributes(
                next_hop=ips[announcement.participant],
                as_path=AsPath(announcement.as_path))
            out.append(Update.announce(
                announcement.participant, IPv4Prefix(announcement.prefix),
                attributes))
        return out

    def step_update(self, step: TraceStep) -> Update:
        """One trace step as the exact update every execution consumes."""
        ips = self.project(step.exchange).port_ips()
        return step.to_update(ips[step.participant])

    def project(self, exchange: str) -> "Scenario":
        """This scenario restricted to one exchange's members and state.

        A one-exchange scenario is its own projection. Members, routes,
        policies and steps keep their registration order, so a
        projection's switch ports line up with the member controller
        :meth:`build_federation` registers for ``exchange``.
        """
        if exchange not in self.exchanges:
            raise KeyError(exchange)
        if len(self.exchanges) == 1:
            return self

        def here(items):
            return tuple(item for item in items if item.exchange == exchange)

        return replace(
            self, seed=derive_seed(self.seed, f"exchange-{exchange}"),
            exchanges=(exchange,),
            participants=tuple(replace(spec, exchanges=(exchange,))
                               for spec in self.participants_at(exchange)),
            announcements=here(self.announcements),
            policies=here(self.policies), trace=here(self.trace))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def build_controller(self, **kwargs) -> SdxController:
        """A started controller loaded with this scenario's base state.

        Builds identical controllers on every call (same participants in
        the same order, same base routes, same policies), which is what
        lets the oracle run full-recompilation and incremental executions
        in lockstep. Keyword arguments pass through to
        :class:`SdxController`. A federation builds with
        :meth:`build_federation` instead.
        """
        if len(self.exchanges) > 1:
            raise ValueError("a multi-exchange scenario builds a federation")
        kwargs.setdefault("with_dataplane", True)
        controller = SdxController(**kwargs)
        for spec in self.participants:
            controller.add_participant(spec.name, spec.asn, ports=spec.ports)
        for announcement in self.announcements:
            controller.announce_route(
                announcement.participant, IPv4Prefix(announcement.prefix),
                AsPath(announcement.as_path))
        for policy in self.policies:
            handle = controller.participant(policy.participant)
            built = policy.build(
                lambda name, index: controller.participant(name).port(index))
            if policy.direction == "out":
                handle.add_outbound(built)
            else:
                handle.add_inbound(built)
        controller.start()
        return controller

    def build_federation(self, *, statics_mode: str = "off",
                         start: bool = True, **kwargs):
        """A :class:`~repro.federation.controller.FederatedController`
        loaded with this scenario's base state.

        Identical on every call (same registration order, same base
        routes, same policies in list order). Policies install through
        the federated change surface, so ``statics_mode="strict"``
        rejects a loop-prone scenario at install time. Keyword arguments
        pass through to the per-exchange controllers.
        """
        from repro.federation.controller import FederatedController

        kwargs.setdefault("with_dataplane", True)
        federation = FederatedController(statics_mode=statics_mode, **kwargs)
        for exchange in self.exchanges:
            federation.add_exchange(exchange)
        for spec in self.participants:
            federation.add_participant(
                spec.name, spec.asn, exchanges=spec.exchanges,
                ports=spec.ports)
        for prefix, owner in self.owners:
            federation.register_origin(IPv4Prefix(prefix), owner)
        for item in self.announcements:
            federation.announce_route(
                item.exchange, item.participant, IPv4Prefix(item.prefix),
                AsPath(item.as_path))
        for item in self.policies:
            controller = federation.exchange(item.exchange)
            built = item.build(
                lambda name, index: controller.participant(name).port(index))
            if item.direction == "out":
                federation.add_outbound(item.exchange, item.participant, built)
            else:
                federation.add_inbound(item.exchange, item.participant, built)
        if start:
            federation.start()
        return federation

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict (see :meth:`from_dict` for the inverse)."""
        payload = _encode(self)
        payload["version"] = SCENARIO_VERSION
        return payload

    def to_json(self) -> str:
        """The scenario as deterministic, pretty-printed JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        version = payload.get("version", SCENARIO_VERSION)
        if version != SCENARIO_VERSION:
            raise ValueError(f"unsupported scenario version {version!r}")
        return cls(
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            participants=_decode(ScenarioParticipant, payload["participants"]),
            prefixes=tuple(payload["prefixes"]),  # type: ignore[arg-type]
            announcements=_decode(
                ScenarioAnnouncement, payload["announcements"]),
            policies=_decode(ScenarioPolicy, payload["policies"]),
            trace=_decode(TraceStep, payload["trace"]),
            exchanges=tuple(payload.get(  # type: ignore[arg-type]
                "exchanges", (DEFAULT_EXCHANGE,))),
            owners=tuple(map(tuple, payload.get(  # type: ignore[arg-type]
                "owners", ()))),
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def _generate_policies(rng, specs: Tuple[ScenarioParticipant, ...],
                       prefixes: Tuple[str, ...],
                       count: int) -> Tuple[ScenarioPolicy, ...]:
    """``count`` random reference-checkable policy clauses."""
    names = [spec.name for spec in specs]
    ports_of = {spec.name: spec.ports for spec in specs}
    out: List[ScenarioPolicy] = []
    for _ in range(count):
        installer = rng.choice(names)
        if rng.random() < 0.7:
            field_name, values = rng.choice(FIELD_CHOICES)
            value = rng.choice(values)
            target = rng.choice([name for name in names if name != installer])
            dst_prefix = (rng.choice(prefixes)
                          if rng.random() < 0.35 else None)
            out.append(ScenarioPolicy(
                participant=installer, direction="out",
                field=field_name, value=value,
                target=None if rng.random() < 0.2 else target,
                dst_prefix=dst_prefix))
        else:
            if rng.random() < 0.5:
                field_name, value = "srcip", rng.choice(SRC_HALVES)
            else:
                field_name, values = rng.choice(FIELD_CHOICES)
                value = rng.choice(values)
            out.append(ScenarioPolicy(
                participant=installer, direction="in",
                field=field_name, value=value,
                port_index=rng.randrange(ports_of[installer])))
    return tuple(out)


def generate_scenario(seed: SeedLike, *, exchanges: int = 1,
                      shared: int = 2, participants: int = 4,
                      prefixes: int = 4, policies: int = 5,
                      steps: int = 20,
                      withdraw_probability: float = 0.25) -> Scenario:
    """A deterministic scenario from one seed.

    Each prefix gets an owner plus, with some probability, extra
    (longer-path) announcers — the multiple-candidate structure that
    makes best-route changes and eligibility flips actually happen when
    the trace churns. The trace itself comes from the shared
    :class:`~repro.workloads.updates.UpdateSequencer`.

    With several ``exchanges`` the same draws are spread over a
    federation whose first ``shared`` participants attend several
    exchanges (see :func:`_federate`). Those choices come from their own
    derived stream, so the draws above are the same at any exchange
    count.
    """
    if participants < 2:
        raise ValueError("a scenario needs at least two participants")
    if not 1 <= exchanges <= participants:
        raise ValueError(f"need 1 to {participants} exchanges, "
                         f"got {exchanges}")
    rng = make_rng(seed, salt=0xF022)
    base_seed = derive_seed(seed, "scenario") if not isinstance(seed, int) \
        else seed
    specs = tuple(
        ScenarioParticipant(
            name=f"AS{index + 1}", asn=65_001 + index,
            ports=2 if rng.random() < 0.25 else 1)
        for index in range(participants))

    pool = PrefixPool(lengths=(24, 16), seed=derive_seed(seed, "prefixes"))
    prefix_objs = pool.take(prefixes)
    prefix_texts = tuple(str(prefix) for prefix in prefix_objs)

    announcements: List[ScenarioAnnouncement] = []
    announcers: Dict[IPv4Prefix, List[Tuple[str, int]]] = {}
    for prefix, text in zip(prefix_objs, prefix_texts):
        owner = rng.choice(specs)
        origin = rng.randrange(1_000, 60_000)
        path = synthesize_as_path(origin, owner.asn, rng)
        announcements.append(ScenarioAnnouncement(
            participant=owner.name, prefix=text, as_path=path.asns))
        announcers[prefix] = [(owner.name, owner.asn)]
        for spec in specs:
            if spec.name == owner.name or rng.random() >= 0.35:
                continue
            cover = synthesize_as_path(
                origin, spec.asn, rng, min_length=2, mean_extra_hops=3.0)
            announcements.append(ScenarioAnnouncement(
                participant=spec.name, prefix=text, as_path=cover.asns))
            announcers[prefix].append((spec.name, spec.asn))

    policy_tuple = _generate_policies(rng, specs, prefix_texts, policies)

    trace_rng = make_rng(derive_seed(seed, "trace"))
    sequencer = UpdateSequencer(
        announcers, trace_rng, withdraw_probability=withdraw_probability)
    trace: List[TraceStep] = []
    for _ in range(steps):
        prefix = trace_rng.choice(prefix_objs)
        update = sequencer.step(prefix)
        if update.withdrawals:
            trace.append(TraceStep(
                kind="withdraw", participant=update.sender,
                prefix=str(update.withdrawals[0].prefix)))
        else:
            announcement = update.announcements[0]
            trace.append(TraceStep(
                kind="announce", participant=update.sender,
                prefix=str(announcement.prefix),
                as_path=announcement.attributes.as_path.asns,
                med=announcement.attributes.med))

    scenario = Scenario(
        seed=base_seed, participants=specs, prefixes=prefix_texts,
        announcements=tuple(announcements), policies=policy_tuple,
        trace=tuple(trace))
    if exchanges == 1:
        return scenario
    names = tuple(f"IXP-{chr(ord('A') + index)}" for index in range(exchanges))
    return _federate(scenario, make_rng(derive_seed(seed, "federation")),
                     names, shared)


def _assign_presence(rng, names: Sequence[str], exchanges: Tuple[str, ...],
                     shared: int) -> Dict[str, Tuple[str, ...]]:
    """Presence sets: the first ``shared`` names attend several exchanges
    (in a random preference order), the rest are spread round-robin."""
    presence: Dict[str, Tuple[str, ...]] = {}
    for index, name in enumerate(names):
        if index < shared:
            count = rng.randint(2, len(exchanges)) if len(exchanges) > 2 else 2
            attended = sorted(rng.sample(range(len(exchanges)), count))
            ordered = [exchanges[i] for i in attended]
            rng.shuffle(ordered)
            presence[name] = tuple(ordered)
        else:
            presence[name] = (exchanges[(index - shared) % len(exchanges)],)
    return presence


def _federate(scenario: Scenario, rng, exchanges: Tuple[str, ...],
              shared: int) -> Scenario:
    """A one-exchange draw spread over ``exchanges``.

    ``rng`` draws only what a federation adds: who attends which
    exchanges, the transit claims, and the exchange each policy and
    trace step lands on. A prefix's first announcer is its
    federation-wide origin and announces it at every exchange it
    attends; any other announcer announces at its preferred exchange and
    re-announces (a transit claim) at each further one with probability
    0.6 — the stitches loops and blackholes need. A forwarding policy
    lands where installer and target meet and is dropped if they never
    do; a withdrawal lands where the route is announced.
    """
    names = scenario.participant_names()
    presence = _assign_presence(rng, names, exchanges, min(shared, len(names)))
    owners: Dict[str, str] = {}
    announced: Set[Tuple[str, str, str]] = set()
    announcements: List[ScenarioAnnouncement] = []
    for item in scenario.announcements:
        origin = owners.setdefault(item.prefix, item.participant)
        attended = presence[item.participant]
        for exchange in attended:
            if (exchange == attended[0] or item.participant == origin
                    or rng.random() < 0.6):
                announcements.append(replace(item, exchange=exchange))
                announced.add((exchange, item.participant, item.prefix))

    policies: List[ScenarioPolicy] = []
    for policy in scenario.policies:
        options = [exchange for exchange in presence[policy.participant]
                   if policy.target is None
                   or exchange in presence[policy.target]]
        if options:
            policies.append(replace(policy, exchange=rng.choice(options)))

    trace: List[TraceStep] = []
    for step in scenario.trace:
        options = [exchange for exchange in presence[step.participant]
                   if step.kind == "announce"
                   or (exchange, step.participant, step.prefix) in announced]
        step = replace(step, exchange=rng.choice(options))
        route = (step.exchange, step.participant, step.prefix)
        if step.kind == "announce":
            announced.add(route)
        else:
            announced.discard(route)
        trace.append(step)

    return replace(
        scenario, exchanges=exchanges,
        participants=tuple(replace(spec, exchanges=presence[spec.name])
                           for spec in scenario.participants),
        owners=tuple(owners.items()), announcements=tuple(announcements),
        policies=tuple(policies), trace=tuple(trace))

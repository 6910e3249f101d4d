"""Participants: the ASes connected to (or remotely using) the SDX.

A participant bundles identity (name, ASN), physical attachment (router
ports with their switch-port numbers), and the inbound/outbound policies
it has installed. Policies are validated and normalised to clause form
(:mod:`repro.core.clauses`) at installation time, so misuse fails at the
API boundary with a clear error instead of deep inside the compiler.

Remote participants (Section 3.2, wide-area load balancing) have no
physical ports: they exist only as a virtual switch plus policies, and
may originate prefixes through the SDX.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.clauses import Clause, normalize_policy
from repro.dataplane.router import BorderRouter, RouterPort
from repro.exceptions import ParticipantError, PolicyError
from repro.net.addresses import IPv4Prefix
from repro.policy.policies import Policy

#: Fields participants may never match on or rewrite: the SDX owns the
#: MAC tag space, and locations change only via fwd().
RESERVED_FIELDS = frozenset({"dstmac", "srcmac", "port"})


def _predicate_fields(predicate) -> frozenset:
    """Every header field a predicate tree constrains."""
    from repro.policy.policies import Match

    fields: set = set()
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, Match):
            fields.update(node.space)
        elif getattr(node, "field", None) is not None:
            fields.add(node.field)  # a field-in-set, resolved or a rib_match
        stack.extend(node.children())
    return frozenset(fields)


@dataclass
class Participant:
    """One AS at (or remotely using) the exchange."""

    name: str
    asn: int
    router: Optional[BorderRouter] = None
    local_prefixes: Tuple[IPv4Prefix, ...] = ()
    _outbound: List[Policy] = field(default_factory=list)
    _inbound: List[Policy] = field(default_factory=list)
    policy_generation: int = 0
    _clause_cache: dict = field(default_factory=dict)
    policies_suspended: bool = False
    #: Called whenever what :meth:`outbound_clauses` or
    #: :meth:`inbound_clauses` return may have changed — an edit, a
    #: suspension, an undo (the topology keeps its policy holders by it).
    on_policy_change: Optional[Callable[[], None]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def is_remote(self) -> bool:
        """True if the participant has no physical presence at the IXP."""
        return self.router is None

    @property
    def ports(self) -> List[RouterPort]:
        """The participant's router interfaces (empty when remote)."""
        return [] if self.router is None else self.router.ports

    @property
    def switch_ports(self) -> Tuple[int, ...]:
        """Switch ports of the participant's interfaces, in order."""
        return tuple(
            port.switch_port for port in self.ports if port.switch_port is not None)

    def port(self, index: int = 0) -> int:
        """The switch-port number of interface ``index``.

        This is what inbound policies pass to ``fwd`` — e.g. B's inbound
        traffic engineering uses ``fwd(b.port(0))`` and ``fwd(b.port(1))``
        for the paper's B1/B2.
        """
        ports = self.switch_ports
        if not ports:
            raise ParticipantError(f"participant {self.name!r} has no physical ports")
        if not 0 <= index < len(ports):
            raise ParticipantError(
                f"participant {self.name!r} has no port index {index}")
        return ports[index]

    @property
    def main_port(self) -> int:
        """The default delivery port for inbound traffic."""
        return self.port(0)

    # ------------------------------------------------------------------
    # Policy validation
    # ------------------------------------------------------------------

    def _validate_clauses(self, clauses: List[Clause], *, inbound: bool) -> None:
        for clause in clauses:
            matched_reserved = _predicate_fields(clause.predicate) & RESERVED_FIELDS
            if matched_reserved:
                raise PolicyError(
                    f"policy of {self.name!r} matches reserved field(s) "
                    f"{sorted(matched_reserved)}; the SDX manages ports and "
                    f"MAC tags itself")
            reserved = {name for name, _value in clause.modifications} & RESERVED_FIELDS
            if reserved:
                raise PolicyError(
                    f"policy of {self.name!r} modifies reserved field(s) "
                    f"{sorted(reserved)}; use fwd() for forwarding")
            target = clause.target
            if not inbound:
                if clause.drops:
                    continue
                if target is None:
                    raise PolicyError(
                        f"outbound clause of {self.name!r} has no fwd(): "
                        f"{clause.describe()}")
                if isinstance(target, int):
                    raise PolicyError(
                        f"outbound policy of {self.name!r} must name a "
                        f"participant (fwd('B')), not a raw port ({target})")
                if target == self.name:
                    raise PolicyError(
                        f"outbound policy of {self.name!r} forwards to itself")
                continue
            # Inbound.
            if clause.drops:
                continue
            if self.is_remote:
                if target is None:
                    raise PolicyError(
                        f"remote participant {self.name!r} has no ports; every "
                        f"inbound clause must end in fwd('<participant>'): "
                        f"{clause.describe()}")
                if isinstance(target, int):
                    raise PolicyError(
                        f"remote participant {self.name!r} cannot forward to a "
                        f"raw port ({target}); name a participant instead")
                if target == self.name:
                    raise PolicyError(
                        f"remote participant {self.name!r} forwards to itself")
            else:
                if isinstance(target, str):
                    raise PolicyError(
                        f"inbound policy of {self.name!r} must forward to its "
                        f"own ports (e.g. fwd(participant.port(1))), not to "
                        f"participant {target!r}")
                if target is not None and target not in self.switch_ports:
                    raise PolicyError(
                        f"inbound policy of {self.name!r} forwards to switch "
                        f"port {target}, which is not one of its own ports")

    def validate_policy(self, policy: Policy, *, inbound: bool) -> List[Clause]:
        """Validate a policy without installing it; returns its clauses.

        Raises exactly what :meth:`add_outbound`/:meth:`add_inbound`
        would — the basis for what-if previews.
        """
        if not inbound and self.is_remote:
            raise PolicyError(
                f"remote participant {self.name!r} cannot have outbound policies")
        clauses = normalize_policy(policy)
        self._validate_clauses(clauses, inbound=inbound)
        return clauses

    # ------------------------------------------------------------------
    # Policy storage
    # ------------------------------------------------------------------

    def add_outbound(self, policy: Policy) -> None:
        """Install an outbound policy (applies to traffic this AS sends)."""
        if self.is_remote:
            raise PolicyError(
                f"remote participant {self.name!r} cannot have outbound policies")
        self._validate_clauses(normalize_policy(policy), inbound=False)
        self._outbound.append(policy)
        self._policies_changed("out")

    def add_inbound(self, policy: Policy) -> None:
        """Install an inbound policy (applies to traffic sent to this AS)."""
        self._validate_clauses(normalize_policy(policy), inbound=True)
        self._inbound.append(policy)
        self._policies_changed("in")

    def clear_policies(self) -> None:
        """Remove every installed policy."""
        if self._outbound or self._inbound:
            self._outbound.clear()
            self._inbound.clear()
            self._policies_changed("out", "in")

    def remove_outbound(self, policy: Policy) -> None:
        """Remove one previously installed outbound policy."""
        try:
            self._outbound.remove(policy)
        except ValueError:
            raise PolicyError(
                f"policy not installed for participant {self.name!r}") from None
        self._policies_changed("out")

    def remove_inbound(self, policy: Policy) -> None:
        """Remove one previously installed inbound policy."""
        try:
            self._inbound.remove(policy)
        except ValueError:
            raise PolicyError(
                f"policy not installed for participant {self.name!r}") from None
        self._policies_changed("in")

    @property
    def outbound_policies(self) -> Tuple[Policy, ...]:
        """Installed outbound policies, oldest first."""
        return tuple(self._outbound)

    @property
    def inbound_policies(self) -> Tuple[Policy, ...]:
        """Installed inbound policies, oldest first."""
        return tuple(self._inbound)

    def policy_state(self) -> tuple:
        """The installed policies, the suspension and what is derived from
        them: the undo record :meth:`restore_policy_state` puts back."""
        return (list(self._outbound), list(self._inbound),
                self.policies_suspended, self.policy_generation,
                dict(self._clause_cache))

    def restore_policy_state(self, state: tuple) -> None:
        """Put back an earlier :meth:`policy_state` — the same clause tuples,
        so what the compiler built from them is reused."""
        (self._outbound[:], self._inbound[:], self.policies_suspended,
         self.policy_generation, cache) = state
        self._clause_cache = dict(cache)
        if self.on_policy_change is not None:
            self.on_policy_change()

    def set_policies_suspended(self, suspended: bool) -> bool:
        """Temporarily mask (or unmask) the participant's policies.

        While suspended, :meth:`outbound_clauses` and
        :meth:`inbound_clauses` return nothing, so the compiler treats
        the participant as policy-free (default BGP forwarding) without
        forgetting the installed policies. The runtime's degrade mode
        (:class:`~repro.runtime.events.OverloadPolicy`) flips this under
        sustained overload and flips it back once the queue drains.
        Returns True if the state actually changed (the compiler sees
        the clauses vanish or return and rebuilds what read them).
        """
        if self.policies_suspended == suspended:
            return False
        self.policies_suspended = suspended
        self._policies_changed()
        return True

    def outbound_clauses(self) -> Tuple[Clause, ...]:
        """The normalised outbound clauses, priority order (cached).

        Empty while policies are suspended (degrade mode)."""
        if self.policies_suspended:
            return ()
        return self._clauses("out", self._outbound)

    def inbound_clauses(self) -> Tuple[Clause, ...]:
        """The normalised inbound clauses, priority order (cached).

        Empty while policies are suspended (degrade mode)."""
        if self.policies_suspended:
            return ()
        return self._clauses("in", self._inbound)

    def _clauses(self, kind: str, policies: List[Policy]) -> Tuple[Clause, ...]:
        clauses = self._clause_cache.get(kind)
        if clauses is None:
            clauses = self._clause_cache[kind] = tuple(
                clause for policy in policies
                for clause in normalize_policy(policy))
        return clauses

    def _policies_changed(self, *kinds: str) -> None:
        """Bump the generation and drop the normalised clauses of the
        changed direction(s) only: the other direction's clauses — and
        everything the compiler built from them — stay as they are."""
        self.policy_generation += 1
        for kind in kinds:
            self._clause_cache.pop(kind, None)
        if self.on_policy_change is not None:
            self.on_policy_change()

    @property
    def has_policies(self) -> bool:
        """True if any policy is installed."""
        return bool(self._outbound or self._inbound)

    def outbound_targets(self) -> Tuple[str, ...]:
        """Participant names this AS forwards to in its outbound policies.

        Drives the Section 4.3 optimisation of only composing policies
        between participants that actually exchange traffic.
        """
        names = {
            clause.target for clause in self.outbound_clauses()
            if isinstance(clause.target, str)
        }
        return tuple(sorted(names))

    def __repr__(self) -> str:
        kind = "remote" if self.is_remote else f"{len(self.ports)} ports"
        return (f"Participant({self.name!r}, AS{self.asn}, {kind}, "
                f"{len(self._outbound)} out / {len(self._inbound)} in policies)")

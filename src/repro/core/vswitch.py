"""The virtual-switch abstraction and its port numbering.

Every participant sees its own virtual SDN switch (Section 3.1, Figure
1a): its *physical* ports are its real attachments to the fabric, and it
has one *virtual* port per peer participant. The compiler realises the
abstraction by mapping each participant to a virtual port number in a
range disjoint from physical switch ports; ``fwd("B")`` resolves to B's
virtual port, and the composed pipeline later replaces virtual ports with
B's physical delivery ports.

Packets never leave the compiled pipeline on a virtual port — the
composition step guarantees every output is physical or dropped, an
invariant the integration tests assert.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.participant import Participant
from repro.exceptions import ParticipantError

#: First virtual port number; physical switch ports must stay below this.
VPORT_BASE = 10_000


class VirtualTopology:
    """Assigns virtual ports and resolves symbolic forwarding targets."""

    def __init__(self) -> None:
        self._participants: Dict[str, Participant] = {}
        #: :meth:`policy_holders`, kept until a member joins or a member's
        #: policies change (``None``: to be worked out again).
        self._holders: Optional[Tuple[Participant, ...]] = None
        self._vports: Dict[str, int] = {}
        self._owner_of_port: Dict[int, str] = {}
        self._next_vport = VPORT_BASE

    def register(self, participant: Participant) -> int:
        """Add a participant; returns its virtual port number."""
        name = participant.name
        if name in self._participants:
            raise ParticipantError(f"participant {name!r} already registered")
        for port in participant.switch_ports:
            if port >= VPORT_BASE:
                raise ParticipantError(
                    f"physical port {port} collides with virtual port range")
            if port in self._owner_of_port:
                raise ParticipantError(
                    f"switch port {port} already owned by "
                    f"{self._owner_of_port[port]!r}")
        self._participants[name] = participant
        participant.on_policy_change = self._forget_holders
        self._holders = None
        vport = self._next_vport
        self._next_vport += 1
        self._vports[name] = vport
        for port in participant.switch_ports:
            self._owner_of_port[port] = name
        return vport

    def participant(self, name: str) -> Participant:
        """The registered participant called ``name``."""
        try:
            return self._participants[name]
        except KeyError:
            raise ParticipantError(f"unknown participant {name!r}") from None

    def participants(self) -> Tuple[Participant, ...]:
        """Every participant, sorted by name."""
        return tuple(self._participants[name] for name in sorted(self._participants))

    def physical(self, name: str) -> Optional[Participant]:
        """The participant called ``name`` if it is registered and has
        ports at the exchange; ``None`` otherwise."""
        participant = self._participants.get(name)
        return None if participant is None or participant.is_remote \
            else participant

    def policy_holders(self) -> Tuple[Participant, ...]:
        """The physical participants with outbound clauses, sorted by name:
        those stage 1 of a compilation has a block for. Worked out again
        only after a member joins or a member's policies change, not per
        call — the fast path asks once per touched prefix."""
        if self._holders is None:
            self._holders = tuple(
                participant for participant in self.participants()
                if not participant.is_remote
                and participant.outbound_clauses())
        return self._holders

    def _forget_holders(self) -> None:
        self._holders = None

    def participants_in_order(self) -> Tuple[Participant, ...]:
        """Every participant, in registration order.

        Registration order determines port and address assignment, which
        in turn feeds BGP tie-breaking — configuration export must
        preserve it so a reloaded exchange behaves identically.
        """
        return tuple(self._participants.values())

    def names(self) -> Tuple[str, ...]:
        """Every participant name, sorted."""
        return tuple(sorted(self._participants))

    def vport(self, name: str) -> int:
        """The virtual port of participant ``name``."""
        try:
            return self._vports[name]
        except KeyError:
            raise ParticipantError(f"unknown participant {name!r}") from None

    def owner_of(self, switch_port: int) -> Optional[str]:
        """The participant owning a physical switch port, if any."""
        return self._owner_of_port.get(switch_port)

    def by_vport(self, vport: int) -> Participant:
        """The participant whose virtual port is ``vport``."""
        for name, assigned in self._vports.items():
            if assigned == vport:
                return self._participants[name]
        raise ParticipantError(f"no participant with virtual port {vport}")

    def is_virtual_port(self, port: int) -> bool:
        """True if ``port`` lies in the virtual range."""
        return port >= VPORT_BASE

    def physical_ports(self) -> Tuple[int, ...]:
        """Every physical switch port, sorted."""
        return tuple(sorted(self._owner_of_port))

    def __len__(self) -> int:
        return len(self._participants)

    def __repr__(self) -> str:
        return f"VirtualTopology({len(self)} participants)"

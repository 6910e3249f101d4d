"""The federation topology layer: exchanges, presence, transit, origins.

A federation is a set of named exchanges plus participants that attend
one or more of them. Each attendance is an :class:`ExchangePresence`
(per-exchange port count — a shared AS can have two ports at one IXP and
one at another). A participant present at several exchanges implicitly
owns a backbone connecting its border routers there; those derived
:class:`TransitLink` edges are what let packets cross exchanges.

The topology also records federation-wide prefix *origins* — which
participant's network a destination actually lives in. Origins decide
when a cross-exchange walk terminates: a packet handed to the origin AS
is delivered, a packet handed to any other AS keeps moving (to another
exchange where that AS has a usable route, or out through its upstream
transit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.sdxpolicy import OwnershipRegistry
from repro.exceptions import ParticipantError
from repro.net.addresses import IPv4Address, IPv4Prefix


@dataclass(frozen=True)
class ExchangePresence:
    """One participant's attendance at one exchange."""

    exchange: str
    ports: int = 1


@dataclass(frozen=True)
class FederatedParticipantSpec:
    """A participant and everywhere it peers."""

    name: str
    asn: int
    presence: Tuple[ExchangePresence, ...]

    def exchanges(self) -> Tuple[str, ...]:
        """The exchanges attended, in preference (registration) order."""
        return tuple(entry.exchange for entry in self.presence)

    def ports_at(self, exchange: str) -> int:
        """The port count at ``exchange`` (0 when absent)."""
        for entry in self.presence:
            if entry.exchange == exchange:
                return entry.ports
        return 0

    @property
    def is_shared(self) -> bool:
        """True when the participant attends more than one exchange."""
        return len(self.presence) > 1


@dataclass(frozen=True)
class TransitLink:
    """One backbone edge of a shared participant between two exchanges."""

    participant: str
    left: str
    right: str

    def other_end(self, exchange: str) -> str:
        """The opposite exchange of this link."""
        if exchange == self.left:
            return self.right
        if exchange == self.right:
            return self.left
        raise ParticipantError(
            f"transit link {self.participant}:{self.left}<->{self.right} "
            f"does not touch exchange {exchange!r}")


class FederationTopology:
    """The exchange/presence/origin registry of one federation.

    Exchanges and participants keep registration order — presence order
    is a participant's *preference* order when it must pick the next
    exchange to carry a packet through, and registration order is what
    keeps per-exchange port numbering aligned with projected
    single-exchange scenarios.
    """

    def __init__(self) -> None:
        self._exchanges: List[str] = []
        self._specs: Dict[str, FederatedParticipantSpec] = {}
        self._order: List[str] = []
        self._origins = OwnershipRegistry()
        self._origin_entries: List[Tuple[IPv4Prefix, str]] = []

    # ------------------------------------------------------------------
    # Exchanges
    # ------------------------------------------------------------------

    def add_exchange(self, name: str) -> None:
        """Register exchange ``name`` (order is preserved)."""
        if name in self._exchanges:
            raise ParticipantError(f"exchange {name!r} already registered")
        self._exchanges.append(name)

    def exchanges(self) -> Tuple[str, ...]:
        """Registered exchange names, in registration order."""
        return tuple(self._exchanges)

    # ------------------------------------------------------------------
    # Participants
    # ------------------------------------------------------------------

    def add_participant(self, spec: FederatedParticipantSpec) -> None:
        """Register a participant spec (its exchanges must exist)."""
        if spec.name in self._specs:
            raise ParticipantError(f"participant {spec.name!r} already registered")
        if not spec.presence:
            raise ParticipantError(
                f"participant {spec.name!r} attends no exchange")
        for entry in spec.presence:
            if entry.exchange not in self._exchanges:
                raise ParticipantError(
                    f"participant {spec.name!r} attends unknown exchange "
                    f"{entry.exchange!r}")
        self._specs[spec.name] = spec
        self._order.append(spec.name)

    def participant(self, name: str) -> FederatedParticipantSpec:
        """The spec of participant ``name``."""
        try:
            return self._specs[name]
        except KeyError:
            raise ParticipantError(f"unknown participant {name!r}") from None

    def participants(self) -> Tuple[FederatedParticipantSpec, ...]:
        """Every spec, in registration order."""
        return tuple(self._specs[name] for name in self._order)

    def names(self) -> Tuple[str, ...]:
        """Participant names in registration order."""
        return tuple(self._order)

    def participants_at(self, exchange: str) -> Tuple[str, ...]:
        """Names present at ``exchange``, in registration order."""
        return tuple(
            name for name in self._order
            if self._specs[name].ports_at(exchange) > 0
            or exchange in self._specs[name].exchanges())

    def presence(self, name: str) -> Tuple[str, ...]:
        """The exchanges ``name`` attends, in preference order."""
        return self.participant(name).exchanges()

    def shared_participants(self) -> Tuple[str, ...]:
        """Names present at more than one exchange."""
        return tuple(
            name for name in self._order if self._specs[name].is_shared)

    def transit_links(self) -> Tuple[TransitLink, ...]:
        """Derived backbone edges: one per shared participant's
        exchange pair."""
        links: List[TransitLink] = []
        for name in self._order:
            attended = self._specs[name].exchanges()
            for i, left in enumerate(attended):
                for right in attended[i + 1:]:
                    links.append(TransitLink(name, left, right))
        return tuple(links)

    # ------------------------------------------------------------------
    # Prefix origins
    # ------------------------------------------------------------------

    def register_origin(self, prefix: IPv4Prefix, participant: str) -> None:
        """Record that ``prefix`` lives inside ``participant``'s network."""
        self.participant(participant)
        self._origins.register(prefix, participant)
        self._origin_entries.append((prefix, participant))

    def origins(self) -> Tuple[Tuple[IPv4Prefix, str], ...]:
        """Every (prefix, origin participant) registration."""
        return tuple(self._origin_entries)

    def origin_of(self, address: IPv4Address) -> Optional[str]:
        """The participant whose network owns ``address``, if known."""
        return self._origins.owner_of(IPv4Prefix(network=int(address),
                                                 length=32))

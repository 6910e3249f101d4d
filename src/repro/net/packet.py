"""The packet model shared by the policy language and the data plane.

A :class:`Packet` is an immutable bundle of header fields plus a location
(the switch port it currently sits on). Policies in :mod:`repro.policy` map
one located packet to a *set* of located packets — empty set means drop,
a singleton means forward, several mean multicast — exactly the Pyretic
semantics the paper builds on (Section 3.1).

Field registry
--------------
``FIELDS`` names every header field the SDX data plane can match on or
rewrite. IP addresses are held as :class:`~repro.net.addresses.IPv4Address`,
MACs as :class:`~repro.net.mac.MacAddress`, everything else as small ints.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, Mapping, Optional

from repro.exceptions import FieldError
from repro.net.addresses import IPv4Address
from repro.net.mac import MacAddress

#: Every header field a packet can carry, with a one-line meaning.
FIELDS: Dict[str, str] = {
    "port": "ingress port on the current switch (location)",
    "srcmac": "Ethernet source MAC address",
    "dstmac": "Ethernet destination MAC address",
    "ethtype": "Ethernet payload type (0x0800 IPv4, 0x0806 ARP)",
    "srcip": "IPv4 source address",
    "dstip": "IPv4 destination address",
    "protocol": "IP protocol number (6 TCP, 17 UDP)",
    "srcport": "transport-layer source port",
    "dstport": "transport-layer destination port",
}

#: Fields holding IPv4 addresses.
IP_FIELDS: FrozenSet[str] = frozenset({"srcip", "dstip"})

#: Fields holding MAC addresses.
MAC_FIELDS: FrozenSet[str] = frozenset({"srcmac", "dstmac"})

#: Common ethertype values.
ETHTYPE_IPV4 = 0x0800
ETHTYPE_ARP = 0x0806

#: Common IP protocol numbers.
PROTO_TCP = 6
PROTO_UDP = 17


def check_field(name: str) -> str:
    """Validate a field name, returning it unchanged."""
    if name not in FIELDS:
        raise FieldError(f"unknown packet field {name!r}; known: {sorted(FIELDS)}")
    return name


def coerce_field_value(name: str, value: Any) -> Any:
    """Normalise ``value`` into the canonical type for field ``name``.

    Strings and ints are accepted for address fields and converted; other
    fields must be ints. No field takes a bool.
    """
    check_field(name)
    if value is None:
        return None
    if isinstance(value, bool):
        raise FieldError(f"field {name!r} got a bool: {value!r}")
    if name in IP_FIELDS:
        return IPv4Address(value)
    if name in MAC_FIELDS:
        return MacAddress(value)
    if not isinstance(value, int):
        raise FieldError(f"field {name!r} expects an int, got {value!r}")
    return value


class Packet(Mapping[str, Any]):
    """An immutable located packet.

    Construct with keyword header fields; unknown fields raise
    :class:`~repro.exceptions.FieldError`::

        >>> pkt = Packet(port=1, dstport=80, srcip="10.0.0.1")
        >>> pkt["dstport"]
        80
        >>> pkt.modify(port=2)["port"]
        2

    Missing fields read as ``None`` via :meth:`get`, mirroring wildcard
    behaviour in the policy language.
    """

    __slots__ = ("_fields", "_hash")

    def __init__(self, **fields: Any):
        normalised = {
            name: coerce_field_value(name, value)
            for name, value in fields.items()
            if value is not None
        }
        object.__setattr__(self, "_fields", normalised)
        object.__setattr__(self, "_hash", None)

    def __getitem__(self, name: str) -> Any:
        check_field(name)
        try:
            return self._fields[name]
        except KeyError:
            raise FieldError(f"packet has no value for field {name!r}") from None

    def get(self, name: str, default: Any = None) -> Any:
        """The field value, or ``default`` when the field is unset."""
        check_field(name)
        return self._fields.get(name, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, name: object) -> bool:
        return name in self._fields

    @property
    def port(self) -> Optional[int]:
        """The packet's current location (ingress port), if set."""
        return self._fields.get("port")

    def modify(self, **updates: Any) -> "Packet":
        """A copy of this packet with ``updates`` applied.

        Passing ``field=None`` removes the field.
        """
        fields = dict(self._fields)
        for name, value in updates.items():
            check_field(name)
            if value is None:
                fields.pop(name, None)
            else:
                fields[name] = coerce_field_value(name, value)
        clone = Packet()
        object.__setattr__(clone, "_fields", fields)
        return clone

    def at_port(self, port: int) -> "Packet":
        """A copy of this packet relocated to ``port``."""
        return self.modify(port=port)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Packet):
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._fields.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={self._fields[name]!s}" for name in sorted(self._fields))
        return f"Packet({inner})"

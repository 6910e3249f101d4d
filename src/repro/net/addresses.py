"""IPv4 addresses and prefixes implemented on plain integers.

The SDX compiler manipulates hundreds of thousands of prefixes, so these
types are deliberately small: an :class:`IPv4Address` wraps one ``int`` and
an :class:`IPv4Prefix` wraps ``(network_int, length)``. Both are immutable,
hashable, and totally ordered, which lets them serve as dict keys in RIB
tries and as members of the frozen prefix sets used by the FEC computation.

Unlike :mod:`ipaddress` from the standard library, :class:`IPv4Prefix`
exposes the handful of set-algebra operations the compiler needs —
containment, intersection, and supernet walking — without per-call object
churn.
"""

from __future__ import annotations

import functools
import re
from typing import Iterator, Optional, Union

from repro.exceptions import AddressError

_MAX_IPV4 = 0xFFFFFFFF
_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def _parse_dotted_quad(text: str) -> int:
    """Return the integer value of ``text`` (e.g. ``"10.0.0.1"``)."""
    matched = _DOTTED_QUAD.match(text)
    if not matched:
        raise AddressError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for octet_text in matched.groups():
        octet = int(octet_text)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _format_dotted_quad(value: int) -> str:
    """Return the dotted-quad representation of integer ``value``."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@functools.total_ordering
class IPv4Address:
    """An immutable IPv4 address.

    Accepts either a dotted-quad string or a raw integer::

        >>> IPv4Address("10.0.0.1") == IPv4Address(0x0A000001)
        True
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[str, int, "IPv4Address"]):
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        elif isinstance(value, int):
            if not 0 <= value <= _MAX_IPV4:
                raise AddressError(f"IPv4 integer out of range: {value}")
            self._value = value
        else:
            raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The address as a 32-bit integer."""
        return self._value

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return _format_dotted_quad(self._value)

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if isinstance(other, IPv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self._value + offset)

    def in_prefix(self, prefix: "IPv4Prefix") -> bool:
        """True if this address falls inside ``prefix``."""
        return prefix.contains_address(self)


@functools.total_ordering
class IPv4Prefix:
    """An immutable IPv4 prefix (CIDR block) such as ``10.0.0.0/8``.

    Host bits below the prefix length are zeroed on construction, matching
    how prefixes appear in BGP announcements.
    """

    __slots__ = ("_network", "_length", "_hash")

    def __init__(self, value: Union[str, "IPv4Prefix", None] = None, *,
                 network: Optional[Union[int, str, IPv4Address]] = None,
                 length: Optional[int] = None):
        if isinstance(value, IPv4Prefix):
            self._network, self._length = value._network, value._length
            self._hash = value._hash
            return
        if isinstance(value, str):
            network, length = self._parse(value)
        elif value is not None:
            raise AddressError(f"cannot build IPv4Prefix from {type(value).__name__}")
        if network is None or length is None:
            raise AddressError("IPv4Prefix needs a CIDR string or network+length")
        if isinstance(network, (str, IPv4Address)):
            network = int(IPv4Address(network))
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        if not 0 <= network <= _MAX_IPV4:
            raise AddressError(f"network integer out of range: {network}")
        mask = self._mask_for(length)
        self._network = network & mask
        self._length = length
        # Every RIB, trie and prefix set hashes prefixes: once, here.
        self._hash = hash((self._network, length))

    @staticmethod
    def _parse(text: str) -> tuple[int, int]:
        network_text, separator, length_text = text.partition("/")
        if not separator:
            raise AddressError(f"missing '/length' in prefix: {text!r}")
        try:
            length = int(length_text)
        except ValueError as exc:
            raise AddressError(f"bad prefix length in {text!r}") from exc
        return _parse_dotted_quad(network_text), length

    @staticmethod
    def _mask_for(length: int) -> int:
        return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4 if length else 0

    @property
    def network(self) -> IPv4Address:
        """The (zeroed-host-bits) network address."""
        return IPv4Address(self._network)

    @property
    def network_int(self) -> int:
        """The network address as an integer."""
        return self._network

    @property
    def length(self) -> int:
        """The prefix length in bits (0-32)."""
        return self._length

    @property
    def netmask(self) -> IPv4Address:
        """The network mask as an address (e.g. 255.255.255.0 for /24)."""
        return IPv4Address(self._mask_for(self._length))

    @property
    def num_addresses(self) -> int:
        """How many addresses the prefix covers."""
        return 1 << (32 - self._length)

    @property
    def first_address(self) -> IPv4Address:
        """The lowest address in the prefix."""
        return IPv4Address(self._network)

    @property
    def last_address(self) -> IPv4Address:
        """The highest address in the prefix."""
        return IPv4Address(self._network | (self.num_addresses - 1))

    def __str__(self) -> str:
        return f"{_format_dotted_quad(self._network)}/{self._length}"

    def __repr__(self) -> str:
        return f"IPv4Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Prefix):
            return (self._network == other._network
                    and self._length == other._length)
        return NotImplemented

    def __lt__(self, other: "IPv4Prefix") -> bool:
        # Compares without building tuples: the policy gate sorts prefixes.
        if isinstance(other, IPv4Prefix):
            if self._network != other._network:
                return self._network < other._network
            return self._length < other._length
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def contains_address(self, address: Union[IPv4Address, str, int]) -> bool:
        """True if ``address`` falls inside this prefix."""
        value = int(IPv4Address(address))
        return (value & self._mask_for(self._length)) == self._network

    def __contains__(self, item: Union[IPv4Address, "IPv4Prefix", str, int]) -> bool:
        if isinstance(item, IPv4Prefix):
            return self.contains_prefix(item)
        return self.contains_address(item)

    def contains_prefix(self, other: "IPv4Prefix") -> bool:
        """True if ``other`` is fully inside (or equal to) this prefix."""
        if other._length < self._length:
            return False
        return (other._network & self._mask_for(self._length)) == self._network

    def overlaps(self, other: "IPv4Prefix") -> bool:
        """True if the two prefixes share at least one address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    def intersection(self, other: "IPv4Prefix") -> Optional["IPv4Prefix"]:
        """The more-specific of two overlapping prefixes, or ``None``.

        Two CIDR blocks either nest or are disjoint, so the intersection is
        always the longer prefix when they overlap.
        """
        if self.contains_prefix(other):
            return other
        if other.contains_prefix(self):
            return self
        return None

    def supernet(self, new_length: Optional[int] = None) -> "IPv4Prefix":
        """The enclosing prefix at ``new_length`` (default: one bit shorter)."""
        if new_length is None:
            new_length = self._length - 1
        if not 0 <= new_length <= self._length:
            raise AddressError(
                f"supernet length {new_length} invalid for /{self._length}")
        return IPv4Prefix(network=self._network, length=new_length)

    def subnets(self, new_length: Optional[int] = None) -> Iterator["IPv4Prefix"]:
        """Iterate the subnets of this prefix at ``new_length`` (default +1)."""
        if new_length is None:
            new_length = self._length + 1
        if not self._length <= new_length <= 32:
            raise AddressError(
                f"subnet length {new_length} invalid for /{self._length}")
        step = 1 << (32 - new_length)
        for network in range(self._network, self._network + self.num_addresses, step):
            yield IPv4Prefix(network=network, length=new_length)

    def addresses(self) -> Iterator[IPv4Address]:
        """Iterate every address in the prefix (use only on small prefixes)."""
        for value in range(self._network, self._network + self.num_addresses):
            yield IPv4Address(value)

    def bit_at(self, position: int) -> int:
        """The network bit at ``position`` (0 = most significant)."""
        if not 0 <= position < 32:
            raise AddressError(f"bit position out of range: {position}")
        return (self._network >> (31 - position)) & 1


#: The default route, matching every IPv4 address.
DEFAULT_ROUTE = IPv4Prefix("0.0.0.0/0")

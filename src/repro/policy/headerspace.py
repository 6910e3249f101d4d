"""Field-wise packet matches with intersection and subsumption.

A :class:`HeaderSpace` is a conjunction of per-field constraints — the
match half of an OpenFlow rule. IP fields may be constrained by a CIDR
prefix; every other field by an exact value. Fields without a constraint
are wildcarded.

The set algebra reads every constraint as an OpenFlow match field does,
one integer ``(value, mask)`` (:func:`value_mask`): a packet value ``x``
satisfies it when ``x & mask == value``. A prefix's mask is its netmask, an
exact value's is ``-1``, every bit. Two prefixes either nest or are
disjoint, and exact values are single points, so the intersection of two
header spaces is again a single header space (or empty). That closure
property is what keeps the classifier composition algebra in
:mod:`repro.policy.classifier` simple and is the reason SDX matches restrict
themselves to this fragment. It also splits each field's values into few
*atoms* (:func:`atoms`), the dataplane verifier's traffic classes.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import (Any, Dict, ItemsView, Iterable, Iterator, List, Mapping,
                    Optional, Tuple, Union)

from repro.exceptions import FieldError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import FIELDS, IP_FIELDS, MAC_FIELDS, Packet, check_field

#: A single-field constraint: exact int, exact MAC, or an IP prefix.
Constraint = Union[int, MacAddress, IPv4Prefix]

#: A constraint as integers: a value, and the mask of the bits it pins.
Pair = Tuple[int, int]

_IPV4_ALL, _MAC_ALL = 0xFFFFFFFF, 0xFFFFFFFFFFFF
#: Each prefix length's netmask.
_NETMASKS = tuple(_IPV4_ALL ^ (_IPV4_ALL >> length) for length in range(33))
#: The least and greatest value of an address field's remainder (the
#: values no constraint names); any other field's is a non-negative int.
#: No station owns the all-zero MAC.
_DOMAINS: Dict[str, Tuple[int, int]] = {
    **{field: (0, _IPV4_ALL) for field in IP_FIELDS},
    **{field: (1, _MAC_ALL) for field in MAC_FIELDS}}


def coerce_constraint(field: str, value: Any) -> Constraint:
    """Normalise a user-supplied match value for ``field``.

    IP fields accept prefixes (``"10.0.0.0/8"``, :class:`IPv4Prefix`),
    addresses (converted to /32), or ints; MAC fields accept
    :class:`MacAddress` or text; other fields accept non-negative ints.
    No field takes a bool.
    """
    check_field(field)
    if isinstance(value, bool):
        raise FieldError(f"match on {field!r} got a bool: {value!r}")
    if field in IP_FIELDS:
        if isinstance(value, IPv4Prefix):
            return value
        if isinstance(value, str) and "/" in value:
            return IPv4Prefix(value)
        return IPv4Prefix(network=IPv4Address(value), length=32)
    if field in MAC_FIELDS:
        return MacAddress(value)
    if not isinstance(value, int):
        raise FieldError(f"match on {field!r} expects an int, got {value!r}")
    if value < 0:
        raise FieldError(f"match on {field!r} expects a non-negative int")
    return value


def value_mask(constraint: Constraint) -> Pair:
    """``constraint`` as one OpenFlow match field: ``(network, netmask)``
    for an IP prefix, ``(value, -1)`` for an exact value. The value is
    also the constraint's representative, the least value it admits."""
    if isinstance(constraint, IPv4Prefix):
        return constraint.network_int, _NETMASKS[constraint.length]
    return int(constraint), -1


def _meets(left: Pair, right: Pair) -> bool:
    """True if some value satisfies both constraints."""
    return not (left[0] ^ right[0]) & left[1] & right[1]


def holds(outer: Pair, inner: Pair) -> bool:
    """True if every value satisfying ``inner`` satisfies ``outer``: it
    pins no bit ``inner`` leaves free, and ``inner`` agrees on those it
    pins."""
    return outer[1] & inner[1] == outer[1] and inner[0] & outer[1] == outer[0]


def admits(constraint: Constraint, value: Any) -> bool:
    """True if a packet's field ``value`` (``None``: the packet lacks the
    field) satisfies ``constraint``."""
    if value is None:
        return False
    pinned, mask = value_mask(constraint)
    return int(value) & mask == pinned


def atoms(field: str, constraints: Iterable[Pair],
          base: Optional[Pair] = None,
          domain: Optional[Iterable[int]] = None
          ) -> List[Tuple[Optional[Pair], int]]:
    """The atoms ``constraints`` (:func:`value_mask` pairs) split ``field``
    into: each constraint's values less those of the constraints inside
    it, then the values no constraint holds. Every constraint holds an
    atom whole or misses it.

    Returns the inhabited atoms as ``(pair, representative)``, ``pair``
    the atom's constraint (``None`` for the rest) and the representative
    its least value. Prefixes come in range order — a prefix before those
    inside it — exact values in the order ``constraints`` first names
    them, the rest last. ``base`` narrows the field to its values; without
    it, ``domain`` narrows it to a finite set.

    The constraints of a field nest or are disjoint, so sorted by range
    they form a forest: one sweep with a stack of the open ranges finds,
    for each, the least value not inside a child.
    """
    least, greatest = _DOMAINS.get(field, (0, inf))
    free = 0 if greatest is inf else greatest  # the bits a mask may leave free
    points: Optional[List[int]] = None
    if base is not None:
        least, greatest = base[0], base[0] | ~base[1] & free
        constraints = [pair if holds(base, pair) else base
                       for pair in constraints if _meets(base, pair)]
    elif domain is not None:
        points = sorted(set(domain))

    def first(at: int) -> Optional[int]:
        """The least value of the domain from ``at`` on, if any."""
        if points is None:
            return at if at <= greatest else None
        index = bisect_left(points, at)
        return points[index] if index < len(points) else None

    relevant = list(dict.fromkeys(constraints))
    ranges = sorted(relevant)
    # Each open range: [pair, greatest value, least value not yet inside
    # a child]; the domain itself, the rest's range, at the bottom. A
    # range closed is an atom if that value lies inside it.
    stack: List[list] = [[None, greatest, first(least)]]
    found: Dict[Optional[Pair], int] = {}
    for pair in ranges:
        low = pair[0]
        while stack[-1][1] < low:
            closed, last, candidate = stack.pop()
            if candidate is not None and candidate <= last:
                found[closed] = candidate
        high = low | ~pair[1] & free
        parent = stack[-1]
        if parent[2] is not None and parent[2] >= low:
            parent[2] = first(max(parent[2], high + 1))
        stack.append([pair, high, first(low)])
    for closed, last, candidate in stack:
        if candidate is not None and candidate <= last:
            found[closed] = candidate
    order = ranges if field in IP_FIELDS else relevant
    out = [(pair, found[pair]) for pair in order if pair in found]
    if None in found:
        out.append((None, found[None]))
    return out


class HeaderSpace(Mapping[str, Constraint]):
    """An immutable conjunction of per-field match constraints.

    The empty header space (no constraints) matches every packet::

        >>> HeaderSpace().matches(Packet(dstport=80))
        True
        >>> HeaderSpace(dstport=80).matches(Packet(dstport=443))
        False
    """

    __slots__ = ("_constraints", "_hash")

    def __init__(self, **constraints: Any):
        normalised = {
            field: coerce_constraint(field, value)
            for field, value in constraints.items()
            if value is not None
        }
        object.__setattr__(self, "_constraints", normalised)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_dict(cls, constraints: Dict[str, Constraint]) -> "HeaderSpace":
        space = cls()
        object.__setattr__(space, "_constraints", constraints)
        return space

    def __getitem__(self, field: str) -> Constraint:
        return self._constraints[field]

    def get(self, field: str, default: Any = None) -> Any:
        # Mapping.get goes through __getitem__ and a KeyError; matches are
        # probed per rule on the compile path.
        return self._constraints.get(field, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._constraints)

    def items(self) -> ItemsView[str, Constraint]:
        # The dict's own view: Mapping's mixin reads each value back
        # through __getitem__, and the verifier walks every rule's items.
        return self._constraints.items()

    def __len__(self) -> int:
        return len(self._constraints)

    @property
    def is_wildcard(self) -> bool:
        """True if this space matches every packet."""
        return not self._constraints

    def matches(self, packet: Packet) -> bool:
        """True if ``packet`` satisfies every constraint.

        A packet lacking a constrained field does not match (the field
        reads as ``None``), except that prefix constraints trivially fail.
        """
        for field, constraint in self._constraints.items():
            if not admits(constraint, packet.get(field)):
                return False
        return True

    def intersect(self, other: "HeaderSpace") -> Optional["HeaderSpace"]:
        """The conjunction of two header spaces, or ``None`` when empty."""
        merged = dict(self._constraints)
        for field, constraint in other._constraints.items():
            if field not in merged:
                merged[field] = constraint
            elif merged[field] != constraint:
                ours, theirs = value_mask(merged[field]), value_mask(constraint)
                if not _meets(ours, theirs):
                    return None
                if not holds(theirs, ours):
                    merged[field] = constraint
        return HeaderSpace._from_dict(merged)

    def overlaps(self, other: "HeaderSpace") -> bool:
        """True if some packet matches both: :meth:`intersect` is not
        ``None``, found without building it."""
        theirs = other._constraints
        for field, constraint in self._constraints.items():
            other_constraint = theirs.get(field, constraint)
            if other_constraint != constraint and not _meets(
                    value_mask(constraint), value_mask(other_constraint)):
                return False
        return True

    def covers(self, other: "HeaderSpace") -> bool:
        """True if every packet matching ``other`` also matches ``self``."""
        theirs = other._constraints
        for field, constraint in self._constraints.items():
            if field not in theirs:
                return False
            if theirs[field] != constraint and not holds(
                    value_mask(constraint), value_mask(theirs[field])):
                return False
        return True

    def with_constraint(self, field: str, value: Any) -> Optional["HeaderSpace"]:
        """This space further constrained on one field (``None`` if empty)."""
        return self.intersect(HeaderSpace(**{field: value}))

    def without_field(self, field: str) -> "HeaderSpace":
        """This space with any constraint on ``field`` removed."""
        check_field(field)
        if field not in self._constraints:
            return self
        remaining = {
            name: constraint
            for name, constraint in self._constraints.items()
            if name != field
        }
        return HeaderSpace._from_dict(remaining)

    def concretise(self, **defaults: Any) -> Packet:
        """A representative packet inside this space.

        Each constrained field holds the least value its constraint admits
        (a prefix's first address). Extra ``defaults`` fill in
        unconstrained fields. Useful in tests.
        """
        fields: Dict[str, Any] = dict(defaults)
        for field, constraint in self._constraints.items():
            fields[field] = value_mask(constraint)[0]
        return Packet(**fields)

    def items_sorted(self) -> Tuple[Tuple[str, Constraint], ...]:
        """Constraints in the canonical field order of ``FIELDS``."""
        order = list(FIELDS)
        return tuple(
            (field, self._constraints[field])
            for field in sorted(self._constraints, key=order.index))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HeaderSpace):
            return self._constraints == other._constraints
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._constraints.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        if self.is_wildcard:
            return "HeaderSpace(*)"
        inner = ", ".join(f"{field}={value!s}" for field, value in self.items_sorted())
        return f"HeaderSpace({inner})"


#: The header space matching every packet.
WILDCARD = HeaderSpace()

"""Field-wise packet matches with intersection and subsumption.

A :class:`HeaderSpace` is a conjunction of per-field constraints — the
match half of an OpenFlow rule. IP fields may be constrained by a CIDR
prefix; every other field by an exact value. Fields without a constraint
are wildcarded.

Two CIDR blocks either nest or are disjoint, so the intersection of two
header spaces is again a single header space (or empty). That closure
property is what keeps the classifier composition algebra in
:mod:`repro.policy.classifier` simple and is the reason SDX matches restrict
themselves to this fragment.
"""

from __future__ import annotations

from typing import (Any, Dict, ItemsView, Iterator, Mapping, Optional, Tuple,
                    Union)

from repro.exceptions import FieldError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress
from repro.net.packet import FIELDS, IP_FIELDS, MAC_FIELDS, Packet, check_field

#: A single-field constraint: exact int, exact MAC, or an IP prefix.
Constraint = Union[int, MacAddress, IPv4Prefix]


def coerce_constraint(field: str, value: Any) -> Constraint:
    """Normalise a user-supplied match value for ``field``.

    IP fields accept prefixes (``"10.0.0.0/8"``, :class:`IPv4Prefix`),
    addresses (converted to /32), or ints; MAC fields accept
    :class:`MacAddress` or text; other fields accept non-negative ints.
    """
    check_field(field)
    if field in IP_FIELDS:
        if isinstance(value, IPv4Prefix):
            return value
        if isinstance(value, str) and "/" in value:
            return IPv4Prefix(value)
        return IPv4Prefix(network=IPv4Address(value), length=32)
    if field in MAC_FIELDS:
        return MacAddress(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FieldError(f"match on {field!r} expects an int, got {value!r}")
    if value < 0:
        raise FieldError(f"match on {field!r} expects a non-negative int")
    return value


def _intersect_constraint(field: str, left: Constraint,
                          right: Constraint) -> Optional[Constraint]:
    """The conjunction of two constraints on one field, or ``None`` if empty."""
    if isinstance(left, IPv4Prefix) and isinstance(right, IPv4Prefix):
        return left.intersection(right)
    return left if left == right else None


def _constraint_covers(left: Constraint, right: Constraint) -> bool:
    """True if every value satisfying ``right`` also satisfies ``left``."""
    if isinstance(left, IPv4Prefix) and isinstance(right, IPv4Prefix):
        return left.contains_prefix(right)
    return left == right


def _constraint_admits(constraint: Constraint, value: Any) -> bool:
    """True if a concrete packet ``value`` satisfies ``constraint``."""
    if isinstance(constraint, IPv4Prefix):
        return value is not None and constraint.contains_address(value)
    return constraint == value


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
        return all(
            _constraint_admits(constraint, packet.get(field))
            for field, constraint in self._constraints.items())

    def intersect(self, other: "HeaderSpace") -> Optional["HeaderSpace"]:
        """The conjunction of two header spaces, or ``None`` when empty."""
        merged = dict(self._constraints)
        for field, constraint in other._constraints.items():
            if field in merged:
                combined = _intersect_constraint(field, merged[field], constraint)
                if combined is None:
                    return None
                merged[field] = combined
            else:
                merged[field] = constraint
        return HeaderSpace._from_dict(merged)

    def overlaps(self, other: "HeaderSpace") -> bool:
        """True if some packet matches both: :meth:`intersect` is not
        ``None``, found without building it."""
        theirs = other._constraints
        for field, constraint in self._constraints.items():
            other_constraint = theirs.get(field, constraint)
            if other_constraint != constraint and _intersect_constraint(
                    field, constraint, other_constraint) is None:
                return False
        return True

    def covers(self, other: "HeaderSpace") -> bool:
        """True if every packet matching ``other`` also matches ``self``."""
        for field, constraint in self._constraints.items():
            if field not in other._constraints:
                return False
            if not _constraint_covers(constraint, other._constraints[field]):
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

        Prefix constraints yield the first address of the prefix. Extra
        ``defaults`` fill in unconstrained fields. Useful in tests.
        """
        fields: Dict[str, Any] = dict(defaults)
        for field, constraint in self._constraints.items():
            if isinstance(constraint, IPv4Prefix):
                fields[field] = constraint.first_address
            else:
                fields[field] = constraint
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

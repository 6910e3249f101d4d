"""One index of matches by what they can share a packet with.

Nearly every SDX rule pins the ``dstmac`` tag (Section 4.2's VMAC), the
ingress ``port`` or, in the tag-less data plane, a ``dstip`` prefix. A
:class:`MatchIndex` files each match, with a payload, by tag, then port,
then prefix: one *bucket* per prefix. Two matches share a packet only if
on each of the three they agree or one leaves it open (prefixes: one
contains the other), so a match (:meth:`MatchIndex.meeting`) or a packet
(:meth:`MatchIndex.hit_by`) visits only the buckets that agree with it.
``add`` and ``pop`` touch only the match's own bucket, and what empties
is forgotten. The compiler numbers each unit of a block's rules in one
(payload: overlap depth, :meth:`repro.core.compiler.SdxCompiler._numbered`),
the flow table every installed rule, whatever its priority (payload: the
match's installed entries), the dataplane verifier its committed spaces
(payload: their labels).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (Any, Dict, Generic, Iterable, Iterator, List, Optional,
                    Tuple, TypeVar)

from repro.net.packet import Packet
from repro.policy.headerspace import HeaderSpace

T = TypeVar("T")
#: Filed matches and their payloads, in the order they were first filed.
Bucket = Dict[HeaderSpace, Any]
#: A field a packet lacks: it agrees only with matches leaving it open.
_LACKS = object()


def _pins(match: HeaderSpace) -> tuple:
    """The tag (as its integer), port, ``dstip`` length and network
    ``match`` pins; ``None`` where it leaves one open."""
    constraints = match._constraints  # read per FlowMod: no method calls
    tag, prefix = constraints.get("dstmac"), constraints.get("dstip")
    return (None if tag is None else tag.value, constraints.get("port"),
            *((None, None) if prefix is None
              else (prefix.length, prefix.network_int)))


def packet_pins(packet: Packet) -> tuple:
    """The tag, port and ``dstip`` (integers) ``packet`` carries, as
    :meth:`MatchIndex.hit_by` takes them, read once for many indexes. An
    address of -1 — no ``dstip`` — lies in no prefix."""
    tag, port, address = (packet.get("dstmac"), packet.get("port"),
                          packet.get("dstip"))
    return (_LACKS if tag is None else tag.value,
            _LACKS if port is None else port,
            -1 if address is None else address.value)


def _agreeing(level: Dict[Any, Any], key: Any) -> Iterable[Any]:
    """What ``level`` files at ``key`` and at ``None`` — all of it, when
    ``key`` is ``None``."""
    if key is None:
        return level.values()
    return [level[at] for at in (key, None) if at in level]


class _Node(dict):
    """One tag and port's matches: those pinning no prefix are its own
    items — their bucket — and ``lengths`` files the others by prefix
    length (``None`` while there are none): each prefix's bucket by
    network, with the networks sorted."""

    lengths: Optional[Dict[int, Tuple[Dict[int, Bucket], List[int]]]] = None

    def bucket(self, length: int, network: int) -> Bucket:
        """The bucket of a prefix, made if it is not there."""
        if self.lengths is None:
            self.lengths = {}
        buckets, order = self.lengths.setdefault(length, ({}, []))
        if network not in buckets:
            buckets[network] = {}
            insort(order, network)
        return buckets[network]

    def discard(self, match: HeaderSpace, length: int, network: int) -> None:
        """Unfile ``match`` from its prefix's bucket, forgetting what that
        empties."""
        buckets, order = self.lengths[length]
        del buckets[network][match]
        if not buckets[network]:
            del buckets[network], order[bisect_left(order, network)]
            if not buckets:
                del self.lengths[length]
                self.lengths = self.lengths or None

    def meeting(self, length: Optional[int], network: int,
                found: List[Bucket]) -> None:
        """Add to ``found`` the buckets meeting a prefix (any, when
        ``length`` is ``None``): its own, those of the prefixes containing
        it and those inside it."""
        if self:
            found.append(self)
        for other, (buckets, order) in (self.lengths or {}).items():
            if length is None:
                found.extend(buckets.values())
            elif other <= length:
                bucket = buckets.get(network >> (32 - other) << (32 - other))
                if bucket is not None:
                    found.append(bucket)
            else:
                end = network + (1 << (32 - length))
                found.extend(buckets[inside] for inside in order[
                    bisect_left(order, network):bisect_left(order, end)])


class MatchIndex(Generic[T]):
    """Matches with a payload each (never ``None``: ``get`` and ``pop``
    answer it for a match not filed), filed by tag, port and ``dstip``."""

    def __init__(self) -> None:
        # Every payload, in the order its match was first filed.
        self._payloads: Dict[HeaderSpace, T] = {}
        # tag -> port -> node, ``None`` for a match leaving it open. Tag
        # first: a port-less match of a tag meets that tag's few ports.
        self._tags: Dict[Optional[int], Dict[Optional[int], _Node]] = {}

    def __len__(self) -> int:
        return len(self._payloads)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MatchIndex):
            return self._payloads == other._payloads
        return NotImplemented

    def values(self) -> Iterable[T]:
        """The payloads, in the order their matches were first filed."""
        return self._payloads.values()

    def get(self, match: HeaderSpace, default: Optional[T] = None
            ) -> Optional[T]:
        """The payload filed for exactly ``match``, else ``default``."""
        return self._payloads.get(match, default)

    def add(self, match: HeaderSpace, payload: T) -> None:
        """File ``match`` with ``payload``; a filed match keeps its place
        and takes the new payload."""
        self._payloads[match] = payload
        tag, port, length, network = _pins(match)
        ports = self._tags.get(tag)
        if ports is None:
            ports = self._tags[tag] = {}
        node = ports.get(port)
        if node is None:
            node = ports[port] = _Node()
        (node if length is None else node.bucket(length, network))[match] = payload

    def pop(self, match: HeaderSpace, default: Optional[T] = None
            ) -> Optional[T]:
        """Unfile ``match``; its payload, or ``default`` if not filed."""
        payload = self._payloads.pop(match, None)
        if payload is None:
            return default
        tag, port, length, network = _pins(match)
        ports = self._tags[tag]
        node = ports[port]
        if length is None:  # most rules: one call less per FlowMod
            del node[match]
        else:
            node.discard(match, length, network)
        if not node and node.lengths is None:
            del ports[port]
            if not ports:
                del self._tags[tag]
        return payload

    def meeting(self, match: HeaderSpace) -> List[Bucket]:
        """The buckets holding every filed match that can overlap
        ``match``: agreeing on tag, port and ``dstip``, or open in one."""
        tag, port, length, network = _pins(match)
        found: List[Bucket] = []
        for ports in _agreeing(self._tags, tag):
            for node in _agreeing(ports, port):
                if node.lengths is None:  # as most are: just its own matches
                    found.append(node)
                else:
                    node.meeting(length, network, found)
        return found

    def hit_by(self, pins: tuple) -> List[Bucket]:
        """The buckets holding every filed match a packet with these
        :func:`packet_pins` can satisfy: its tag or none, its port or
        none, and the prefixes holding its address or none."""
        tag, port, address = pins
        found: List[Bucket] = []
        for ports in (self._tags.get(tag), self._tags.get(None)):
            if ports:
                for node in (ports.get(port), ports.get(None)):
                    if node is not None:
                        node.meeting(32, address, found)
        return found

    def overlapping(self, match: HeaderSpace
                    ) -> Iterator[Tuple[HeaderSpace, T]]:
        """``(match, payload)`` of each filed match overlapping ``match``."""
        for bucket in self.meeting(match):
            for other, payload in bucket.items():
                if other.overlaps(match):
                    yield other, payload

    def covers(self, match: HeaderSpace) -> bool:
        """True if some filed match covers ``match``."""
        return any(other.covers(match) for bucket in self.meeting(match)
                   for other in bucket)

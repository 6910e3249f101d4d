"""Routing information bases: prefix-indexed route storage.

:class:`PrefixTrie` is the core container. It stores one value per exact
prefix and answers longest-prefix-match queries in at most 33 probes by
keeping one hash map per prefix length — the classic flat LPM layout,
chosen over a pointer-chasing binary trie because the SDX workloads insert
and look up hundreds of thousands of prefixes and Python pointer chasing
dominates otherwise.

On top of it sit :class:`AdjRibIn` (per-peer inbound routes, fed by UPDATE
messages) and :class:`RibView` (the read-only, filterable view the SDX
policy API exposes to participants as ``RIB.filter('as_path', ...)``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Dict, Generic, Hashable, Iterable, Iterator, List, Optional, Tuple,
    TypeVar, Union)

from repro.bgp.asn import AsPathPattern
from repro.bgp.attributes import RouteAttributes
from repro.bgp.messages import Update
from repro.exceptions import BgpError
from repro.net.addresses import IPv4Address, IPv4Prefix

ValueT = TypeVar("ValueT")
KeyT = TypeVar("KeyT")

#: Route attributes -> the export class their route is stored under.
Classify = Callable[[RouteAttributes], Hashable]

#: How many keys a :class:`ChangeLog` remembers the last change of.
CHANGE_LOG_SIZE = 4096


def changelog_unknown_counter(registry: Any, log: str) -> Any:
    """``registry``'s ``sdx_changelog_unknown_total{log}`` counter: one per
    :meth:`ChangeLog.since` that cannot say, whose reader redoes all."""
    return registry.counter(
        "sdx_changelog_unknown_total",
        "Times a change log could not name what changed since a version",
        log=log)


class ChangeLog(Generic[KeyT]):
    """A version counter that remembers which keys it moved for.

    :meth:`since` names the keys changed after a version — or answers
    ``None`` for *unknown*: something unnamed changed (:meth:`record` with
    no keys), or the version lies further back than the
    :data:`CHANGE_LOG_SIZE` keys remembered. One entry per key, the version
    of its last change, oldest first: bounded state, not history.
    ``on_unknown`` is called each time :meth:`since` cannot say.
    """

    def __init__(self, on_unknown: Optional[Callable[[], Any]] = None) -> None:
        self.version = 0
        self._changed_at: "OrderedDict[KeyT, int]" = OrderedDict()
        self._known_from = 0
        self._on_unknown = on_unknown

    def record(self, keys: Optional[Iterable[KeyT]] = None) -> None:
        """One change, to ``keys`` — or, with none given, to anything."""
        self.version += 1
        keys = None if keys is None else list(keys)
        if keys is None or len(keys) > CHANGE_LOG_SIZE:
            self._changed_at.clear()
            self._known_from = self.version
            return
        for key in keys:
            self._changed_at[key] = self.version
            self._changed_at.move_to_end(key)
        while len(self._changed_at) > CHANGE_LOG_SIZE:
            self._known_from = self._changed_at.popitem(last=False)[1]

    def since(self, version: int) -> Optional[List[KeyT]]:
        """The keys changed after ``version``, latest first; ``None``: unknown."""
        if version < self._known_from:
            if self._on_unknown is not None:
                self._on_unknown()
            return None
        changed: List[KeyT] = []
        for key, at in reversed(self._changed_at.items()):
            if at <= version:
                break
            changed.append(key)
        return changed


class PrefixTrie(Generic[ValueT]):
    """A prefix-keyed map with longest-prefix-match lookup.

    Exact operations (:meth:`insert`, :meth:`remove`, :meth:`exact`) are
    O(1); :meth:`longest_match` probes each populated prefix length once,
    longest first.
    """

    def __init__(self) -> None:
        # One {masked_network_int: (prefix, value)} map per prefix length.
        self._by_length: Dict[int, Dict[int, Tuple[IPv4Prefix, ValueT]]] = {}
        self._size = 0

    def copy(self) -> "PrefixTrie[ValueT]":
        """An independent trie holding the same entries."""
        twin: "PrefixTrie[ValueT]" = PrefixTrie()
        twin._by_length = {n: dict(table) for n, table in self._by_length.items()}
        twin._size = self._size
        return twin

    def insert(self, prefix: IPv4Prefix, value: ValueT) -> None:
        """Store ``value`` under ``prefix``, replacing any previous value."""
        table = self._by_length.setdefault(prefix.length, {})
        if prefix.network_int not in table:
            self._size += 1
        table[prefix.network_int] = (prefix, value)

    def remove(self, prefix: IPv4Prefix) -> Optional[ValueT]:
        """Remove ``prefix``, returning its value (``None`` if absent)."""
        table = self._by_length.get(prefix.length)
        if table is None:
            return None
        entry = table.pop(prefix.network_int, None)
        if entry is None:
            return None
        if not table:
            del self._by_length[prefix.length]
        self._size -= 1
        return entry[1]

    def exact(self, prefix: IPv4Prefix) -> Optional[ValueT]:
        """The value stored under exactly ``prefix``, if any."""
        table = self._by_length.get(prefix.length)
        if table is None:
            return None
        entry = table.get(prefix.network_int)
        return entry[1] if entry is not None else None

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        table = self._by_length.get(prefix.length)
        return table is not None and prefix.network_int in table

    def longest_match(self,
                      address: Union[IPv4Address, str, int]
                      ) -> Optional[Tuple[IPv4Prefix, ValueT]]:
        """The most-specific stored prefix containing ``address``."""
        return next(self.matching(address), None)

    def matching(self, address: Union[IPv4Address, str, int]
                 ) -> Iterator[Tuple[IPv4Prefix, ValueT]]:
        """Every stored prefix containing ``address``, most specific
        first."""
        value = (address.value if isinstance(address, IPv4Address)
                 else int(IPv4Address(address)))
        for length in sorted(self._by_length, reverse=True):
            entry = self._by_length[length].get(
                value & IPv4Prefix._mask_for(length))
            if entry is not None:
                yield entry

    def covering(self, prefix: IPv4Prefix) -> List[Tuple[IPv4Prefix, ValueT]]:
        """Every stored prefix that contains ``prefix``, most specific first."""
        found: List[Tuple[IPv4Prefix, ValueT]] = []
        for length in sorted(self._by_length, reverse=True):
            if length > prefix.length:
                continue
            mask = IPv4Prefix._mask_for(length)
            entry = self._by_length[length].get(prefix.network_int & mask)
            if entry is not None:
                found.append(entry)
        return found

    def covered_by(self, prefix: IPv4Prefix) -> List[Tuple[IPv4Prefix, ValueT]]:
        """Every stored prefix contained in ``prefix`` (including itself).

        Per stored length, probes the candidate networks inside ``prefix``
        or scans that length's table, whichever is fewer steps — so the
        cost is bounded by the query, not by what is stored elsewhere.
        """
        found: List[Tuple[IPv4Prefix, ValueT]] = []
        for length, table in self._by_length.items():
            if length < prefix.length:
                continue
            candidates = 1 << (length - prefix.length)
            if candidates <= len(table):
                step = 1 << (32 - length)
                start = prefix.network_int
                for network in range(start, start + candidates * step, step):
                    entry = table.get(network)
                    if entry is not None:
                        found.append(entry)
            else:
                found.extend(entry for entry in table.values()
                             if prefix.contains_prefix(entry[0]))
        return found

    def items(self) -> Iterator[Tuple[IPv4Prefix, ValueT]]:
        """Iterate (prefix, value) pairs in no particular order."""
        for table in self._by_length.values():
            yield from table.values()

    def __iter__(self) -> Iterator[IPv4Prefix]:
        for table in self._by_length.values():
            for prefix, _value in table.values():
                yield prefix

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"PrefixTrie({self._size} prefixes)"


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """One usable route: a prefix, its attributes, and who taught it to us.

    ``export_class`` is the stamp of whoever stored the route (the route
    server: what of the route its export check reads) — derived from the
    other three fields, so no part of the route's identity.
    """

    prefix: IPv4Prefix
    attributes: RouteAttributes
    learned_from: str
    export_class: Hashable = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:
        return (f"RouteEntry({self.prefix} via {self.attributes.next_hop} "
                f"from {self.learned_from})")


class AdjRibIn:
    """The inbound RIB for one peering session.

    Holds the latest route per prefix announced by one peer, applying
    UPDATE messages and reporting which prefixes changed.
    """

    def __init__(self, peer: str):
        self.peer = peer
        self._routes: Dict[IPv4Prefix, RouteEntry] = {}

    def apply(self, update: Update,
              classify: Optional[Classify] = None) -> List[IPv4Prefix]:
        """Apply one update; returns prefixes whose entry actually changed.
        ``classify`` stamps every route stored with its export class."""
        classify = classify or (lambda attributes: None)
        if update.sender != self.peer:
            raise BgpError(
                f"update from {update.sender!r} applied to Adj-RIB-In of {self.peer!r}")
        changed: Dict[IPv4Prefix, None] = {}  # first-seen order, O(1) dedupe
        for withdrawal in update.withdrawals:
            if self._routes.pop(withdrawal.prefix, None) is not None:
                changed[withdrawal.prefix] = None
        for announcement in update.announcements:
            prefix, attributes = announcement.prefix, announcement.attributes
            stored = self._routes.get(prefix)
            if stored is None or stored.attributes != attributes:
                self._routes[prefix] = RouteEntry(
                    prefix, attributes, self.peer, classify(attributes))
                changed[prefix] = None
        return list(changed)

    def reclass(self, classify: Classify) -> List[RouteEntry]:
        """Stamp every route anew — what ``classify`` reads has changed;
        returns the entries that took the place of a differently classed one."""
        moved = [replace(entry, export_class=export_class)
                 for entry in self._routes.values()
                 if (export_class := classify(entry.attributes))
                 != entry.export_class]
        self._routes.update((entry.prefix, entry) for entry in moved)
        return moved

    def route(self, prefix: IPv4Prefix) -> Optional[RouteEntry]:
        """The current route for ``prefix``, if announced."""
        return self._routes.get(prefix)

    def prefixes(self) -> Iterable[IPv4Prefix]:
        """Every prefix this peer currently announces."""
        return self._routes.keys()

    def routes(self) -> Iterable[RouteEntry]:
        """Every current route from this peer."""
        return self._routes.values()

    def __len__(self) -> int:
        return len(self._routes)

    def __repr__(self) -> str:
        return f"AdjRibIn(peer={self.peer!r}, {len(self)} routes)"


class RibView:
    """A read-only, filterable view over a set of routes.

    This is the object the SDX policy API hands to participants so they
    can group traffic by BGP attributes (Section 3.2)::

        youtube_prefixes = rib.filter("as_path", r".*43515$")
    """

    def __init__(self, routes: Dict[IPv4Prefix, RouteEntry]):
        self._routes = routes

    def route(self, prefix: IPv4Prefix) -> Optional[RouteEntry]:
        """The route for ``prefix``, if present."""
        return self._routes.get(prefix)

    def prefixes(self) -> Tuple[IPv4Prefix, ...]:
        """Every prefix in the view, sorted for determinism."""
        return tuple(sorted(self._routes))

    def routes(self) -> Tuple[RouteEntry, ...]:
        """Every route in the view, sorted by prefix."""
        return tuple(self._routes[prefix] for prefix in sorted(self._routes))

    def filter(self, attribute: str, pattern: str) -> Tuple[IPv4Prefix, ...]:
        """Prefixes whose route matches a regular expression on an attribute.

        Supported attributes: ``as_path`` (space-separated path text) and
        ``next_hop`` (dotted quad).
        """
        if attribute == "as_path":
            matcher = AsPathPattern(pattern)
            return tuple(sorted(
                prefix for prefix, entry in self._routes.items()
                if matcher.matches(entry.attributes.as_path)))
        if attribute == "next_hop":
            compiled = AsPathPattern(pattern)  # plain regex over text
            return tuple(sorted(
                prefix for prefix, entry in self._routes.items()
                if compiled._pattern.search(str(entry.attributes.next_hop))))
        raise BgpError(f"unsupported RIB filter attribute {attribute!r}")

    def originated_by(self, asn: int) -> Tuple[IPv4Prefix, ...]:
        """Prefixes whose AS path originates at ``asn``."""
        return tuple(sorted(
            prefix for prefix, entry in self._routes.items()
            if entry.attributes.as_path.asns
            and entry.attributes.as_path.origin_asn == asn))

    def __len__(self) -> int:
        return len(self._routes)

    def __repr__(self) -> str:
        return f"RibView({len(self)} routes)"

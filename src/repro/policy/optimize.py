"""Classifier post-processing: shadow elimination and the drop tail.

The composition algebra is correct but wasteful — cross products leave
behind rules that can never fire (their match is covered by an earlier
rule) and runs of drops above the catch-all drop. The switch only has room
for ~half a million entries (Section 4.2 cites high-end hardware limits),
so the SDX compiler runs these reductions on every table it emits. All
transformations here preserve first-match semantics exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.net.addresses import IPv4Prefix
from repro.policy.classifier import Classifier, Rule
from repro.policy.headerspace import HeaderSpace


_MASKS = [IPv4Prefix._mask_for(length) for length in range(33)]


def _at(level: dict, value: Any) -> Iterable:
    """``level`` at ``value`` and at no constraint — the latter: at any."""
    if value is None:
        return level.values()
    return [level[key] for key in (value, None) if key in level]


class ShadowIndex:
    """Matches already emitted, found by what could cover — or overlap — a
    later one.

    A covering match names a subset of the covered one's fields, with the
    same exact values and containing prefixes; an overlapping one may also
    name more, or narrower prefixes. Matches are bucketed by the
    constraints nearly every SDX rule carries — the ``dstmac`` tag, the
    ingress ``port`` and, in the tag-less data plane, ``dstip`` — so a
    lookup visits only the buckets that agree with it on each of the three
    or leave one of the two unconstrained, instead of scanning the table.
    """

    def __init__(self) -> None:
        # dstmac -> port -> (dstip -> bucket, dstip -> the buckets of the
        # prefixes inside it); a constraint a match lacks is ``None``. Tag
        # first: the default layer's port-less rules then meet the few ports
        # that except their tag, not every port of the exchange.
        self._by_mac: Dict[Any, Dict[Any, Tuple[dict, dict]]] = {}
        self._dstip_lengths: Set[int] = set()

    def _key(self, match: HeaderSpace) -> Tuple[Any, Any, list]:
        """Port, tag and ``dstip`` — then its recorded widenings, then none."""
        mac, dstip = match.get("dstmac"), match.get("dstip")
        mac = None if mac is None else mac.value  # hashes without a call
        if not isinstance(dstip, IPv4Prefix):
            return match.get("port"), mac, [None]
        length, network = dstip.length, dstip.network_int
        if length not in self._dstip_lengths:
            # One more length to lie inside of, for what is there already.
            self._dstip_lengths.add(length)
            for ports in self._by_mac.values():
                for exact, inside in ports.values():
                    for net in exact:
                        if net is not None and net[0] > length:
                            inside.setdefault((length, net[1] & _MASKS[length]),
                                              []).append(exact[net])
        return match.get("port"), mac, [(length, network), *(
            (shorter, network & _MASKS[shorter])
            for shorter in self._dstip_lengths if shorter < length), None]

    def _near(self, port: Any, mac: Any, nets: list) -> List[list]:
        """The buckets a match of this key can overlap: on port, tag and
        ``dstip`` each the same, or one of the two has the wider."""
        found: List[list] = []
        for ports in _at(self._by_mac, mac):
            for exact, inside in _at(ports, port):
                if nets[0] is None:
                    found.extend(exact.values())
                else:
                    found.extend(exact[net] for net in nets if net in exact)
                    found.extend(inside.get(nets[0], ()))
        return found

    def add(self, match: HeaderSpace,
            unless_covered: bool = False) -> Optional[int]:
        """Record ``match`` as emitted — ``unless_covered`` by a recorded
        one, which returns ``None``. Returns its *overlap depth*: the
        length of the longest chain of recorded matches, each overlapping
        the next, that ends in it — so matches of one depth are pairwise
        disjoint, and of two that overlap the later is the deeper."""
        port, mac, nets = self._key(match)
        depth = 0
        for bucket in self._near(port, mac, nets):
            for earlier, above in bucket:
                if unless_covered and earlier.covers(match):
                    return None
                if above >= depth and earlier.overlaps(match):
                    depth = above + 1
        exact, inside = self._by_mac.setdefault(mac, {}).setdefault(
            port, ({}, {}))
        if nets[0] not in exact:
            exact[nets[0]] = []
            for wider in nets[1:-1]:
                inside.setdefault(wider, []).append(exact[nets[0]])
        exact[nets[0]].append((match, depth))
        return depth

    def covers(self, match: HeaderSpace) -> bool:
        """True if some recorded match covers ``match``."""
        return any(earlier.covers(match)
                   for bucket in self._near(*self._key(match))
                   for earlier, _depth in bucket)


def remove_shadowed(classifier: Classifier,
                    index: Optional[ShadowIndex] = None) -> Classifier:
    """Drop rules fully covered by a single earlier rule.

    A rule whose match is a subset of an earlier rule's match can never be
    the first match, whatever its actions, so removing it is always safe.
    (Covers-by-union shadowing is not detected; it is rare in SDX output
    and detecting it is NP-hard in general.) Pass ``index`` to get the
    kept matches back, so a table installed below can be checked too.
    """
    index = ShadowIndex() if index is None else index
    return Classifier([
        rule for rule in classifier.rules
        if index.add(rule.match, unless_covered=True) is not None])


def merge_drop_tail(classifier: Classifier) -> Classifier:
    """Collapse a trailing run of drop rules into the final catch-all.

    Compiled SDX policies end in a catch-all drop; any drop rules directly
    above it are redundant because falling through reaches the catch-all
    with the same outcome.
    """
    rules = list(classifier.rules)
    if not rules or not rules[-1].is_drop or not rules[-1].match.is_wildcard:
        return classifier
    while len(rules) >= 2 and rules[-2].is_drop:
        del rules[-2]
    return Classifier(rules)

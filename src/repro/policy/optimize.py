"""Classifier post-processing: shadow elimination and rule deduplication.

The composition algebra is correct but wasteful — cross products leave
behind rules that can never fire (their match is covered by an earlier
rule) and runs of rules with identical actions. The switch only has room
for ~half a million entries (Section 4.2 cites high-end hardware limits),
so the SDX compiler runs these reductions on every table it emits. All
transformations here preserve first-match semantics exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.net.addresses import IPv4Prefix
from repro.policy.classifier import Classifier, Rule
from repro.policy.headerspace import HeaderSpace


class ShadowIndex:
    """Matches already emitted, found by what could cover a later one.

    A covering match names a subset of the covered one's fields, with the
    same exact values and containing prefixes. Matches are bucketed by the
    constraints nearly every SDX rule carries — ingress ``port``,
    ``dstmac`` tag and, in the tag-less data plane, ``dstip`` — so a
    lookup visits only the buckets that leave each of the three as it is,
    widened (``dstip``) or unconstrained, instead of scanning the table.
    """

    def __init__(self) -> None:
        self._buckets: Dict[tuple, List[HeaderSpace]] = {}
        self._dstip_lengths: Set[int] = set()

    def add(self, match: HeaderSpace) -> None:
        """Record ``match`` as emitted."""
        dstip = match.get("dstip")
        if isinstance(dstip, IPv4Prefix):
            self._dstip_lengths.add(dstip.length)
            net = (dstip.length, dstip.network_int)
        else:
            net = None
        self._buckets.setdefault(
            (match.get("port"), match.get("dstmac"), net), []).append(match)

    def covers(self, match: HeaderSpace) -> bool:
        """True if some recorded match covers ``match``."""
        port, dstmac, dstip = (
            match.get("port"), match.get("dstmac"), match.get("dstip"))
        nets: List[Optional[Tuple[int, int]]] = [None]
        if isinstance(dstip, IPv4Prefix):
            nets += [
                (length, dstip.network_int & IPv4Prefix._mask_for(length))
                for length in self._dstip_lengths if length <= dstip.length]
        for p in (port, None) if port is not None else (None,):
            for m in (dstmac, None) if dstmac is not None else (None,):
                for net in nets:
                    for earlier in self._buckets.get((p, m, net), ()):
                        if earlier.covers(match):
                            return True
        return False


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
    kept: List[Rule] = []
    for rule in classifier.rules:
        if index.covers(rule.match):
            continue
        kept.append(rule)
        index.add(rule.match)
    return Classifier(kept)


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


def coalesce_adjacent(classifier: Classifier) -> Classifier:
    """Merge an adjacent pair where the later rule covers the earlier one
    and both have identical actions.

    In that situation the earlier rule is redundant: packets it matches
    fall through to the later, identically-acting rule. This pattern shows
    up when a specific policy rule duplicates the default behaviour.
    """
    rules = list(classifier.rules)
    changed = True
    while changed:
        changed = False
        for index in range(len(rules) - 1):
            earlier, later = rules[index], rules[index + 1]
            if earlier.actions == later.actions and later.match.covers(earlier.match):
                del rules[index]
                changed = True
                break
    return Classifier(rules)


def optimize(classifier: Classifier) -> Classifier:
    """Run the full reduction pipeline (safe on any total classifier)."""
    reduced = remove_shadowed(classifier)
    reduced = coalesce_adjacent(reduced)
    reduced = merge_drop_tail(reduced)
    return reduced

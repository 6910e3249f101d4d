"""Virtual next-hop (VNH) and virtual MAC (VMAC) allocation.

Each forwarding equivalence class receives one VNH IP address from a
reserved pool and one VMAC (Section 4.2). The allocator:

* hands the VNH to the route server's next-hop rewriter, so participants'
  border routers learn it as the BGP next hop;
* binds VNH → VMAC in the SDX ARP responder, so those routers tag packets
  with the FEC's VMAC;
* resolves prefix → group / VMAC for the policy compiler.

The incremental fast path (Section 4.3.2) allocates *ephemeral* singleton
assignments for prefixes whose best route just changed; the background
re-optimisation releases them when the full FEC computation catches up.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.bgp.rib import ChangeLog, changelog_unknown_counter
from repro.core.fec import PrefixGroup
from repro.dataplane.arp import ArpResponder
from repro.exceptions import CompilationError
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.net.mac import MacAddress, vmac_for_fec
from repro.telemetry import Telemetry

#: Default pool the VNH addresses are drawn from.
DEFAULT_VNH_POOL = IPv4Prefix("172.16.0.0/16")


class LiveVmacs:
    """The VMACs of the live assignments, kept as they come and go: a set
    to test against, and :attr:`changes` naming each VMAC that came or
    went — what is read per verified window instead of a whole index."""

    def __init__(self) -> None:
        self._live: Set[MacAddress] = set()
        self.changes: ChangeLog[MacAddress] = ChangeLog()

    def __contains__(self, vmac: object) -> bool:
        return vmac in self._live

    def __iter__(self) -> Iterator[MacAddress]:
        return iter(self._live)

    def __len__(self) -> int:
        return len(self._live)

    def add(self, vmac: MacAddress) -> None:
        """``vmac`` came alive."""
        self._live.add(vmac)
        self.changes.record((vmac,))

    def discard(self, vmac: MacAddress) -> None:
        """``vmac`` died."""
        self._live.discard(vmac)
        self.changes.record((vmac,))

    def replace(self, vmacs: Set[MacAddress]) -> None:
        """Exactly ``vmacs`` are alive."""
        moved = self._live ^ vmacs
        self._live = vmacs
        if moved:
            self.changes.record(moved)


class VnhAllocator:
    """Allocates (VNH, VMAC) pairs and keeps the ARP responder in sync."""

    def __init__(self, pool: IPv4Prefix = DEFAULT_VNH_POOL,
                 responder: Optional[ArpResponder] = None,
                 telemetry: Optional[Telemetry] = None):
        self.pool = pool
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.responder = responder if responder is not None else ArpResponder(pool)
        self.responder.bind_telemetry(self.telemetry)
        registry = self.telemetry.registry
        self._allocated_counter = registry.counter(
            "sdx_vnh_allocated_total", "Fresh (VNH, VMAC) pairs drawn from the pool")
        self._ephemeral_counter = registry.counter(
            "sdx_vnh_ephemeral_total", "Fast-path singleton assignments made")
        self._recycled_counter = registry.counter(
            "sdx_vnh_recycled_total", "Quarantined pairs released for reuse")
        self._live_gauge = registry.gauge(
            "sdx_vnh_live", "Live (VNH, VMAC) pairs, groups plus ephemerals")
        self._retagged_counter = registry.counter(
            "sdx_vnh_prefixes_retagged_total",
            "Prefixes whose (VNH, VMAC) pair a group reassignment moved")
        #: Every assignment mutation, naming the prefixes whose ``(VNH,
        #: VMAC)`` pair it moved: an ephemeral grant or drop its prefix, a
        #: group reassignment the prefixes whose pair changed.
        self.changes: ChangeLog[IPv4Prefix] = ChangeLog(
            changelog_unknown_counter(registry, "vnh").inc)
        #: The VMAC of every live pair, groups plus ephemerals.
        self.live_vmacs = LiveVmacs()
        self._next_offset = 1  # skip the network address
        self._next_tag = 1
        self._pair_by_group: Dict[int, Tuple[IPv4Address, MacAddress]] = {}
        self._group_of_prefix: Dict[IPv4Prefix, int] = {}
        self._groups: Dict[int, PrefixGroup] = {}
        self._ephemeral: Dict[IPv4Prefix, Tuple[IPv4Address, MacAddress]] = {}
        # Pairs whose rules may still be installed until the in-flight
        # table swap deletes them (reusable after finish_swap), and pairs
        # confirmed rule-free (the recycling free list).
        self._pending_retire: List[Tuple[IPv4Address, MacAddress]] = []
        self._free: List[Tuple[IPv4Address, MacAddress]] = []

    @property
    def generation(self) -> int:
        """The version counter of :attr:`changes`."""
        return self.changes.version

    @contextlib.contextmanager
    def atomic(self) -> Iterator[None]:
        """If the block raises, group and ephemeral pairs, quarantine and
        free lists, pool cursor and ARP bindings are as before it — at no
        copy per grouped prefix: :meth:`assign_groups` builds new maps, and
        the replaced ones are the undo record. Only :attr:`changes` moves
        on, naming what the block moved once more, for having moved back."""
        version = self.changes.version
        maps = (self._pair_by_group, self._group_of_prefix, self._groups)
        rest = (dict(self._ephemeral), list(self._pending_retire),
                list(self._free), self._next_offset, self._next_tag)
        try:
            yield
        except BaseException:
            self._pair_by_group, self._group_of_prefix, self._groups = maps
            (self._ephemeral, self._pending_retire, self._free,
             self._next_offset, self._next_tag) = rest
            self._rebind()
            if self.changes.version != version:
                self.changes.record(self.changes.since(version))
            raise

    def _rebind(self) -> None:
        """The responder answers for the live pairs, and no other."""
        live = dict([*self._pair_by_group.values(),
                     *self._ephemeral.values()])
        self.responder.replace(live)
        self.live_vmacs.replace(set(live.values()))
        self._live_gauge.set(self.assignments)

    # ------------------------------------------------------------------
    # Steady-state assignment
    # ------------------------------------------------------------------

    def assign_groups(self, groups: Iterable[PrefixGroup]) -> None:
        """Replace the current assignment with one per given group.

        Assignment is *stable*: a group whose prefix set is unchanged —
        or shrank, remaining a subset of one old group — keeps that
        group's (VNH, VMAC) pair, so unchanged groups diff to zero
        FlowMods and border-router tags stay valid. Any other group gets
        a pair that was **not** live in the previous generation — the
        table swap is phased (install, re-advertise, delete), so reusing
        a tag for a *larger or different* packet population while the
        old rules are still installed could hand a packet a stale
        stranger's forwarding; a subset population can only ever hit its
        own old rules. One carve-out: a group containing a prefix that
        currently holds a fast-path (ephemeral) override never reuses —
        that prefix's old main-table rules predate the update its shadow
        rules patched, so handing it its old tag mid-swap would expose
        pre-update forwarding that is neither its before nor its after
        state. Pairs retired here (including every ephemeral) become
        reusable only once :meth:`finish_swap` confirms the swap deleted
        their rules; until then they sit in a quarantine list. The pool
        therefore never leaks across recompilations, though it must hold
        roughly the live groups plus one generation of churn.

        The partition assigned already, under the same group ids and with
        no ephemeral live, is no change at all: no pair moves, nothing is
        rebound or recorded, and :attr:`generation` stays where it was.
        """
        with self.telemetry.span("vnh.assign_groups"):
            groups = list(groups)
            if not self._ephemeral and self._holds(groups):
                return
            self._assign_groups(groups)

    def _holds(self, groups: List[PrefixGroup]) -> bool:
        """True when ``groups`` partition the prefixes as the assigned ones
        do, id for id — an assignment reads nothing else of a group. Equal
        groups that are other objects take their places, so that the next
        such check is by identity."""
        assigned = self._groups
        if len(groups) != len(assigned):
            return False
        fresh = [group for group in groups
                 if assigned.get(group.group_id) is not group]
        if not fresh:
            return True
        if not all((held := assigned.get(group.group_id)) is not None
                   and held.prefixes == group.prefixes for group in fresh):
            return False
        self._groups = {group.group_id: group for group in groups}
        return True

    def _assign_groups(self, groups: Iterable[PrefixGroup]) -> None:
        previous: Dict[frozenset, Tuple[IPv4Address, MacAddress]] = {
            group.prefixes: self._pair_by_group[gid]
            for gid, group in self._groups.items()
        }
        overridden = frozenset(self._ephemeral)
        self._pending_retire.extend(self._ephemeral.values())
        # New maps, not the old ones emptied: :meth:`atomic` keeps those.
        chosen = self._pair_by_group = {}
        self._group_of_prefix, self._groups, self._ephemeral = {}, {}, {}
        incoming = list(groups)
        unmatched: List[PrefixGroup] = []
        for group in incoming:
            pair = (previous.pop(group.prefixes, None)
                    if group.prefixes.isdisjoint(overridden) else None)
            if pair is not None:
                chosen[group.group_id] = pair
            else:
                unmatched.append(group)
        # Whose pair moves: every prefix of a group given a fresh pair (every
        # override a group holds), what an unmatched old group loses to no
        # group and the overrides left in neither — disjoint parts.
        moved: List[frozenset] = []
        unmatched_before = list(previous)
        # A shrunken group may also keep its pair: its new population is a
        # subset of the packets the old tag carried, so old rules can only
        # give those packets their old forwarding, never a stale stranger's.
        # Largest groups claim a donor first — they carry the most rules.
        for group in sorted(unmatched, key=lambda g: -len(g.prefixes)):
            donor = (next((old_prefixes for old_prefixes in previous
                           if group.prefixes <= old_prefixes), None)
                     if group.prefixes.isdisjoint(overridden) else None)
            if donor is None:
                moved.append(group.prefixes)
            chosen[group.group_id] = (
                previous.pop(donor) if donor is not None else self._allocate())
        for group in incoming:
            self._groups[group.group_id] = group
            for prefix in group.prefixes:
                self._group_of_prefix[prefix] = group.group_id
        self._rebind()
        self._pending_retire.extend(previous.values())
        lost = [prefixes.difference(self._group_of_prefix)
                for prefixes in unmatched_before]
        moved.extend(lost)
        moved.append(frozenset(
            prefix for prefix in overridden
            if prefix not in self._group_of_prefix
            and not any(prefix in part for part in lost)))
        self._retagged_counter.inc(sum(map(len, moved)))
        self.changes.record(itertools.chain.from_iterable(moved))

    def finish_swap(self) -> int:
        """Release quarantined pairs: the phased table swap completed.

        Called by the incremental engine once a full installation's
        deletes have been flushed — every rule matching a retired VMAC is
        now gone, so those pairs can be recycled by future allocations.
        Returns how many pairs were released.
        """
        released = len(self._pending_retire)
        self._free.extend(self._pending_retire)
        self._pending_retire.clear()
        self._recycled_counter.inc(released)
        return released

    def _allocate(self) -> Tuple[IPv4Address, MacAddress]:
        self._allocated_counter.inc()
        if self._free:
            return self._free.pop(0)
        if self._next_offset >= self.pool.num_addresses - 1:
            raise CompilationError(
                f"VNH pool {self.pool} exhausted after "
                f"{self._next_offset} allocations")
        vnh = self.pool.first_address + self._next_offset
        self._next_offset += 1
        vmac = vmac_for_fec(self._next_tag)
        self._next_tag += 1
        return vnh, vmac

    # ------------------------------------------------------------------
    # Fast-path (ephemeral) assignment
    # ------------------------------------------------------------------

    def assign_ephemeral(self, prefix: IPv4Prefix) -> Tuple[IPv4Address, MacAddress]:
        """A fresh singleton (VNH, VMAC) for one just-updated prefix.

        The paper's fast path "bypasses the actual computation of the VNH
        entirely by simply assuming a new VNH is needed". The prefix's old
        group binding stays valid for other prefixes in the group.
        """
        with self.telemetry.span("vnh.assign", prefix=str(prefix)):
            vnh, vmac = self._allocate()
            self._ephemeral[prefix] = (vnh, vmac)
            self.changes.record((prefix,))
            self.responder.bind(vnh, vmac)
            self.live_vmacs.add(vmac)
        self._ephemeral_counter.inc()
        self._live_gauge.set(self.assignments)
        return vnh, vmac

    def drop_ephemeral(self, prefix: IPv4Prefix) -> None:
        """Release the fast-path assignment for ``prefix`` (if any).

        The pair is quarantined, not freed: the shadow rules matching its
        VMAC stay installed until the next background re-optimisation
        deletes them, so the pair only recycles after that swap's
        :meth:`finish_swap`.
        """
        assigned = self._ephemeral.pop(prefix, None)
        if assigned is not None:
            self.changes.record((prefix,))
            self.responder.unbind(assigned[0])
            self.live_vmacs.discard(assigned[1])
            self._pending_retire.append(assigned)
            self._live_gauge.set(self.assignments)

    def ephemeral_prefixes(self) -> Tuple[IPv4Prefix, ...]:
        """Prefixes currently carrying a fast-path assignment."""
        return tuple(sorted(self._ephemeral))

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def group_of(self, prefix: IPv4Prefix) -> Optional[PrefixGroup]:
        """The group containing ``prefix``, if it is in any."""
        group_id = self._group_of_prefix.get(prefix)
        return None if group_id is None else self._groups[group_id]

    def vnh_for_group(self, group_id: int) -> IPv4Address:
        """The VNH of a group."""
        try:
            return self._pair_by_group[group_id][0]
        except KeyError:
            raise CompilationError(f"no VNH assigned to group {group_id}") from None

    def vmac_for_group(self, group_id: int) -> MacAddress:
        """The VMAC of a group."""
        try:
            return self._pair_by_group[group_id][1]
        except KeyError:
            raise CompilationError(f"no VMAC assigned to group {group_id}") from None

    def next_hop_for_prefix(self, prefix: IPv4Prefix) -> Optional[IPv4Address]:
        """The VNH to advertise for ``prefix``, if it is tagged.

        Ephemeral (fast-path) assignments override group assignments;
        untagged prefixes return ``None`` so the route server re-advertises
        the real next hop unchanged.
        """
        ephemeral = self._ephemeral.get(prefix)
        if ephemeral is not None:
            return ephemeral[0]
        group_id = self._group_of_prefix.get(prefix)
        if group_id is None:
            return None
        return self._pair_by_group[group_id][0]

    def vmac_for_prefix(self, prefix: IPv4Prefix) -> Optional[MacAddress]:
        """The VMAC tag carried by packets destined into ``prefix``."""
        ephemeral = self._ephemeral.get(prefix)
        if ephemeral is not None:
            return ephemeral[1]
        group_id = self._group_of_prefix.get(prefix)
        if group_id is None:
            return None
        return self._pair_by_group[group_id][1]

    def groups(self) -> Tuple[PrefixGroup, ...]:
        """Every assigned group, by id."""
        return tuple(self._groups[gid] for gid in sorted(self._groups))

    def vmac_index(self) -> Dict[MacAddress, str]:
        """VMAC → FEC label for every live assignment.

        The label is the group's representative prefix (its smallest
        member — stable across recomputation) or, for a fast-path
        singleton, the overridden prefix itself. The monitoring
        collector uses this to attribute dstmac-matching flow rules
        back to the FEC whose traffic they carry; what only asks whether
        a VMAC is live reads :attr:`live_vmacs`.
        """
        index: Dict[MacAddress, str] = {}
        for gid, group in self._groups.items():
            index[self._pair_by_group[gid][1]] = str(group.representative)
        for prefix, (_vnh, vmac) in self._ephemeral.items():
            index[vmac] = str(prefix)
        return index

    @property
    def assignments(self) -> int:
        """Total live (VNH, VMAC) pairs, groups plus ephemerals."""
        return len(self._pair_by_group) + len(self._ephemeral)

    def __repr__(self) -> str:
        return (f"VnhAllocator(pool={self.pool}, {len(self._pair_by_group)} groups, "
                f"{len(self._ephemeral)} ephemeral)")

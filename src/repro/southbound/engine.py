"""The southbound engine: delta computation, batching, two-phase apply.

:class:`SouthboundEngine` owns the path from "here is the table the
compiler wants" to "here are the FlowMod batches the switch executes".
Deltas are computed against the table as it will stand once pending mods
are flushed — block by block against the compilation it last synced while
the table is exactly what the engine left it, over the live table
otherwise (:mod:`repro.southbound.diff`) — coalesced per rule key in an
:class:`~repro.southbound.queue.UpdateQueue`, ordered by
:func:`schedule_two_phase`, and applied in bounded batches with per-batch
timing.

Priority-safe ordering
----------------------

:func:`schedule_two_phase` emits adds and modifies first, jointly sorted
by **descending** priority, then deletes sorted by **ascending**
priority. That order makes every prefix of the mod sequence safe: at any
intermediate table state, each packet is forwarded exactly as the old
table or the new table would — never into a transient hole or onto a
stale mid-priority rule.

The compiler keys the main table by overlap depth, so a priority is a
*level* shared by many rules, and old and new rules meet on levels while a
swap is under way. Two facts carry the argument: within one compilation
two rules of a level never match the same packet, and between an old and
a new rule of one level the table lets the older — the old table's — win.
Read "above" as *strictly higher, or same level and older*:

* *Phase 1, descending:* when a processed (added/modified) rule wins a
  lookup, every new-table rule on a higher level is already present in new
  state and did not match, and none of its own level can match, so it is
  the new table's winner. When an untouched rule wins, every old rule is
  still present (deletes have not started) and the new ones of its level
  are younger, so it is the old table's winner.
* *Phase 2, ascending:* the table is the new rules plus a
  highest-priorities-last shrinking remnant of doomed old rules. If a
  remnant rule wins, nothing above it matched on either side, so it is
  the old winner; otherwise the winner is the new winner.

Deleting in the opposite order would expose mid-priority stale rules:
with the old top rule gone but a lower stale rule still installed, a
packet could be claimed by a rule that is neither table's winner — the
misrouting this engine exists to prevent.
"""

from __future__ import annotations

import contextlib
import logging
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple)

from repro.policy.flowrules import FlowRule
from repro.southbound.diff import (
    PRIORITY_CEILING, Delta, FlowMod, FlowModOp, compute_block_delta,
    compute_delta, rule_key)
from repro.southbound.queue import UpdateQueue
from repro.southbound.stats import SouthboundStats
from repro.telemetry import Telemetry
from repro.telemetry.log import kv

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.dataplane.flowtable import FlowTable

logger = logging.getLogger("repro.southbound.engine")


@dataclass(frozen=True)
class SouthboundConfig:
    """Tunables for the southbound engine.

    ``max_batch_size`` bounds FlowMods per batch (per apply-latency
    sample); ``max_pending`` is the queue's backpressure threshold. Every
    submission flushes synchronously — rules are visible as soon as the
    submitting call returns — except inside
    :meth:`SouthboundEngine.deferred`, which coalesces several.
    """

    max_batch_size: int = 128
    max_pending: int = 4096


def schedule_two_phase(mods: Iterable[FlowMod]) -> List[FlowMod]:
    """Order ``mods`` so every prefix of the sequence is safe to expose.

    Phase one: adds and modifies, highest priority first. Phase two:
    deletes, lowest priority first. See the module docstring for the
    safety argument.
    """
    phase_one = sorted(
        (mod for mod in mods if mod.op is not FlowModOp.DELETE),
        key=lambda mod: -mod.priority)
    phase_two = sorted(
        (mod for mod in mods if mod.op is FlowModOp.DELETE),
        key=lambda mod: mod.priority)
    return phase_one + phase_two


#: Observer signature: called with each applied batch, in order.
#:
#: Observers may additionally implement any of three optional hooks the
#: engine dispatches by duck typing around each apply window (one
#: :meth:`SouthboundEngine._apply` call): ``on_apply_begin()`` before the
#: first batch and ``on_apply_end()`` after the last batch —
#: where a verifying observer may raise to reject the window — and
#: ``on_rollback()`` once :meth:`SouthboundEngine.atomic` has put the table
#: back, for one that caches verdicts about it.
BatchObserver = Callable[[Sequence[FlowMod]], None]


class SouthboundEngine:
    """Turns desired rule tables into batched, priority-safe FlowMods."""

    def __init__(self, table: "FlowTable",
                 config: Optional[SouthboundConfig] = None,
                 telemetry: Optional[Telemetry] = None):
        self.table = table
        self.config = config or SouthboundConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.stats = SouthboundStats(registry=self.telemetry.registry)
        self.queue = UpdateQueue(max_pending=self.config.max_pending)
        self._observers: List[BatchObserver] = []
        self._defer_depth = 0
        # Inside an atomic block: (mod applied, rule its key held before).
        self._journal: Optional[List[tuple]] = None
        # The blocks the main table holds once the queue is flushed, known
        # while the table is at generation ``_synced`` (``None``: unknown).
        self._main: Optional[Tuple[Sequence[FlowRule], ...]] = ()
        self._synced: Optional[int] = None if len(table) else table.generation

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def sync_classifier(self, rules, flush: bool = True) -> Delta:
        """Reconcile the live table with a compiled one: ``rules``, keyed
        as the compiler numbered them — a compilation (anything with
        ``rules`` and ``blocks``) or a plain rule sequence.

        Computes the minimal delta against what is currently installed
        (including any fast-path shadow rules, which the delta reclaims as
        deletes), enqueues it, and — unless deferred — applies it.
        Returns the delta for the caller's accounting.

        The diff is taken against the *projected* table — live rules plus
        pending mods — so back-to-back syncs queued inside one
        :meth:`deferred` window stay correct while coalescing. Given a
        compilation while the table is at the generation the engine left it
        at, it is taken block by block against the compilation synced last
        (:func:`~repro.southbound.diff.compute_block_delta`), and shadow
        rules are found on the table's top levels and in the queue;
        otherwise every rule is keyed on both sides. With ``flush=False``
        the caller stages the delta and drives the two flush phases itself.
        """
        blocks = getattr(rules, "blocks", None)
        if blocks is not None:
            rules = rules.rules
        with self.telemetry.span("southbound.sync",
                                 rules=len(rules)) as span:
            with self.telemetry.span("southbound.diff") as diff:
                if blocks is not None and self._in_step():
                    delta, keyed = compute_block_delta(
                        self._main, blocks,
                        self._projected_rules(PRIORITY_CEILING))
                else:
                    projected = self._projected_rules()
                    delta = compute_delta(projected, rules)
                    keyed = len(projected) + len(rules)
                diff.set_tag(keyed=keyed)
            self._main, self._synced = blocks, self.table.generation
            span.set_tag(mods=delta.total, unchanged=delta.unchanged)
            self.stats.counters["syncs"].inc()
            self.stats.counters["rules_unchanged"].inc(delta.unchanged)
            self.queue.enqueue_many(delta.mods)
        self._after_submit(flush)
        return delta

    def push_rules(self, rules: Iterable[FlowRule]) -> int:
        """Submit pre-built rules (the fast path's shadow rules) as adds.
        One below :data:`PRIORITY_CEILING` leaves the main table unknown
        until the next sync keys it whole."""
        count = 0
        with self.telemetry.span("southbound.push") as span:
            for rule in rules:
                self.queue.enqueue(FlowMod.add(rule))
                if rule.priority < PRIORITY_CEILING:
                    self._main = None
                count += 1
            span.set_tag(rules=count)
            self._after_submit()
        return count

    def _projected_rules(self, floor: Optional[int] = None
                         ) -> Sequence[FlowRule]:
        """The table as it will look once pending mods are flushed — from
        priority ``floor`` up, if given."""
        live = (self.table.rules if floor is None
                else self.table.rules_from(floor))
        if not len(self.queue):
            return live
        keyed = {rule_key(rule): rule for rule in live}
        for mod in self.queue.pending_mods():
            if floor is not None and mod.priority < floor:
                continue
            if mod.op is FlowModOp.DELETE:
                keyed.pop(mod.key, None)
            else:
                keyed[mod.key] = mod.rule
        return list(keyed.values())

    def _in_step(self) -> bool:
        """True when the main table is known: at the generation this engine
        left it at, holding the blocks it synced last (plus what is
        queued)."""
        return self._main is not None and self._synced == self.table.generation

    def _after_submit(self, flush: bool = True) -> None:
        self.stats.counters["mods_coalesced"].set(self.queue.coalesced)
        if not flush:
            return
        if self.queue.needs_flush:
            self.stats.counters["backpressure_flushes"].inc()
            self.flush()
        elif not self._defer_depth:
            self.flush()

    @contextlib.contextmanager
    def deferred(self):
        """Hold auto-flush open so a burst coalesces into one flush.

        The runtime processes each event batch inside this window: the
        per-event FlowMods pile up in the queue (coalescing per rule
        key — an add then delete of the same fast-path rule annihilates)
        and are applied once, on exit. Nests safely; the queue's
        ``needs_flush`` backpressure still forces a flush mid-window.
        Explicit :meth:`flush`/:meth:`flush_installs` calls (e.g. a full
        table swap inside the window) also proceed normally.
        """
        self._defer_depth += 1
        try:
            yield self
        finally:
            self._defer_depth -= 1
            if not self._defer_depth:
                self.flush()

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """FlowMods queued but not yet applied."""
        return len(self.queue)

    def add_observer(self, observer: BatchObserver) -> None:
        """Register a callback invoked after each batch is applied."""
        self._observers.append(observer)

    def remove_observer(self, observer: BatchObserver) -> None:
        """Unregister a batch observer; unknown observers are ignored.

        Transient observers (the verification swap monitor, golden-batch
        capture in tests) attach around one flush window and must detach
        without disturbing longer-lived observers.
        """
        with contextlib.suppress(ValueError):
            self._observers.remove(observer)

    def flush_installs(self) -> int:
        """Apply pending adds and modifies now, leaving deletes queued.

        The first half of a consistency-preserving table swap: after this
        returns, both the old and the new rules are installed, so the
        caller can repoint upstream state (the controller re-advertises
        virtual next hops here) before :meth:`flush` reclaims the old
        rules.
        """
        mods = self.queue.drain()
        installs = [mod for mod in mods if mod.op is not FlowModOp.DELETE]
        deletes = [mod for mod in mods if mod.op is FlowModOp.DELETE]
        applied = self._apply(schedule_two_phase(installs))
        self.queue.restore(deletes)
        return applied

    def flush(self) -> int:
        """Drain the queue and apply everything; returns mods applied."""
        return self._apply(schedule_two_phase(self.queue.drain()))

    def _dispatch_hook(self, name: str, *args) -> None:
        """Invoke an optional observer hook on every observer that has it."""
        for observer in self._observers:
            hook = getattr(observer, name, None)
            if hook is not None:
                hook(*args)

    @contextlib.contextmanager
    def atomic(self) -> Iterator[None]:
        """If the block raises, every key it touched gets back the rule it
        held (put back, a deleted rule counts from zero) and the queue its
        pending mods; observers hear ``on_rollback()``. Each apply window
        is such a block: a hook or observer that raises — a strict verifier
        refusing the window — leaves no half of it behind, and its mods are
        dropped, not retried. Inside an open block another adds nothing:
        the outermost undoes it all.
        """
        if self._journal is not None:
            yield
            return
        journal = self._journal = []
        pending = self.queue.pending_mods()
        main, in_step = self._main, self._in_step()
        try:
            yield
        except BaseException:
            for mod, held in reversed(journal):
                self.table.apply_mod(FlowMod.delete(mod.rule) if held is None
                                     else FlowMod.add(held))
            self.queue.restore(pending)
            self._main = main
            self._synced = self.table.generation if in_step else None
            self._dispatch_hook("on_rollback")
            raise
        finally:
            self._journal = None

    def _apply(self, ordered: Sequence[FlowMod]) -> int:
        if not ordered:
            return 0
        size = self.config.max_batch_size
        counters = self.stats.counters
        in_step = self._in_step()
        with self.atomic():
            self._dispatch_hook("on_apply_begin")
            with self.telemetry.span("southbound.apply", mods=len(ordered)):
                for start in range(0, len(ordered), size):
                    batch = ordered[start:start + size]
                    self._journal.extend(
                        (mod, self.table.rule_for_key(mod.priority, mod.match))
                        for mod in batch)
                    began = time.perf_counter()
                    with self.telemetry.span("flowtable.apply",
                                             mods=len(batch)):
                        self.table.apply_delta(batch)
                    self.stats.record_batch(len(batch),
                                            time.perf_counter() - began)
                    deletes = sum(mod.op is FlowModOp.DELETE for mod in batch)
                    adds = sum(mod.op is FlowModOp.ADD for mod in batch)
                    counters["adds_sent"].inc(adds)
                    counters["deletes_sent"].inc(deletes)
                    counters["modifies_sent"].inc(len(batch) - adds - deletes)
                    for observer in self._observers:
                        observer(batch)
            # After the spans close so a strict verifier's rejection (raised
            # from the hook) does not leave a span open.
            self._dispatch_hook("on_apply_end")
            if in_step:
                self._synced = self.table.generation
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("apply %s", kv(mods=len(ordered),
                                        table_rules=len(self.table)))
        return len(ordered)

    def __repr__(self) -> str:
        return (f"SouthboundEngine({self.pending} pending, "
                f"{self.stats.mods_sent} sent)")

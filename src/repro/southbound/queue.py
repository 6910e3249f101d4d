"""The coalescing update queue feeding the southbound engine.

BGP bursts make the incremental engine emit several deltas for the same
rule keys back to back (a prefix flaps, its ephemeral rules are added,
replaced, then reclaimed). Sending each mod verbatim wastes switch
FlowMod budget, so the queue keeps *one pending mod per rule key* and
algebraically merges every new mod into it:

==============  ===========  ================================
pending         incoming     result
==============  ===========  ================================
ADD             MODIFY       ADD (new actions — not yet installed)
ADD             DELETE       *nothing* (the rule never hits the switch)
MODIFY          MODIFY       MODIFY (latest actions win)
MODIFY          DELETE       DELETE
DELETE          ADD/MODIFY   MODIFY (remove + reinstall ≡ rewrite)
any             same op      latest wins
==============  ===========  ================================

The queue never reorders across *keys*; the engine's two-phase scheduler
owns ordering at flush time. ``max_pending`` bounds queue growth — once
exceeded, :attr:`UpdateQueue.needs_flush` turns true and the engine
flushes synchronously, which is how backpressure manifests under bursts.
"""

from __future__ import annotations

from typing import Dict, List

from repro.southbound.diff import FlowMod, FlowModOp, RuleKey


class UpdateQueue:
    """Pending FlowMods, coalesced per rule key, in arrival order."""

    def __init__(self, max_pending: int = 4096):
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.max_pending = max_pending
        self._pending: Dict[RuleKey, FlowMod] = {}
        self.enqueued = 0
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def needs_flush(self) -> bool:
        """True once the pending set exceeds ``max_pending`` (backpressure)."""
        return len(self._pending) >= self.max_pending

    def enqueue(self, mod: FlowMod) -> None:
        """Add one mod, merging with any pending mod for the same key."""
        self.enqueued += 1
        key = mod.key
        pending = self._pending.get(key)
        if pending is None:
            self._pending[key] = mod
            return
        self.coalesced += 1
        merged = self._merge(pending, mod)
        if merged is None:
            # ADD followed by DELETE: the rule never reaches the switch,
            # so *both* mods vanish (one extra send saved).
            self.coalesced += 1
            del self._pending[key]
        else:
            self._pending[key] = merged

    def enqueue_many(self, mods) -> None:
        """Enqueue an iterable of mods in order."""
        for mod in mods:
            self.enqueue(mod)

    @staticmethod
    def _merge(pending: FlowMod, incoming: FlowMod) -> "FlowMod | None":
        """The single mod equivalent to ``pending`` then ``incoming``."""
        if pending.op is FlowModOp.ADD:
            if incoming.op is FlowModOp.DELETE:
                return None
            # ADD then ADD/MODIFY: still an add, with the latest actions.
            return FlowMod(FlowModOp.ADD, incoming.priority, incoming.match,
                           incoming.actions)
        if pending.op is FlowModOp.MODIFY:
            if incoming.op is FlowModOp.DELETE:
                return incoming
            return FlowMod(FlowModOp.MODIFY, incoming.priority, incoming.match,
                           incoming.actions)
        # pending DELETE
        if incoming.op is FlowModOp.DELETE:
            return incoming
        # DELETE then ADD/MODIFY: the key stays installed with new actions.
        return FlowMod(FlowModOp.MODIFY, incoming.priority, incoming.match,
                       incoming.actions)

    def pending_mods(self) -> List[FlowMod]:
        """The pending mods (first-enqueued order), without draining."""
        return list(self._pending.values())

    def restore(self, mods: List[FlowMod]) -> None:
        """Make ``mods`` — an earlier :meth:`pending_mods`, or part of a
        :meth:`drain` — the pending set again; nothing is counted."""
        self._pending = {mod.key: mod for mod in mods}

    def drain(self) -> List[FlowMod]:
        """Remove and return every pending mod (first-enqueued order)."""
        mods = list(self._pending.values())
        self._pending.clear()
        return mods

    def __repr__(self) -> str:
        return (f"UpdateQueue({len(self._pending)} pending, "
                f"{self.coalesced} coalesced)")

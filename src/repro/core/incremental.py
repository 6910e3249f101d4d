"""The two-stage incremental compilation path (Section 4.3.2).

BGP updates arrive in bursts separated by quiet periods, so the SDX
trades space for time:

* **Fast path** (:meth:`IncrementalEngine.handle_prefixes`): for every
  prefix an update touched, immediately allocate a fresh singleton
  VNH/VMAC (skipping the FEC computation entirely), have the compiler
  recompile the same policy for that one group
  (:meth:`~repro.core.compiler.SdxCompiler.compile_prefix` — *only* the
  clauses that can touch the prefix yield rules) under the route server's
  kept decision for it (:meth:`~repro.bgp.routeserver.RouteServer.decide`,
  which the update itself decided), and push the resulting rules at a
  priority above the main table. Sub-second, but the extra
  rules are redundant with what an optimal grouping would produce.
* **Background re-optimisation**
  (:meth:`IncrementalEngine.background_recompile`): between bursts, run
  the full compiler, swap the main table, and reclaim every fast-path
  rule and ephemeral VNH.

The engine is bookkeeping only — ephemeral VNHs, shadow priorities, the
push, the swap and their undo; every clause → rule decision is the
compiler's.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.bgp.routeserver import Decision
from repro.core.compiler import CompilationResult, SdxCompiler
from repro.net.addresses import IPv4Prefix
from repro.policy.classifier import Classifier
from repro.policy.flowrules import to_flow_rules
from repro.southbound.diff import Delta, PRIORITY_CEILING
from repro.southbound.engine import SouthboundEngine
from repro.telemetry import Telemetry

#: Fast-path rules are installed above this priority so they always shadow
#: the main table (the compiler numbers every main-table rule strictly
#: below this same value).
FAST_PATH_BASE = PRIORITY_CEILING


@dataclass
class FastPathResult:
    """What one fast-path invocation did."""

    prefixes: Tuple[IPv4Prefix, ...]
    rules_installed: int
    seconds: float


@dataclass(frozen=True)
class RecompilePressure:
    """How much space-for-time debt the fast path has accumulated.

    The runtime's :class:`~repro.runtime.scheduler.RecompilationScheduler`
    compares these against its watermarks to decide when the background
    re-optimisation is due.
    """

    fast_path_rules: int
    ephemeral_vnhs: int
    dirty: bool


class IncrementalEngine:
    """Owns the fast path and the background re-optimisation."""

    def __init__(self, compiler: SdxCompiler, southbound: SouthboundEngine,
                 telemetry: Telemetry):
        self.compiler = compiler
        self.southbound = southbound
        self.telemetry = telemetry
        registry = telemetry.registry
        self._fastpath_counter = registry.counter(
            "sdx_fastpath_invocations_total", "Fast-path bursts handled")
        self._fastpath_rules_counter = registry.counter(
            "sdx_fastpath_rules_total", "Shadow rules installed by the fast path")
        self._fastpath_latency = registry.histogram(
            "sdx_fastpath_seconds", "Wall-clock seconds per fast-path burst")
        self._recompiles_counter = registry.counter(
            "sdx_recompile_total", "Background re-optimisations that swapped the table")
        self.last_delta: Optional[Delta] = None
        #: The compilation whose table is installed; fast-path rules are
        #: completed against its inbound stage.
        self.installed: Optional[CompilationResult] = None
        self._fast_priority = FAST_PATH_BASE
        self.dirty = False
        self.fast_path_invocations = 0
        self.fast_path_rules_live = 0

    @contextlib.contextmanager
    def atomic(self) -> Iterator[None]:
        """What the block compiles, assigns, pushes and swaps stands whole
        or, if it raises, not at all: installed compilation (which the next
        one reuses from, as warm as before), fast-path debt, allocator and
        southbound (table, queue, verifier caches) are as before."""
        kept = (self.installed, self.last_delta, self._fast_priority,
                self.fast_path_rules_live, self.dirty)
        try:
            with self.southbound.atomic(), self.compiler.allocator.atomic():
                yield
        except BaseException:
            (self.installed, self.last_delta, self._fast_priority,
             self.fast_path_rules_live, self.dirty) = kept
            self.compiler.resume(self.installed)
            raise

    def install_full(self, result: CompilationResult,
                     before_deletes: Callable[[], None]) -> None:
        """Swap in a fresh full compilation and drop every fast-path rule.

        Routed through the southbound engine: rules shared with the old
        table are untouched (counters survive), the rest arrive as a
        batched, priority-safe add/modify/delete delta, and every live
        fast-path shadow rule is reclaimed as a delete. ``before_deletes``
        runs between the two flush phases — the controller re-advertises
        virtual next hops there, so packets tagged with old VMACs ride the
        old rules until their border router has flipped to the new tags.
        """
        with self.telemetry.span("install_full", rules=len(result.rules)):
            self.last_delta = self.southbound.sync_classifier(
                result, flush=False)
            self.southbound.flush_installs()
            before_deletes()
            self.southbound.flush()
            # Every rule tagged with a retired VMAC is gone: the allocator
            # may recycle the quarantined (VNH, VMAC) pairs from here on.
            self.compiler.allocator.finish_swap()
        self.installed = result
        self._fast_priority = FAST_PATH_BASE
        self.fast_path_rules_live = 0
        self.dirty = False

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------

    def handle_prefixes(self, touched: Sequence[IPv4Prefix]) -> FastPathResult:
        """Fast-path recompilation for prefixes touched by an update.

        Driven at prefix (not best-route) granularity because an
        announcement can change which next hops are *eligible* for a
        policy without changing anyone's best route. Each prefix's routes
        are the route server's kept decision for it.
        """
        started = time.perf_counter()
        prefixes = tuple(dict.fromkeys(touched))
        installed = 0
        with self.telemetry.span("fastpath",
                                 prefixes=len(prefixes)) as span:
            # Fresh Loc-RIB views for dynamic predicates, shared across the
            # prefixes of this invocation (only built if actually needed).
            views: dict = {}
            decide = self.compiler.route_server.decide
            for prefix in prefixes:
                installed += self._fast_path_for_prefix(
                    prefix, views, decide(prefix))
            span.set_tag(rules=installed)
        self.dirty = True
        self.fast_path_invocations += 1
        self._fastpath_counter.inc()
        self._fastpath_rules_counter.inc(installed)
        elapsed = time.perf_counter() - started
        self._fastpath_latency.observe(elapsed)
        return FastPathResult(prefixes=prefixes, rules_installed=installed,
                              seconds=elapsed)

    def _fast_path_for_prefix(self, prefix: IPv4Prefix, views: dict,
                              decision: Decision) -> int:
        """Allocate a fresh VNH for one prefix, whose routes ``decision``
        settles, and install its rules."""
        allocator = self.compiler.allocator
        with self.telemetry.span("fastpath.prefix",
                                 prefix=str(prefix)) as span:
            allocator.drop_ephemeral(prefix)
            if not decision.ranked:
                # Fully withdrawn: routers drop the route themselves; the
                # stale rules die at the next background re-optimisation.
                return 0
            _vnh, vmac = allocator.assign_ephemeral(prefix)
            with self.telemetry.span("compile.fastpath"):
                rules = self.compiler.compile_prefix(
                    prefix, vmac, decision, self.installed.stage2, views)
            if not rules:
                return 0
            self._fast_priority += len(rules) + 1
            flow_rules = to_flow_rules(Classifier(rules), self._fast_priority)
            self.southbound.push_rules(flow_rules)
            self.fast_path_rules_live += len(flow_rules)
            span.set_tag(rules=len(flow_rules))
        return len(flow_rules)

    def pressure(self) -> RecompilePressure:
        """The current fast-path debt (rules, ephemeral VNHs, dirtiness)."""
        return RecompilePressure(
            fast_path_rules=self.fast_path_rules_live,
            ephemeral_vnhs=len(self.compiler.allocator.ephemeral_prefixes()),
            dirty=self.dirty,
        )

    # ------------------------------------------------------------------
    # Background re-optimisation
    # ------------------------------------------------------------------

    def background_recompile(self, swap: Callable[[], CompilationResult]
                             ) -> Optional[CompilationResult]:
        """Run ``swap`` — the controller's change transaction — if the
        fast path left anything to re-optimise."""
        if not self.dirty:
            return None
        result = swap()
        self._recompiles_counter.inc()
        return result

"""Op timing, and — on a traced run — spans at every layer boundary.

The :class:`Recorder` is the one clock of the harness. ``with
recorder.op(kind)`` times one operation into ``log`` on every run, and
``recorder.host`` samples the host's speed around it so the time can be
corrected (:mod:`hostspeed`); that is all an untraced run does. A traced
run additionally
installs timing shims around the calls *into* each layer (:data:`SHIMS`)
from this file — no file under ``src/`` knows about them — and each shim
appends one span ``[name, start, end, parent, op, data]`` to an
in-memory list that is written out as JSON when the run ends. All spans
of one update, burst or policy change share that op's id. A layer's self
time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from hostspeed import HostSpeed

from repro.bgp.routeserver import RouteServer
from repro.core.compiler import SdxCompiler
from repro.core.controller import SdxController
from repro.core.incremental import IncrementalEngine
from repro.core.vnh import VnhAllocator
from repro.dataplane.flowtable import FlowTable
from repro.runtime.loop import ControlPlaneRuntime
from repro.southbound.engine import SouthboundEngine
from repro.statics.dataplane import DataplaneVerifier

#: Span fields, by position.
NAME, START, END, PARENT, OP, DATA = range(6)

#: Op kinds that run before the measured phase; never sampled.
WARMUP = "warmup"

Capture = Callable[[tuple, object], object]

#: (class, method, span name, what to keep from the call). One row per
#: call into a layer; two methods may share a span name when they are
#: the same boundary (both flush halves of a table swap).
SHIMS: Sequence[tuple] = (
    (RouteServer, "bulk_load", "bgp.bulk_load", None),
    (RouteServer, "submit", "bgp.submit", None),
    (RouteServer, "readvertise", "bgp.readvertise",
     lambda args, result: len(args[1])),
    (SdxCompiler, "compile", "core.compiler.compile",
     lambda args, result: dict(result.timings,
                               groups=result.prefix_group_count)),
    (VnhAllocator, "assign_groups", "core.vnh.assign", None),
    (IncrementalEngine, "handle_prefixes", "core.incremental.fastpath",
     lambda args, result: result.rules_installed),
    (IncrementalEngine, "background_recompile",
     "core.incremental.background_recompile",
     lambda args, result: result is not None),
    (IncrementalEngine, "install_full", "core.incremental.install_full", None),
    (SouthboundEngine, "sync_classifier", "southbound.sync",
     lambda args, result: result.full_reinstall_cost),
    (SouthboundEngine, "push_rules", "southbound.push", None),
    (SouthboundEngine, "flush_installs", "southbound.flush", None),
    (SouthboundEngine, "flush", "southbound.flush", None),
    (FlowTable, "apply_delta", "dataplane.apply_delta", None),
    (DataplaneVerifier, "on_apply_end", "statics.on_apply_end", None),
    (DataplaneVerifier, "verify_delta", "statics.verify_delta", None),
    (SdxController, "lint_policies", "statics.policy_gate", None),
    (ControlPlaneRuntime, "step", "runtime.step", None),
    (ControlPlaneRuntime, "settle", "runtime.settle", None),
    (SdxController, "send", "dataplane.probe", None),
)


class Recorder:
    """Times ops always; records spans when ``tracing``."""

    def __init__(self, tracing: bool = False):
        self.tracing = tracing
        #: ``(kind, start, seconds)`` of every measured op, in run order.
        self.log: List[Tuple[str, float, float]] = []
        self.host = HostSpeed()
        self.spans: List[list] = []
        self.peaks: Dict[str, int] = {}
        self._stack: List[int] = []
        self._op = -1
        self._ops = 0
        self._watched: Optional[SdxController] = None

    def watch(self, controller: SdxController) -> None:
        """Sample ``controller``'s debt gauges after every traced op."""
        self._watched = controller

    def times(self, kind: str, begin: int = 0,
              end: Optional[int] = None) -> List[float]:
        """Host-speed-corrected seconds of each ``kind`` op in
        ``log[begin:end]`` (the whole run by default)."""
        return [self.host.corrected(start, seconds)
                for logged, start, seconds in self.log[begin:end]
                if logged == kind]

    @contextlib.contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Time one operation; on a traced run it is also a root span.

        The host's speed is sampled outside the timed region, before and
        after, whenever the last sample has gone stale — so a long op is
        bracketed by two samples and a run of short ones shares them.
        """
        measured = kind != WARMUP
        self.host.refresh()
        if self.tracing and measured:
            self._ops += 1
            self._op = self._ops
            index = self._open(f"op.{kind}")
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            if measured:
                self.log.append((kind, started, elapsed))
                if self.tracing:
                    self._close(index, None)
                    self._op = -1
                    self._sample_peaks()
            self.host.refresh()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op, None])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def _close(self, index: int, data: object) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[DATA] = data
        self._stack.pop()

    def _sample_peaks(self) -> None:
        controller = self._watched
        if controller is None:
            return
        for key, value in (
                ("ephemeral", len(controller.allocator.ephemeral_prefixes())),
                ("fastpath_rules_live", controller.engine.fast_path_rules_live),
                ("table_rules", len(controller.table))):
            if value > self.peaks.get(key, 0):
                self.peaks[key] = value

    def _shim(self, original: Callable, name: str,
              capture: Optional[Capture]) -> Callable:
        def shim(*args, **kwargs):
            if self._op < 0:
                return original(*args, **kwargs)
            index = self._open(name)
            data = None
            try:
                result = original(*args, **kwargs)
                if capture is not None:
                    data = capture(args, result)
                return result
            finally:
                self._close(index, data)
        return shim

    @contextlib.contextmanager
    def shims_installed(self) -> Iterator[None]:
        """Wrap every :data:`SHIMS` method for the duration (traced runs)."""
        if not self.tracing:
            yield
            return
        originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _n, _c in SHIMS]
        for cls, attr, name, capture in SHIMS:
            setattr(cls, attr, self._shim(cls.__dict__[attr], name, capture))
        try:
            yield
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)


def shim_cost(calls: int = 4_000, repeats: int = 5) -> float:
    """Seconds one shim adds to the call it wraps: best of ``repeats``
    timings of ``calls`` shimmed no-ops against the same loop unshimmed."""
    def noop() -> None:
        return None

    def loop(call: Callable[[], None]) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            call()
        return time.perf_counter() - started

    best = float("inf")
    for _ in range(repeats):
        recorder = Recorder(tracing=True)
        recorder._op = 0
        shimmed = recorder._shim(noop, "calibration", None)
        best = min(best, loop(shimmed) - loop(noop))
    return max(0.0, best) / calls


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (so ``q=0.99`` of 1 500 leaves 15 beyond it)."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus what its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


class SpanTable:
    """Spans grouped by name, for the per-layer derivations. Durations are
    corrected by the host slowdown around the span's op."""

    def __init__(self, spans: Sequence[list], host: HostSpeed):
        self.spans = spans
        self._by_name: Dict[str, List[int]] = {}
        slowdown: List[float] = []
        for index, span in enumerate(spans):
            self._by_name.setdefault(span[NAME], []).append(index)
            slowdown.append(slowdown[span[PARENT]] if span[PARENT] >= 0
                            else host.slowdown(span[START], span[END]))
        self._slowdown = slowdown
        self._own = [own / slow for own, slow in zip(self_times(spans), slowdown)]
        self._whole = [(span[END] - span[START]) / slow
                       for span, slow in zip(spans, slowdown)]

    def count(self, name: str) -> int:
        """How many spans are called ``name``."""
        return len(self._by_name.get(name, ()))

    def data(self, name: str) -> list:
        """The captured value of every ``name`` span, in call order."""
        return [self.spans[i][DATA] for i in self._by_name.get(name, ())]

    def slowdowns(self, name: str) -> List[float]:
        """The host slowdown around every ``name`` span, in call order."""
        return [self._slowdown[i] for i in self._by_name.get(name, ())]

    def median(self, name: str, *, own: bool = False) -> float:
        """Median duration (or self time) of ``name`` spans; 0 when none ran."""
        indices = self._by_name.get(name, ())
        if not indices:
            return 0.0
        times = self._own if own else self._whole
        return statistics.median(times[i] for i in indices)

    def _roots(self) -> List[int]:
        return [i for i, span in enumerate(self.spans) if span[PARENT] < 0]

    def count_roots(self) -> int:
        """How many ops were traced."""
        return len(self._roots())

    def unattributed_share(self) -> float:
        """Share of op wall time that no layer span covers."""
        roots = self._roots()
        wall = sum(self._whole[i] for i in roots)
        return sum(self._own[i] for i in roots) / wall if wall else 0.0

"""Outside-in tracing: spans around each layer's public entry points.

The simulator has no tracing of its own, so :class:`Tracer` installs
wrappers on the public methods of one class per layer, for the length of
one traced run, and removes them afterwards. Each call records a span
(entry point, start, end, enclosing span) in flat arrays; a layer's self
time is the duration of its spans minus the part covered by their child
spans. After the run, :func:`layer_metrics` combines the span counts with
each layer's own ``stats_*`` counters.

Two layers are partly invisible from outside. The scheduler's drain loop
inlines interpreter fast paths (parked spin and retry chains advance
without an ``IsaCpu.step`` call), so that work is scheduler self time and
``interpreter.self_s`` undercounts; the scheduler's own ``stats_*``
counters (``spin_steps``, ``retry_ticks``) carry it instead. The engine
reads the store cache's block index directly on its load fast path, so
``storecache.self_s`` undercounts too, and the store cache's
``stats_*`` counters carry its work.

Wrappers must be installed before the machine is built: the simulator
binds some methods at construction (the interpreter's predecoded
handlers hold ``engine.load``, the fabric holds each CPU's eviction
callback), and those bindings then capture the wrapper.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.abort import AbortCode
from repro.core.engine import TxEngine
from repro.core.millicode import Millicode
from repro.cpu.interpreter import IsaCpu
from repro.htm.api import HtmThread
from repro.mem.fabric import CoherenceFabric
from repro.mem.l1 import L1Cache
from repro.mem.storecache import GatheringStoreCache
from repro.sim.scheduler import Scheduler

from workloads import Outcome, Prepared

#: Abort codes that mean "the transaction outgrew what the hardware can
#: track" (read footprint or store cache), as opposed to a conflict.
CAPACITY_CODES = frozenset({AbortCode.FETCH_OVERFLOW, AbortCode.STORE_OVERFLOW})

#: (layer, class) pairs whose public methods are wrapped. L1Cache's
#: eviction hook is counted under the engine layer (it runs inside the
#: engine's eviction handling), so ``l1.evictions`` costs no layer of its
#: own.
LAYERS: Tuple[Tuple[str, type], ...] = (
    ("scheduler", Scheduler),
    ("interpreter", IsaCpu),
    ("htm_api", HtmThread),
    ("engine", TxEngine),
    ("millicode", Millicode),
    ("fabric", CoherenceFabric),
    ("storecache", GatheringStoreCache),
)
EXTRA_ENTRY_POINTS: Tuple[Tuple[str, type, str], ...] = (
    ("engine", L1Cache, "note_eviction"),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)


def public_methods(cls: type) -> List[str]:
    """Plain functions defined on ``cls`` itself whose names are public
    (generator functions are skipped: a span would time only the
    generator's creation)."""
    return sorted(
        name for name, attr in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(attr)
        and not inspect.isgeneratorfunction(attr)
    )


class Tracer:
    """Records a span per call into the wrapped entry points."""

    def __init__(self) -> None:
        #: Entry point names ("TxEngine.load") and their layers, indexed
        #: by the key id stored per span.
        self.keys: List[str] = []
        self.key_layer: List[str] = []
        self.span_key = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.capacity_aborts = 0
        self._stack = [-1]
        self._undo: List[Tuple[type, str, object]] = []

    def __enter__(self) -> "Tracer":
        for layer, cls in LAYERS:
            for name in public_methods(cls):
                self._wrap(layer, cls, name)
        for layer, cls, name in EXTRA_ENTRY_POINTS:
            self._wrap(layer, cls, name)
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._undo):
            setattr(cls, name, original)
        self._undo.clear()

    def _wrap(self, layer: str, cls: type, name: str) -> None:
        original = vars(cls)[name]
        key = len(self.keys)
        self.keys.append(f"{cls.__name__}.{name}")
        self.key_layer.append(layer)
        on_result = (self._note_abort
                     if (cls, name) == (TxEngine, "process_abort") else None)
        setattr(cls, name, self._traced(original, key, on_result))
        self._undo.append((cls, name, original))

    def _traced(self, original: Callable, key: int,
                on_result: Optional[Callable]) -> Callable:
        span_key = self.span_key.append
        span_parent = self.span_parent.append
        span_start = self.span_start.append
        span_end = self.span_end
        span_end_append = span_end.append
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(span_end)
            span_key(key)
            span_parent(stack[-1])
            span_end_append(0.0)
            stack.append(index)
            span_start(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _note_abort(self, result) -> None:
        abort = result[0]
        if abort.code in CAPACITY_CODES:
            self.capacity_aborts += 1

    # -- analysis -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_end)

    def calls(self) -> Counter:
        """Calls per entry point name."""
        counts = Counter(self.span_key)
        return Counter({self.keys[k]: n for k, n in counts.items()})

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: span durations minus child spans."""
        n = self.span_count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        totals = dict.fromkeys(LAYER_NAMES, 0.0)
        layer_of = self.key_layer
        keys = self.span_key
        for i in range(n):
            totals[layer_of[keys[i]]] += ends[i] - starts[i] - child[i]
        return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, prepared: Prepared, outcome: Outcome,
                  setup: Dict[str, float],
                  overhead_s: float) -> Dict[str, float]:
    """Every per-layer metric, keyed by its BENCHMARK.json name."""
    calls = tracer.calls()
    self_s = tracer.self_seconds()
    # The scheduler's stats_* counters, as the machine copies them onto
    # its result (the footprint workload has no scheduler).
    sched = outcome.result.sched if outcome.result is not None else {}
    engines, fabrics = prepared.engines, prepared.fabrics
    caches = [e.store_cache for e in engines]
    isa_steps = calls["IsaCpu.step"]
    isa_insns = outcome.insns if isa_steps else 0
    tx_begins = sum(e.stats_tx_started for e in engines)
    commits = sum(e.stats_tx_committed for e in engines)
    probes = calls["CoherenceFabric.probe_latency"]
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYER_NAMES}
    metrics.update({
        "scheduler.events": sched.get("events", 0),
        "scheduler.parks": sched.get("parks", 0),
        "scheduler.retry_parks": sched.get("retry_parks", 0),
        "scheduler.spin_steps": sched.get("spin_steps", 0),
        "scheduler.heap_elided_steps": sched.get("heap_elided_steps", 0),
        "interpreter.step_calls": isa_steps,
        "interpreter.insns_per_step": _ratio(isa_insns, isa_steps),
        "interpreter.unparks": (calls["IsaCpu.spin_unpark"]
                                + calls["IsaCpu.retry_unpark"]),
        "htm_api.step_calls": calls["HtmThread.step"],
        "engine.load_calls": calls["TxEngine.load"],
        "engine.store_calls": sum(
            calls[f"TxEngine.{name}"]
            for name in ("store", "add_to_storage", "compare_and_swap",
                         "ntstg")
        ),
        "engine.tx_begins": tx_begins,
        "engine.tx_commits": commits,
        "engine.tx_aborts": sum(e.stats_tx_aborted for e in engines),
        "engine.commit_ratio": _ratio(commits, tx_begins),
        "engine.xi_rejects": sum(e.stats_xi_rejected for e in engines),
        "millicode.aborts_processed": calls["Millicode.abort_processing_cost"],
        "millicode.ppa_calls": calls["Millicode.ppa_delay"],
        "fabric.try_fetch_calls": calls["CoherenceFabric.try_fetch"],
        "fabric.probe_calls": probes,
        "fabric.probe_memo_hit_ratio": _ratio(
            sum(f.stats_probe_hits for f in fabrics), probes),
        "fabric.xis": sum(f.stats_xis for f in fabrics),
        "fabric.rejects": sum(f.stats_rejects for f in fabrics),
        "storecache.gathered": sum(c.stats_gathered for c in caches),
        "storecache.allocated": sum(c.stats_allocated for c in caches),
        "storecache.drained_entries": sum(c.stats_drained_entries
                                          for c in caches),
        "storecache.occupancy_hwm": max(
            (c.stats_occupancy_hwm for c in caches), default=0),
        "l1.evictions": calls["L1Cache.note_eviction"],
        "footprint.capacity_aborts": tracer.capacity_aborts,
        "setup.machine_s": setup["machine_s"],
        "setup.program_s": setup["program_s"],
        "trace.overhead_s": overhead_s,
    })
    return metrics

"""Per-layer tracer for the end-to-end benchmark.

The tracer wraps the public function at each layer boundary of the
``repro`` package from the outside -- nothing under ``src/`` knows about
it -- and records one span per call: name, start, end and the span that
caused it.  Spans stay in memory; :func:`summarize` turns them into
calls, total (inclusive) time and self time per layer, where a span's
self time is its duration minus the durations of its child spans.

A wrapped function is patched wherever it is reachable: on its class
(and every loaded subclass that overrides it) for methods, and in every
loaded ``repro`` module that bound it by name for functions -- for
example ``repro.fastpath.batch`` imports ``synthesize_runs`` and
``compile_prototype`` by name, so those module globals are patched too.
:meth:`Tracer.uninstall` puts every original back.

A span opened while a span of the same name is already open on the
thread (a subclass override calling ``super()``) is not recorded, so
inclusive times never count a layer twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
import types
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the span list, or -1 at the top.
    parent: int


class Target(NamedTuple):
    """One layer boundary: ``owner`` is a class name, or None for functions."""

    name: str
    module: str
    owner: Optional[str]
    attrs: Tuple[str, ...]


#: Spans: the layer boundaries whose time the benchmark attributes.
SPAN_TARGETS: Tuple[Target, ...] = (
    Target("fec.build", "repro.core.config", "SimulationConfig", ("build_code",)),
    Target("fastpath.compile", "repro.fastpath.prototypes", None, ("compile_prototype",)),
    Target("fastpath.decode", "repro.fastpath.prototypes", "DecoderPrototype", ("decode_batch",)),
    Target(
        "scheduling.schedule",
        "repro.scheduling.base",
        "TransmissionModel",
        ("schedule_batch", "schedule_batch_unit"),
    ),
    Target(
        "channel.loss_mask",
        "repro.channel.base",
        "LossModel",
        ("loss_mask_batch", "loss_mask_batch_unit"),
    ),
    Target(
        "pipeline.synthesize",
        "repro.pipeline.synthesis",
        None,
        ("synthesize_runs", "synthesize_runs_unit"),
    ),
    Target("runner.unit", "repro.runner.units", None, ("execute_unit",)),
    Target("runner.dispatch", "repro.runner.engine", None, ("_execute",)),
    Target("runner.executor", "repro.runner.executors", "SerialExecutor", ("run",)),
    Target("runner.executor", "repro.runner.executors", "ProcessExecutor", ("run",)),
    Target("runner.executor", "repro.runner.executors", "ThreadExecutor", ("run",)),
    Target("store.put", "repro.store.sqlite", "SqliteStore", ("put", "put_many")),
    Target("store.get", "repro.store.sqlite", "SqliteStore", ("get",)),
    Target("adaptive.grid", "repro.adaptive.controller", None, ("adaptive_grid",)),
    Target("metrics.merge", "repro.runner.units", None, ("merge_cell",)),
    Target("metrics.merge", "repro.core.metrics", "CellStats", ("add_batch",)),
    Target("csvio.write", "repro.analysis.csvio", None, ("grid_to_csv",)),
)

#: Counters: boundaries crossed too often to time (one Gilbert sojourn
#: continuation per row) or whose cost lives elsewhere (pool start-up).
COUNT_TARGETS: Tuple[Target, ...] = (
    Target("kernels.fill_sojourns_calls", "repro.kernels.cext", "CExtBackend", ("fill_sojourns",)),
    Target(
        "kernels.fill_sojourns_batch_calls",
        "repro.kernels.cext",
        "CExtBackend",
        ("fill_sojourns_batch",),
    ),
    Target("runner.pool_starts", "repro.runner.executors", None, ("ProcessPoolExecutor",)),
)


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Calls, inclusive time and self time per span name."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - child_time[index]
    return out


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class Tracer:
    """Span recorder plus the patches that feed it.

    Each thread keeps its own stack of open spans; all spans land in one
    list.  The traced workloads run every layer on the main thread
    (kernel threads live inside C calls).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Objects returned by compile_prototype; distinct ones are compiles.
        self.prototypes: Dict[int, object] = {}
        #: ``metadata["adaptive"]`` of every adaptive_grid result.
        self.adaptive: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[Tuple[str, int, float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_names(self) -> List[str]:
        return [name for name, _, _ in self._stack()]

    def begin(self, name: str) -> None:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, stack[-1][1] if stack else -1))
        stack.append((name, index, self.clock()))

    def end(self) -> None:
        end = self.clock()
        _, index, start = self._stack().pop()
        with self._lock:
            self.spans[index] = self.spans[index]._replace(start=start, end=end)

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def _observe(self, name: str, result: object) -> None:
        """Counts read off a layer call's return value."""
        if name == "fastpath.decode":
            self.counts["fastpath.decoded_runs"] += len(result[0])
        elif name == "fastpath.compile":
            self.prototypes.setdefault(id(result), result)
        elif name == "store.get":
            self.counts["store.hits"] += result is not None
        elif name == "store.put":
            self.counts["store.puts"] += 1 if result is None else int(result)
        elif name == "adaptive.grid":
            self.adaptive.append(dict(result.metadata.get("adaptive", {})))

    def span_wrapper(self, name: str, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name in tracer.open_names():
                return func(*args, **kwargs)
            tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end()
            tracer._observe(name, result)
            return result

        traced.__perfbench_original__ = func
        return traced

    def count_wrapper(self, name: str, func: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(func)
        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        counted.__perfbench_original__ = func
        return counted

    # -- patching --------------------------------------------------------
    def _patch(self, holder: object, attr: str, wrapper: Callable) -> None:
        had_own = attr in vars(holder)
        original = vars(holder)[attr] if had_own else getattr(holder, attr)
        self._patches.append((holder, attr, original, had_own))
        setattr(holder, attr, wrapper)

    def _install_target(self, target: Target, make: Callable) -> bool:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        if target.owner is not None:
            base = getattr(module, target.owner)
            for attr in target.attrs:
                for cls in [base] + _subclasses(base):
                    if cls is base or attr in vars(cls):
                        self._patch(cls, attr, make(target.name, getattr(cls, attr)))
            return True
        for attr in target.attrs:
            original = getattr(module, attr)
            wrapper = make(target.name, original)
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapper)
        return True

    def install(self) -> List[str]:
        """Patch every target; returns the names whose module is missing."""
        missing = []
        for target in SPAN_TARGETS:
            if not self._install_target(target, self.span_wrapper):
                missing.append(target.name)
        for target in COUNT_TARGETS:
            if not self._install_target(target, self.count_wrapper):
                missing.append(target.name)
        return missing

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            holder, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
        # Modules imported while the patches were live may have bound a
        # wrapper by name; point them back at the original as well.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and hasattr(value, "__perfbench_original__"):
                    setattr(module, name, value.__perfbench_original__)

    # -- results -----------------------------------------------------------
    def report(self) -> dict:
        """JSON-ready raw aggregates (merged across passes by the runner)."""
        unit_ms = sorted(
            (span.end - span.start) * 1e3 for span in self.spans if span.name == "runner.unit"
        )
        counts = dict(self.counts)
        counts["fastpath.compiles"] = len(self.prototypes)
        return {
            "layers": summarize(self.spans),
            "counts": counts,
            "unit_ms": unit_ms,
            "adaptive": self.adaptive,
        }

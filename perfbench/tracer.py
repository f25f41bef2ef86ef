"""Span tracer for the benchmark's traced pass.

The tracer installs class-level timing wrappers around the public entry
points of each simulator layer, and wraps every callback that enters the
event queue (``Simulator.post``/``post_at``/``post_batch``/``schedule``/
``schedule_at``) or a core's completion queue (``Cpu.submit``/
``submit_multi``), so an event's span is named after its callback's
module. Spans (name, start, end, parent, scenario id) stay in memory in
parallel arrays and are written out when the run ends. A layer's self
time is the sum over its spans of duration minus the part covered by
child spans; self times of every span under a scenario's root sum to the
root's duration, which is the traced ``sim_s``.

Wrappers only observe: each calls the wrapped function with the same
arguments, so a traced scenario simulates exactly what an untraced one
does (the benchmark checks that its outputs are identical).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Layer of a span that belongs to none of the named layers: the root's
#: own code (the scenario entry point) and callbacks of other modules.
OTHER = "other"

#: (layer, module, class, methods) wrapped by the traced pass. A method
#: name ending in ``*`` wraps every public method with that prefix.
#: Missing classes or methods are skipped and reported, so a refactor of
#: one layer leaves the rest of the ledger working.
WRAPPED: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine", "Simulator", ("run",)),
    ("sim.scheduler", "repro.sim.scheduler", "HeapScheduler",
     ("push", "push_many", "pop", "peek")),
    ("hw.cpu", "repro.hw.cpu", "Cpu", ("submit", "submit_multi")),
    ("metrics.cpuacct", "repro.metrics.cpuacct", "CpuAccounting", ("charge",)),
    ("kernel.stages", "repro.kernel.stages", "Stage", ("run_item",)),
    ("kernel.softirq", "repro.kernel.softirq", "SoftirqNet",
     ("raise_net_rx", "enqueue_backlog")),
    ("kernel.gro", "repro.kernel.gro", "GroEngine", ("feed",)),
    ("core.falcon", "repro.core.falcon", "FalconSteering", ("select_cpu",)),
    ("kernel.flowcache", "repro.kernel.flowcache", "FlowCache",
     ("access_rx", "access_tx", "invalidate_*")),
    ("kernel.sockets", "repro.kernel.sockets", "Socket", ("enqueue",)),
    ("kernel.tx", "repro.kernel.tx", "TxStack", ("send_message",)),
    ("workloads.apps", "repro.workloads.apps", "WorkerPool", ("submit",)),
    ("workloads.apps", "repro.workloads.apps", "ResponseChannel", ("respond",)),
    ("sim.shard", "repro.sim.shard.coordinator", "InlineShardHandle",
     ("begin_step", "finish_step")),
    ("sim.shard", "repro.sim.shard.transport", "ProcessShardHandle",
     ("begin_step", "finish_step")),
)

#: Simulator methods whose ``fn`` argument is a callback to wrap, with
#: the position of ``fn`` among the arguments after ``self``.
CALLBACK_ENTRIES: Tuple[Tuple[str, str, str, int], ...] = (
    ("repro.sim.engine", "Simulator", "post", 1),
    ("repro.sim.engine", "Simulator", "post_at", 1),
    ("repro.sim.engine", "Simulator", "post_batch", 1),
    ("repro.sim.engine", "Simulator", "schedule", 1),
    ("repro.sim.engine", "Simulator", "schedule_at", 1),
    ("repro.hw.cpu", "Cpu", "submit", 3),
    ("repro.hw.cpu", "Cpu", "submit_multi", 2),
)

#: Callback module -> layer. Modules not listed fold into ``other``.
CALLBACK_LAYERS: Dict[str, str] = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.scheduler": "sim.scheduler",
    "repro.hw.cpu": "hw.cpu",
    "repro.metrics.cpuacct": "metrics.cpuacct",
    "repro.kernel.stages": "kernel.stages",
    "repro.kernel.softirq": "kernel.softirq",
    "repro.kernel.gro": "kernel.gro",
    "repro.core.falcon": "core.falcon",
    "repro.kernel.flowcache": "kernel.flowcache",
    "repro.kernel.sockets": "kernel.sockets",
    "repro.kernel.tx": "kernel.tx",
    "repro.workloads.apps": "workloads.apps",
    "repro.workloads.flows": "workloads.sender",
    "repro.workloads.traffic": "workloads.sender",
}

ROOT = "scenario"
EVENT_PREFIX = "event:"


@dataclass
class Root:
    """One scenario's root span: the spans under it are ``index..stop-1``."""

    scenario: int
    index: int
    stop: int
    depth_start: int
    depth_stop: int
    gro_merged: int


@dataclass
class Fold:
    """Spans under one root, folded: the root's duration, self seconds
    per layer, and calls and total seconds per span name."""

    seconds: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    total_s: Dict[str, float]
    pop_depths: List[int]
    gro_merged: int


class SpanLog:
    """Every span of a traced run, in parallel arrays indexed by open order."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.scenario = array("H")
        #: Queue length seen by each ``HeapScheduler.pop``.
        self.pop_depth = array("i")
        #: Packets GRO merged inside traced ``feed`` calls.
        self.gro_merged = 0
        self._stack: List[int] = [-1]
        self.scenario_id = 0
        #: One entry per closed root, keyed by the root's span index.
        self.roots: Dict[int, Root] = {}
        self._open_root: Optional[Root] = None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.scenario.append(self.scenario_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    # -- roots ---------------------------------------------------------
    def open_root(self, scenario_id: int) -> int:
        self.scenario_id = scenario_id
        index = self.open(self.name_id(ROOT))
        self._open_root = Root(
            scenario_id, index, 0, len(self.pop_depth), 0, self.gro_merged
        )
        return index

    def close_root(self, index: int) -> None:
        self.close(index)
        root = self._open_root
        assert root is not None and root.index == index
        root.stop = len(self.start)
        root.depth_stop = len(self.pop_depth)
        root.gro_merged = self.gro_merged - root.gro_merged
        self.roots[index] = root
        self._open_root = None

    def write(self, path: Path) -> None:
        """Write the spans: a JSON index beside one gzipped native-endian
        array per column (``array(typecode).frombytes`` reads it back)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "scenario": self.scenario,
        }
        index = {
            "names": self.names,
            "roots": [
                {"scenario": r.scenario, "span": r.index, "stop": r.stop}
                for r in self.roots.values()
            ],
            "spans": len(self.start),
            "columns": {},
        }
        for column, values in columns.items():
            column_path = path.with_suffix(f".{column}.bin.gz")
            with gzip.open(column_path, "wb", compresslevel=1) as handle:
                handle.write(values.tobytes())
            index["columns"][column] = {
                "file": column_path.name,
                "typecode": values.typecode,
            }
        path.write_text(json.dumps(index, indent=1) + "\n")


def layer_of(name: str) -> str:
    """The layer a span name is charged to."""
    if name.startswith(EVENT_PREFIX):
        return CALLBACK_LAYERS.get(name[len(EVENT_PREFIX):], OTHER)
    if name == ROOT:
        return OTHER
    return name.split(":", 1)[0]


def fold(log: SpanLog, root_index: int) -> Fold:
    """Fold the spans under one closed root."""
    root = log.roots[root_index]
    first, stop = root.index, root.stop
    start, end, parent, name = log.start, log.end, log.parent, log.name
    child = array("d", bytes(8 * (stop - first)))
    for index in range(stop - 1, first, -1):
        child[parent[index] - first] += end[index] - start[index]
    calls = [0] * len(log.names)
    total = [0.0] * len(log.names)
    own = [0.0] * len(log.names)
    for index in range(first, stop):
        nid = name[index]
        duration = end[index] - start[index]
        calls[nid] += 1
        total[nid] += duration
        own[nid] += duration - child[index - first]
    self_s: Dict[str, float] = {}
    for nid, seconds in enumerate(own):
        if calls[nid]:
            layer = layer_of(log.names[nid])
            self_s[layer] = self_s.get(layer, 0.0) + seconds
    used = [nid for nid in range(len(log.names)) if calls[nid]]
    return Fold(
        seconds=end[first] - start[first],
        self_s=self_s,
        calls={log.names[nid]: calls[nid] for nid in used},
        total_s={log.names[nid]: total[nid] for nid in used},
        pop_depths=list(log.pop_depth[root.depth_start:root.depth_stop]),
        gro_merged=root.gro_merged,
    )


def _span_callback(log: SpanLog, nid: int, fn: Callable[..., Any]) -> Callable[..., Any]:
    def traced_callback(*args: Any) -> Any:
        index = log.open(nid)
        try:
            return fn(*args)
        finally:
            log.close(index)

    return traced_callback


#: Code object shared by every traced callback, so wrapping is idempotent
#: (``schedule`` forwards to ``schedule_at``; both are wrapped).
_TRACED_CODE = _span_callback(SpanLog(), 0, len).__code__


def _callback_module(fn: Any) -> str:
    target = getattr(fn, "func", fn)  # functools.partial
    module = getattr(target, "__module__", None)
    return module if isinstance(module, str) else type(target).__module__


class Tracer:
    """Installs and removes the wrappers; owns the :class:`SpanLog`."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: List[Tuple[type, str, Any]] = []
        #: Wrapper targets not found (a refactored layer); reported.
        self.missing: List[str] = []
        self._event_ids: Dict[str, int] = {}

    # -- callbacks -----------------------------------------------------
    def wrap_callback(self, fn: Any) -> Any:
        """``fn`` inside a span named after its module (idempotent)."""
        if fn is None or getattr(fn, "__code__", None) is _TRACED_CODE:
            return fn
        module = _callback_module(fn)
        nid = self._event_ids.get(module)
        if nid is None:
            nid = self._event_ids[module] = self.log.name_id(EVENT_PREFIX + module)
        return _span_callback(self.log, nid, fn)

    # -- installation --------------------------------------------------
    def _resolve(self, module: str, cls_name: str) -> Optional[type]:
        try:
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{cls_name}")
            return None
        return cls if isinstance(cls, type) else None

    def _set(self, cls: type, attr: str, value: Any) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self) -> None:
        for module, cls_name, attr, position in CALLBACK_ENTRIES:
            cls = self._resolve(module, cls_name)
            if cls is None or attr not in cls.__dict__:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            self._set(cls, attr, self._callback_entry(getattr(cls, attr), position))
        for layer, module, cls_name, methods in WRAPPED:
            cls = self._resolve(module, cls_name)
            if cls is None:
                continue
            for pattern in methods:
                if pattern.endswith("*"):
                    names = sorted(
                        n for n in cls.__dict__
                        if n.startswith(pattern[:-1]) and callable(cls.__dict__[n])
                    )
                else:
                    names = [pattern] if pattern in cls.__dict__ else []
                if not names:
                    self.missing.append(f"{module}.{cls_name}.{pattern}")
                for attr in names:
                    span = f"{layer}:{cls_name}.{attr}"
                    self._set(cls, attr, self._method(getattr(cls, attr), span))

    def uninstall(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def _callback_entry(self, method: Callable[..., Any], position: int) -> Any:
        wrap = self.wrap_callback

        @functools.wraps(method)
        def entry(obj: Any, *args: Any, **kwargs: Any) -> Any:
            if len(args) > position:
                args = args[:position] + (wrap(args[position]),) + args[position + 1:]
            elif "fn" in kwargs:
                kwargs["fn"] = wrap(kwargs["fn"])
            return method(obj, *args, **kwargs)

        return entry

    def _method(self, method: Callable[..., Any], span: str) -> Any:
        log = self.log
        nid = log.name_id(span)
        if span == "sim.scheduler:HeapScheduler.pop":
            depth = log.pop_depth

            @functools.wraps(method)
            def traced_pop(obj: Any) -> Any:
                depth.append(len(obj))
                index = log.open(nid)
                try:
                    return method(obj)
                finally:
                    log.close(index)

            return traced_pop
        if span == "kernel.gro:GroEngine.feed":

            @functools.wraps(method)
            def traced_feed(obj: Any, *args: Any, **kwargs: Any) -> Any:
                before = obj.merged_packets
                index = log.open(nid)
                try:
                    return method(obj, *args, **kwargs)
                finally:
                    log.close(index)
                    log.gro_merged += obj.merged_packets - before

            return traced_feed

        @functools.wraps(method)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = log.open(nid)
            try:
                return method(*args, **kwargs)
            finally:
                log.close(index)

        return traced

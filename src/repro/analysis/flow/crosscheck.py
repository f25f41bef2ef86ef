"""Static ↔ dynamic cross-check of the stage graph (``repro check --trace``).

The golden traces (``tests/goldens/*.json``, produced by
:mod:`repro.validate.golden` from :class:`repro.metrics.tracing.PacketTracer`
events) record the stage hops real packets took at runtime. This module
replays them and compares the observed stage edges against the statically
derived :func:`~repro.analysis.flow.stagespec.stage_order_spec`:

* an edge observed at runtime but absent from the static graph is an
  **error** — the analyzer's model of the pipeline is wrong, which means
  the typestate rules (and RACE301's call graph) are reasoning about a
  stack that does not exist;
* a static edge never exercised by any golden trace is a **warning** —
  dead modelling or missing trace coverage (host-mode edges are expected
  here while the goldens are all overlay scenarios).

Synthetic nodes (``alloc``/``hardirq``/``free``) never appear in traces,
so only edges between runtime-observable stages (including ``socket``)
are compared.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.core import TraceCheck
from repro.analysis.flow.stagespec import ALLOC, FREE, HARDIRQ, stage_order_spec


def default_trace_dir() -> str:
    """The goldens directory, resolved like repro.validate.golden does."""
    from repro.validate.golden import default_golden_dir

    return default_golden_dir()


def _single_packet(events: Sequence[Sequence[object]]) -> bool:
    """True when the trace records exactly one packet's journey.

    Traces are keyed by ``(flow_id, msg_id)``; a multi-segment TCP
    message (or its ACKs, or GRO partners) shares the key, so several
    packets interleave in one event list. Such a trace repeats a
    ``(kind, stage)`` pair — one packet passes each stage once.
    """
    seen: Set[Tuple[str, str]] = set()
    for event in events:
        key = (str(event[1]), str(event[2]))
        if key in seen:
            return False
        seen.add(key)
    return True


def _trace_edges(events: Sequence[Sequence[object]]) -> Set[Tuple[str, str]]:
    """Stage edges one single-packet trace exercised.

    Events are ``[time_us, kind, stage, cpu]``. ``enqueue`` names the
    *target* stage before the hop executes; ``exec``/``deliver`` move the
    packet's current stage. Both orderings witness the same edge.
    """
    edges: Set[Tuple[str, str]] = set()
    current: str = ""
    for event in sorted(events, key=lambda e: float(e[0])):  # type: ignore[arg-type]
        kind = str(event[1])
        stage = str(event[2])
        if current and stage != current:
            edges.add((current, stage))
        if kind in ("exec", "deliver"):
            current = stage
    return edges


def golden_files(paths: Sequence[str] = ()) -> List[str]:
    """``paths``, or every golden trace file when none are given."""
    if paths:
        return list(paths)
    golden_dir = default_trace_dir()
    return sorted(
        os.path.join(golden_dir, name)
        for name in os.listdir(golden_dir)
        if name.endswith(".json")
    )


def _edge(edge: Tuple[str, str]) -> str:
    return f"{edge[0]}->{edge[1]}"


def cross_check(paths: Sequence[str] = ()) -> TraceCheck:
    """Replay golden traces and diff their edges against the static spec.

    Multi-packet traces (TCP segments / GRO / ACKs share one msg_id, so
    their events interleave) are skipped, since consecutive-event pairs
    across different packets are not edges.
    """
    trace_files = golden_files(paths)
    observed: Dict[Tuple[str, str], int] = {}
    replayed = skipped = events_replayed = 0
    for path in trace_files:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        for trace in doc.get("traces", ()):
            events = trace.get("events", ())
            if not _single_packet(events):
                skipped += 1
                continue
            replayed += 1
            events_replayed += len(events)
            for edge in _trace_edges(events):
                observed[edge] = observed.get(edge, 0) + 1

    spec = stage_order_spec()
    synthetic = {ALLOC, HARDIRQ, FREE}
    comparable = {
        edge for edge in spec.edges if not (set(edge) & synthetic)
    }
    missing = sorted(edge for edge in observed if edge not in comparable)
    unobserved = sorted(edge for edge in comparable if edge not in observed)
    return TraceCheck(
        name="stage-edge cross-check",
        summary=(
            f"{replayed} traces ({events_replayed} events) from "
            f"{len(trace_files)} golden files, {len(observed)} distinct "
            f"stage edges observed, {skipped} multi-packet traces skipped"
        ),
        errors=[
            f"runtime edge {_edge(edge)} is missing from the static stage "
            "graph — the derived spec no longer matches reality"
            for edge in missing
        ],
        warnings=[
            f"static edge {_edge(edge)} never observed in any golden trace "
            "(dead modelling or missing trace coverage)"
            for edge in unobserved
        ],
        facts={
            "trace_files": [os.path.basename(p) for p in trace_files],
            "traces_replayed": replayed,
            "traces_skipped_multi_packet": skipped,
            "events_replayed": events_replayed,
            "observed_edges": {
                _edge(edge): count for edge, count in sorted(observed.items())
            },
            "missing_from_static_graph": [_edge(edge) for edge in missing],
            "static_edges_unobserved": [_edge(edge) for edge in unobserved],
        },
    )

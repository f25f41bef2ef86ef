"""Static ↔ dynamic ordering cross-check (``repro check --trace``).

The ORD rules reason about two dynamic properties: per-flow delivery
order survives every datapath (the merge-key / flowcache-gate rules),
and the fast path only takes edges the static stage graph sanctions.
This module replays the shard-equivalence and flowcache golden traces
(``tests/goldens/*.json``) against that inferred ordering model:

* within one flow, messages must be **delivered in message order** — a
  trace where ``msg`` *n+1* completes delivery before ``msg`` *n* is an
  **error**: the runtime violated exactly the invariant ORD503/ORD52x
  guard statically;
* every observed stage edge touching the ``fastpath`` stage must exist
  in the statically derived spec (**error** otherwise — the analyzer is
  reasoning about a cache wiring that does not exist);
* a static fastpath edge no golden exercises is a **warning** (missing
  trace coverage for the cached datapath).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.core import TraceCheck
from repro.analysis.flow.crosscheck import golden_files
from repro.analysis.flow.stagespec import stage_order_spec

#: The cached-datapath stage name FastPathTransition jumps through.
FASTPATH_STAGE = "fastpath"


def _delivery_time(events: Sequence[Sequence[object]]) -> Optional[float]:
    """Completion time of a trace: its last ``deliver`` event."""
    times = [
        float(event[0])  # type: ignore[arg-type]
        for event in events
        if str(event[1]) == "deliver"
    ]
    return max(times) if times else None


def _fastpath_edges(
    events: Sequence[Sequence[object]],
) -> List[Tuple[str, str]]:
    """Stage edges touching the fastpath stage, in event-time order."""
    edges: List[Tuple[str, str]] = []
    current = ""
    for event in sorted(events, key=lambda e: float(e[0])):  # type: ignore[arg-type]
        kind = str(event[1])
        stage = str(event[2])
        if current and stage != current and FASTPATH_STAGE in (current, stage):
            edges.append((current, stage))
        if kind in ("exec", "deliver"):
            current = stage
    return edges


def order_cross_check(paths: Sequence[str] = ()) -> TraceCheck:
    """Replay golden traces against the per-flow ordering model."""
    trace_files = golden_files(paths)
    violations: List[Dict[str, object]] = []
    observed: Dict[Tuple[str, str], int] = {}
    flows_checked = deliveries_checked = 0
    for path in trace_files:
        name = os.path.basename(path)
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        deliveries: Dict[int, List[Tuple[int, float]]] = {}
        for trace in doc.get("traces", ()):
            events = trace.get("events", ())
            for edge in _fastpath_edges(events):
                observed[edge] = observed.get(edge, 0) + 1
            time = _delivery_time(events)
            if time is None:
                continue
            flow = int(trace.get("flow", 0))
            msg = int(trace.get("msg", 0))
            deliveries.setdefault(flow, []).append((msg, time))
        for flow, entries in sorted(deliveries.items()):
            flows_checked += 1
            deliveries_checked += len(entries)
            entries.sort()
            for (earlier, earlier_t), (later, later_t) in zip(
                entries, entries[1:]
            ):
                if later_t < earlier_t:
                    violations.append({
                        "trace_file": name,
                        "flow": flow,
                        "earlier_msg": earlier,
                        "later_msg": later,
                        "earlier_time_us": earlier_t,
                        "later_time_us": later_t,
                    })

    spec = stage_order_spec()
    static = {edge for edge in spec.edges if FASTPATH_STAGE in edge}
    unknown = sorted(edge for edge in observed if edge not in static)
    unobserved = sorted(edge for edge in static if edge not in observed)
    return TraceCheck(
        name="ordering cross-check",
        summary=(
            f"{flows_checked} flows ({deliveries_checked} deliveries) from "
            f"{len(trace_files)} golden files, {len(observed)} distinct "
            "fastpath edges observed"
        ),
        errors=[
            f"{v['trace_file']} flow {v['flow']}: msg {v['later_msg']} "
            f"delivered at {v['later_time_us']}us before msg "
            f"{v['earlier_msg']} at {v['earlier_time_us']}us — per-flow "
            "delivery order violated at runtime"
            for v in violations
        ] + [
            f"runtime fastpath edge {a}->{b} is missing from the static "
            "stage graph — the cache wiring the ORD rules model no longer "
            "matches reality"
            for a, b in unknown
        ],
        warnings=[
            f"static fastpath edge {a}->{b} never observed in any golden "
            "trace (missing cached-datapath coverage)"
            for a, b in unobserved
        ],
        facts={
            "trace_files": [os.path.basename(p) for p in trace_files],
            "flows_checked": flows_checked,
            "deliveries_checked": deliveries_checked,
            "delivery_order_violations": violations,
            "fastpath_edges_observed": {
                f"{a}->{b}": count for (a, b), count in sorted(observed.items())
            },
            "fastpath_edges_unknown_to_static_graph": [
                f"{a}->{b}" for a, b in unknown
            ],
            "fastpath_edges_unobserved": [f"{a}->{b}" for a, b in unobserved],
        },
    )

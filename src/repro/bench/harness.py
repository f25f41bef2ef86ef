"""Multiprocess benchmark runner and ``BENCH_*.json`` emission.

The harness fans the selected benchmarks out across worker processes.
Each benchmark builds its own simulated world (its own
:class:`~repro.sim.context.SimContext`, simulator, RNG registry) inside
its worker, so concurrent benchmarks share no state; per-benchmark seeds
are derived from the run's root seed and the benchmark name, so the
sharding — how benchmarks land on workers — cannot change any result,
only the wall time.

Events/sec is measured from the process-global executed-event counter
(:func:`repro.sim.engine.global_events_processed`), which counts every
simulator the benchmark constructs internally.
"""

from __future__ import annotations

import datetime
import json
import multiprocessing
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.schema import SCHEMA_ID, validate_bench_doc
from repro.bench.suite import derive_bench_seed, execute, specs_for
# The tree's single sanctioned wall-clock read (epoch seconds); reused
# here for self-timing so the bench harness adds no new SIM101 escape.
from repro.experiments.run_all import wall_seconds
from repro.sim.engine import global_events_processed


def utc_stamp() -> Tuple[str, str]:
    """(ISO-8601 creation time, compact filename stamp) in UTC.

    Derived from :func:`wall_seconds` via a pure epoch conversion, so
    the harness stamps its artifacts without its own clock read.
    """
    now = datetime.datetime.fromtimestamp(wall_seconds(), datetime.timezone.utc)
    return now.isoformat(timespec="seconds"), now.strftime("%Y%m%dT%H%M%SZ")


#: One unit of work shipped to a worker process.
_Payload = Tuple[str, str, int, bool]


def _worker_run(payload: _Payload) -> Dict[str, Any]:
    """Run one benchmark in this process and measure it."""
    name, kind, seed, quick = payload
    record: Dict[str, Any] = {"name": name, "kind": kind, "seed": seed}
    events_before = global_events_processed()
    started = wall_seconds()
    try:
        headline = execute(name, seed, quick)
    except Exception as exc:  # noqa: BLE001 - one bad bench must not kill the run
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["wall_s"] = round(wall_seconds() - started, 4)
        record["events"] = global_events_processed() - events_before
        record["events_per_sec"] = 0.0
        record["headline"] = {}
        return record
    wall = wall_seconds() - started
    events = global_events_processed() - events_before
    record["status"] = "ok"
    record["wall_s"] = round(wall, 4)
    record["events"] = events
    record["events_per_sec"] = round(events / wall, 1) if wall > 0 else 0.0
    record["headline"] = headline
    return record


def run_bench(
    quick: bool = False,
    workers: Optional[int] = None,
    only: Optional[List[str]] = None,
    root_seed: int = 0,
) -> Dict[str, Any]:
    """Run the suite and return the (schema-valid) benchmark document."""
    specs = specs_for(quick=quick, only=only)
    if workers is None:
        workers = min(4, os.cpu_count() or 1, max(len(specs), 1))

    def payload_for(spec: Any) -> _Payload:
        return (
            spec.name, spec.kind, derive_bench_seed(root_seed, spec.name), quick
        )

    # Benchmarks that spawn their own shard workers cannot run inside
    # Pool workers (daemonic processes may not have children) — they run
    # inline in the parent, after the pooled batch.
    pooled = [payload_for(spec) for spec in specs if not spec.own_processes]
    inline = [payload_for(spec) for spec in specs if spec.own_processes]
    order = {spec.name: index for index, spec in enumerate(specs)}
    started = wall_seconds()
    results: List[Dict[str, Any]] = []
    if pooled:
        if workers <= 1 or len(pooled) <= 1:
            inline = pooled + inline
        else:
            # spawn (not fork): each worker is a fresh interpreter, so
            # nothing leaks between the parent's world and the workers'.
            mp = multiprocessing.get_context("spawn")
            with mp.Pool(processes=workers) as pool:
                results.extend(pool.map(_worker_run, pooled))
    results.extend(_worker_run(payload) for payload in inline)
    results.sort(key=lambda record: order[record["name"]])
    total_wall = wall_seconds() - started
    created, _stamp = utc_stamp()
    total_events = sum(record["events"] for record in results)
    doc: Dict[str, Any] = {
        "schema": SCHEMA_ID,
        "created_utc": created,
        "quick": quick,
        "workers": workers,
        "root_seed": root_seed,
        "benchmarks": results,
        "totals": {
            "wall_s": round(total_wall, 4),
            "events": total_events,
            "events_per_sec": round(total_events / total_wall, 1)
            if total_wall > 0
            else 0.0,
            "ok": sum(1 for record in results if record["status"] == "ok"),
            "errors": sum(1 for record in results if record["status"] == "error"),
        },
    }
    problems = validate_bench_doc(doc)
    if problems:  # pragma: no cover - harness self-check
        raise RuntimeError(f"bench harness emitted an invalid document: {problems}")
    return doc


def write_bench_doc(doc: Dict[str, Any], out_dir: str = "results") -> str:
    """Write ``doc`` as ``<out_dir>/BENCH_<timestamp>.json``; return the path."""
    os.makedirs(out_dir, exist_ok=True)
    _created, stamp = utc_stamp()
    path = os.path.join(out_dir, f"BENCH_{stamp}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

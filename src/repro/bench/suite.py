"""The benchmark suite: what ``repro bench`` actually runs.

Four kinds of benchmark, probing four layers:

* ``engine`` — event-core microbenches driving one
  :class:`~repro.sim.engine.Simulator` directly: schedule/cancel churn
  and a ``post_batch`` NAPI-storm pattern. These isolate raw events/sec.
* ``scenario`` — sockperf-style :class:`~repro.workloads.sockperf.Testbed`
  runs covering all four datapath regimes (vanilla, Falcon, ONCache,
  ONCache+Falcon, plus TCP stream Falcon): the whole stack, one host,
  headline packet rates. The ONCache regimes use the warm-then-stress
  ramp — a cold cache under saturation never populates because the
  ordering gate keeps flows on the slow path while it is busy.
* ``flowcache`` — the per-flow fast-path cache hit-rate sweep (flow
  count vs one cache capacity per bench), pinning LRU thrash behaviour.
* ``figure`` — full figure reproductions from
  :mod:`repro.experiments.run_all`; their headline is the figure's raw
  series, so a perf regression and a *result* regression both surface.

Every benchmark derives its own seed from the run's root seed and its
name, so runs are reproducible and benchmarks are independently
perturbable — exactly the :class:`~repro.sim.rng.RngRegistry` rule,
applied one level up.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry, _derive_seed

#: Figures included in ``--quick`` runs (one per experiment family:
#: serialization microbench, stress throughput, latency distribution).
QUICK_FIGURES = ("fig05_serialization", "fig10_udp_stress", "fig12_latency")

ALL_FIGURES = (
    "fig02_motivation",
    "fig04_interrupts",
    "fig05_serialization",
    "fig06_flamegraph",
    "fig09_splitting",
    "fig10_udp_stress",
    "fig11_cpu_util",
    "fig12_latency",
    "fig13_multiflow",
    "fig14_multicontainer",
    "fig15_threshold",
    "fig16_adaptability",
    "fig17_webserving",
    "fig18_datacaching",
    "fig19_overhead",
    "fig21_flowcache",
)


@dataclass(frozen=True)
class BenchSpec:
    """One runnable benchmark."""

    name: str
    kind: str  # "engine" | "scenario" | "figure" | "shard" | "flowcache"
    #: Included in ``--quick`` runs.
    quick: bool
    #: True for benchmarks that spawn their own worker processes (the
    #: shard sweep). The harness must run these inline in the parent —
    #: Pool workers are daemonic and may not have children.
    own_processes: bool = False


def all_specs() -> List[BenchSpec]:
    """The full suite, in deterministic order."""
    specs = [
        BenchSpec("engine-churn-heap", "engine", True),
        BenchSpec("engine-post-batch-storm", "engine", True),
        BenchSpec("scenario-udp-stress-vanilla", "scenario", True),
        BenchSpec("scenario-udp-stress-falcon", "scenario", True),
        BenchSpec("scenario-udp-stress-oncache", "scenario", True),
        BenchSpec("scenario-udp-stress-oncache-falcon", "scenario", True),
        BenchSpec("scenario-tcp-stream-falcon", "scenario", True),
        # The flow-cache hit-rate sweep, one cache capacity per bench
        # (mirrors fig21 panel b): flow counts above the capacity thrash
        # the LRU and the hit rate collapses.
        BenchSpec("flowcache-sweep-8", "flowcache", True),
        BenchSpec("flowcache-sweep-32", "flowcache", False),
        BenchSpec("flowcache-sweep-128", "flowcache", True),
        # The shard-count sweep: the same cluster at 1 (inline reference)
        # and 2/4 worker processes. Comparing their events/sec is the
        # sharded engine's headline speedup number.
        BenchSpec("shard-cluster-1", "shard", True),
        BenchSpec("shard-cluster-2", "shard", True, own_processes=True),
        BenchSpec("shard-cluster-4", "shard", True, own_processes=True),
    ]
    for figure in ALL_FIGURES:
        specs.append(BenchSpec(f"figure-{figure}", "figure", figure in QUICK_FIGURES))
    return specs


def specs_for(
    quick: bool = False, only: Optional[List[str]] = None
) -> List[BenchSpec]:
    """The benchmarks a run selects (``--quick`` subset, ``--only`` filter)."""
    specs = all_specs()
    if only:
        wanted = set(only)
        unknown = wanted - {spec.name for spec in specs}
        if unknown:
            raise ValueError(f"unknown benchmark(s): {sorted(unknown)}")
        return [spec for spec in specs if spec.name in wanted]
    if quick:
        return [spec for spec in specs if spec.quick]
    return specs


def derive_bench_seed(root_seed: int, name: str) -> int:
    """Per-benchmark seed: stable in the root seed and the bench name."""
    # Testbed seeds shift client IP/port allocation; keep them small.
    return _derive_seed(root_seed, f"bench/{name}") % 100_000


# ----------------------------------------------------------------------
# Engine microbenches
# ----------------------------------------------------------------------
def _sink() -> None:
    """Do-nothing event payload for engine microbenches."""


def _engine_churn(seed: int, quick: bool) -> Dict[str, Any]:
    """Self-sustaining schedule/cancel churn against the event queue.

    90% of events land in the near future (the packet-run distribution),
    10% far out; a third of ticks also schedule a cancellable timer, half
    of which are cancelled — the lazy-cancellation-plus-compaction path.
    """
    sim = Simulator()
    rng = RngRegistry(seed).stream("bench/churn")
    remaining = 20_000 if quick else 200_000
    cancels = 0

    def tick() -> None:
        nonlocal remaining, cancels
        if remaining <= 0:
            return
        remaining -= 1
        if rng.random() < 0.9:
            delay = rng.random() * 4.0
        else:
            delay = 400.0 + rng.random() * 600.0
        sim.post(delay, tick)
        if rng.random() < 0.3:
            handle = sim.schedule(rng.random() * 50.0, _sink)
            if rng.random() < 0.5:
                sim.cancel(handle)
                cancels += 1

    for _ in range(64):
        sim.post(rng.random(), tick)
    sim.run()
    return {
        "final_clock_us": round(sim.now, 3),
        "cancelled": cancels,
        "sim_events": sim.events_processed,
    }


def _engine_post_batch_storm(seed: int, quick: bool) -> Dict[str, Any]:
    """NAPI poll-storm pattern: bursts of same-instant continuations.

    Each round bulk-inserts one batch of per-packet continuations via
    :meth:`~repro.sim.engine.Simulator.post_batch` — the shape a NAPI
    poll round produces — then schedules the next round.
    """
    sim = Simulator()
    rounds = 500 if quick else 5_000
    batch = 64
    done = 0

    def packet(_index: int) -> None:
        nonlocal done
        done += 1

    def poll_round(round_index: int) -> None:
        if round_index >= rounds:
            return
        sim.post_batch(1.0, packet, [(i,) for i in range(batch)])
        sim.post(1.0, poll_round, round_index + 1)

    sim.post(0.0, poll_round, 0)
    sim.run()
    return {
        "rounds": rounds,
        "batch": batch,
        "packets": done,
        "final_clock_us": round(sim.now, 3),
        "sim_events": sim.events_processed,
    }


# ----------------------------------------------------------------------
# Scenario benches
# ----------------------------------------------------------------------
def _scenario(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.core.config import FalconConfig
    from repro.workloads.sockperf import Experiment

    duration_ms = 4.0 if quick else 25.0
    warmup_ms = 2.0 if quick else 10.0
    falcon = FalconConfig(cpus=[3, 4, 5, 6])
    if name == "scenario-udp-stress-vanilla":
        exp = Experiment(mode="overlay", seed=seed)
        result = exp.run_udp_stress(1024, duration_ms=duration_ms, warmup_ms=warmup_ms)
    elif name == "scenario-udp-stress-falcon":
        exp = Experiment(mode="overlay", falcon=falcon, seed=seed)
        result = exp.run_udp_stress(1024, duration_ms=duration_ms, warmup_ms=warmup_ms)
    elif name == "scenario-tcp-stream-falcon":
        exp = Experiment(mode="overlay", falcon=falcon, seed=seed)
        result = exp.run_tcp_stream(4096, duration_ms=duration_ms, warmup_ms=warmup_ms)
    elif name in (
        "scenario-udp-stress-oncache",
        "scenario-udp-stress-oncache-falcon",
    ):
        # ONCache regimes run the warm-then-stress ramp: the ordering
        # gate only grants fast-path hits to flows with an empty slow
        # path, so a saturating closed loop from a cold start would
        # measure the slow path forever.
        from repro.experiments.fig21_flowcache import run_ramp_regime

        result = run_ramp_regime(
            use_falcon=name.endswith("-falcon"),
            use_cache=True,
            warmup_ms=warmup_ms,
            duration_ms=duration_ms,
            seed=seed,
        )
    else:
        raise ValueError(f"unknown scenario benchmark {name!r}")
    headline = {
        "mode": result.mode,
        "proto": result.proto,
        "message_rate_pps": round(result.message_rate_pps, 1),
        "goodput_gbps": round(result.goodput_gbps, 4),
        "p99_latency_us": round(result.p99_latency_us, 2),
        "drops": result.drops,
    }
    if "oncache" in name:
        headline["cache_hit_rate"] = round(result.cache_hit_rate, 4)
        headline["fastpath_deliveries"] = result.fastpath_deliveries
    return headline


# ----------------------------------------------------------------------
# Flow-cache sweep benches
# ----------------------------------------------------------------------
def _flowcache_sweep(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    """One capacity of the fast-path hit-rate sweep (fig21 panel b).

    Flows are paced well under slow-path capacity so the ordering gate
    opens at every flow count: the hit rate is then set purely by how
    the flow count compares to the cache capacity (LRU thrash), which is
    exactly the curve this bench pins.
    """
    from repro.experiments.fig21_flowcache import (
        QUICK_SWEEP_FLOWS,
        SWEEP_FLOWS,
        SWEEP_RATE_PPS,
        run_sweep_point,
    )

    capacity = int(name.rsplit("-", 1)[1])
    flows_list = QUICK_SWEEP_FLOWS if quick else SWEEP_FLOWS
    duration_ms, warmup_ms = (4.0, 2.0) if quick else (12.0, 6.0)
    points: Dict[str, Any] = {}
    for flows in flows_list:
        result = run_sweep_point(
            flows, capacity, warmup_ms=warmup_ms, duration_ms=duration_ms, seed=seed
        )
        points[str(flows)] = {
            "message_rate_pps": round(result.message_rate_pps, 1),
            "hit_rate": round(result.cache_hit_rate, 4),
            "evictions": result.cache_evictions,
            "fastpath_deliveries": result.fastpath_deliveries,
        }
    return {"capacity": capacity, "rate_pps": SWEEP_RATE_PPS, "points": points}


# ----------------------------------------------------------------------
# Shard sweep benches
# ----------------------------------------------------------------------
def _shard_bench(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    """One point of the shard-count sweep.

    The scenario is sized for parallel efficiency: 4 hosts saturating a
    UDP ring with a generous inter-host propagation delay, so barrier
    windows are wide and each shard does real work between syncs. The
    simulated result is identical at every shard count (that is the
    equivalence suite's job to prove); only events/sec should move.
    """
    from repro.overlay.cluster import run_cluster, udp_ring_spec

    shards = int(name.rsplit("-", 1)[1])
    # One fixed scenario for every sweep point (ignore the per-bench
    # seed): the three entries must simulate the *same* workload or
    # their events/sec would not be comparable. The scenario is fully
    # deterministic regardless.
    spec = udp_ring_spec(
        num_hosts=4,
        message_size=1024,
        rate_pps=None,  # saturating — throughput-bound, not pacing-bound
        seed=0,
        propagation_us=25.0,
        warmup_us=1000.0,
        duration_us=3000.0 if quick else 10_000.0,
    )
    result = run_cluster(
        spec, shards=shards, transport="inline" if shards == 1 else "process"
    )
    return {
        "shards": shards,
        "transport": result.transport,
        "messages_delivered": result.messages_delivered,
        "message_rate_pps": round(result.message_rate_pps, 1),
        "windows_run": result.windows_run,
        "records_exchanged": result.records_exchanged,
        "sim_events": result.events_processed,
    }


# ----------------------------------------------------------------------
# Figure benches
# ----------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    """Reduce an arbitrary result structure to JSON-serializable types."""
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, float):
        return round(value, 6)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _figure(name: str, quick: bool) -> Dict[str, Any]:
    module = importlib.import_module(f"repro.experiments.{name}")
    output = module.run(quick=quick)
    return {
        "figure": output.figure,
        "title": output.title,
        "series": _json_safe(output.series),
    }


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def execute(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    """Run one benchmark by name; returns its headline metrics."""
    if name == "engine-churn-heap":
        return _engine_churn(seed, quick)
    if name == "engine-post-batch-storm":
        return _engine_post_batch_storm(seed, quick)
    if name.startswith("scenario-"):
        return _scenario(name, seed, quick)
    if name.startswith("flowcache-"):
        return _flowcache_sweep(name, seed, quick)
    if name.startswith("shard-"):
        return _shard_bench(name, seed, quick)
    if name.startswith("figure-"):
        return _figure(name[len("figure-"):], quick)
    raise ValueError(f"unknown benchmark {name!r}")

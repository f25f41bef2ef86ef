"""The benchmark's three workloads, built only from public simulator APIs.

Each workload is a deterministic batch simulation over a fixed simulated
span. ``params(seed)`` generates its inputs from the benchmark seed (the
seed reaches the program only as the ``Testbed`` or ``ClusterSpec`` seed,
plus, for ``cluster-churn``, the generated churn schedule);
``execute(params, clock)`` builds the world, simulates it and returns
its digest: the simulated outputs a correct program must reproduce
exactly for those inputs.

The ``clock`` stamps the end of set-up (the first simulated event) and
the end of simulation. ``cluster-churn`` builds its world inside
``run_cluster``, so set-up ends when ``ShardCoordinator.run`` is entered.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.config import FalconConfig
from repro.overlay.cluster import run_cluster, udp_double_ring_spec
from repro.sim.shard import ShardCoordinator
from repro.workloads.memcached import MemcachedScenario
from repro.workloads.sockperf import Testbed

#: Per-window bound on a shard worker's reply; a hung or dead worker
#: becomes a ShardError (a failed scenario), never a hung benchmark.
SHARD_STEP_TIMEOUT_S = 20.0

Digest = Dict[str, Any]


class Clock:
    """Phase stamps of one scenario. With a span log it also opens and
    closes the scenario's root span around the simulated span."""

    def __init__(
        self,
        log: Any = None,
        scenario_id: int = 0,
        now: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.log = log
        self.scenario_id = scenario_id
        self.now = now
        self.t_start = now()
        self.t_sim: Optional[float] = None
        self.t_end: Optional[float] = None
        self.root: Optional[int] = None

    def begin_sim(self) -> None:
        self.t_sim = self.now()
        if self.log is not None:
            self.root = self.log.open_root(self.scenario_id)

    def end_sim(self) -> None:
        if self.log is not None and self.root is not None:
            self.log.close_root(self.root)
        self.t_end = self.now()

    @property
    def setup_s(self) -> float:
        assert self.t_sim is not None
        return self.t_sim - self.t_start

    @property
    def sim_s(self) -> float:
        assert self.t_sim is not None and self.t_end is not None
        return self.t_end - self.t_sim


@dataclass(frozen=True)
class Workload:
    name: str
    #: Layers that do no work here and must report zero when traced;
    #: every other layer is loaded (see BENCHMARK.json and README.md).
    bypasses: Tuple[str, ...]
    params: Callable[..., Dict[str, Any]]
    execute: Callable[[Dict[str, Any], Clock], Digest]


def _summary(values: Dict[str, Any]) -> Dict[str, Any]:
    return {key: round(float(value), 6) for key, value in sorted(values.items())}


def _testbed_digest(bed: Testbed, latency: Dict[str, Any]) -> Digest:
    stack = bed.stack
    falcon = stack.falcon
    return {
        "events": bed.sim.events_processed,
        "msgs_delivered": bed.window.rate.count,
        "drops": dict(sorted(stack.drop_counts().items())),
        "latency": _summary(latency),
        "flowcache": dict(sorted(stack.cache_counters().items())),
        "falcon": {
            "steered": falcon.steered if falcon else 0,
            "fallbacks": falcon.fallbacks if falcon else 0,
        },
        "windows": 0,
        "records": 0,
    }


# ----------------------------------------------------------------------
# udp-stress-falcon
# ----------------------------------------------------------------------
def _udp_stress_params(seed: int, scale: float = 1.0) -> Dict[str, Any]:
    return {
        "seed": seed,
        "mode": "overlay",
        "falcon_cpus": [3, 4, 5, 6],
        "message_size": 1024,
        "clients": 3,
        "warmup_ms": 5.0 * scale,
        "measure_ms": 15.0 * scale,
    }


def _udp_stress(p: Dict[str, Any], clock: Clock) -> Digest:
    bed = Testbed(
        mode=p["mode"], falcon=FalconConfig(cpus=list(p["falcon_cpus"])), seed=p["seed"]
    )
    bed.add_udp_flow(p["message_size"], clients=p["clients"])
    clock.begin_sim()
    try:
        result = bed.run(warmup_ms=p["warmup_ms"], measure_ms=p["measure_ms"])
    finally:
        clock.end_sim()
    return _testbed_digest(bed, result.latency)


# ----------------------------------------------------------------------
# memcached-falcon
# ----------------------------------------------------------------------
def _memcached_params(seed: int, scale: float = 1.0) -> Dict[str, Any]:
    return {
        "seed": seed,
        "clients": 10,
        "connections_per_client": 10,
        "falcon_cpus": [3, 4, 5, 6],
        "warmup_ms": 15.0 * scale,
        "duration_ms": 30.0 * scale,
    }


def _memcached(p: Dict[str, Any], clock: Clock) -> Digest:
    scenario = MemcachedScenario(
        clients=p["clients"],
        connections_per_client=p["connections_per_client"],
        falcon=FalconConfig(cpus=list(p["falcon_cpus"])),
        seed=p["seed"],
    )
    clock.begin_sim()
    try:
        result = scenario.run(duration_ms=p["duration_ms"], warmup_ms=p["warmup_ms"])
    finally:
        clock.end_sim()
    digest = _testbed_digest(scenario.bed, result.latency)
    digest["requests_completed"] = result.requests_completed
    digest["pool_peak_queue"] = result.server_pool_peak_queue
    return digest


# ----------------------------------------------------------------------
# cluster-churn
# ----------------------------------------------------------------------
def _cluster_params(seed: int, scale: float = 1.0) -> Dict[str, Any]:
    warmup_us = 5000.0 * scale
    duration_us = 17000.0 * scale
    # Three container restarts at seed-drawn times inside the measured
    # window, on seed-drawn hosts: the generated input of this workload.
    rng = random.Random(seed)
    churn = sorted(
        (round(warmup_us + rng.uniform(0.1, 0.9) * duration_us, 1), rng.randrange(4))
        for _ in range(3)
    )
    return {
        "seed": seed,
        "num_hosts": 4,
        "message_size": 512,
        "rate_pps": 100_000.0,
        "rate2_pps": 50_000.0,
        "propagation_us": 25.0,
        "flowcache": True,
        "flowcache_capacity": 1,
        "churn": [list(entry) for entry in churn],
        "warmup_us": warmup_us,
        "duration_us": duration_us,
        "shards": 2,
        "transport": "process",
    }


@contextmanager
def _sim_phase(clock: Clock) -> Iterator[None]:
    """Stamp ``clock`` around ``ShardCoordinator.run``: everything
    ``run_cluster`` does before it (spec checks, world construction,
    spawning and initialising workers) is set-up."""
    original = ShardCoordinator.run

    def run(self: ShardCoordinator, until: float) -> None:
        clock.begin_sim()
        try:
            original(self, until)
        finally:
            clock.end_sim()

    ShardCoordinator.run = run  # type: ignore[method-assign]
    try:
        yield
    finally:
        ShardCoordinator.run = original  # type: ignore[method-assign]


def _cluster(p: Dict[str, Any], clock: Clock) -> Digest:
    spec = udp_double_ring_spec(
        num_hosts=p["num_hosts"],
        message_size=p["message_size"],
        rate_pps=p["rate_pps"],
        rate2_pps=p["rate2_pps"],
        propagation_us=p["propagation_us"],
        flowcache=p["flowcache"],
        flowcache_capacity=p["flowcache_capacity"],
        churn=tuple((float(t), int(h)) for t, h in p["churn"]),
        seed=p["seed"],
        warmup_us=p["warmup_us"],
        duration_us=p["duration_us"],
    )
    with _sim_phase(clock):
        result = run_cluster(
            spec,
            shards=p["shards"],
            transport=p["transport"],
            timeout_s=SHARD_STEP_TIMEOUT_S,
        )
    drops: Dict[str, int] = {}
    cache: Dict[str, int] = {}
    for host in result.per_host:
        for reason, count in host["drops"].items():
            drops[reason] = drops.get(reason, 0) + count
        for counter, count in host.get("flowcache", {}).items():
            cache[counter] = cache.get(counter, 0) + count
    return {
        "events": result.events_processed,
        "msgs_delivered": result.messages_delivered,
        "drops": dict(sorted(drops.items())),
        "latency": [_summary(host["latency"]) for host in result.per_host],
        "flowcache": dict(sorted(cache.items())),
        "falcon": {"steered": 0, "fallbacks": 0},
        "windows": result.windows_run,
        "records": result.records_exchanged,
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="udp-stress-falcon",
            bypasses=("kernel.flowcache", "kernel.tx", "workloads.apps", "sim.shard"),
            params=_udp_stress_params,
            execute=_udp_stress,
        ),
        Workload(
            name="memcached-falcon",
            bypasses=("kernel.flowcache", "kernel.tx", "sim.shard"),
            params=_memcached_params,
            execute=_memcached,
        ),
        Workload(
            name="cluster-churn",
            bypasses=("core.falcon", "kernel.tx", "workloads.apps"),
            params=_cluster_params,
            execute=_cluster,
        ),
    )
}


def model_values(digest: Digest) -> Dict[str, float]:
    """The simulated statistics the per-layer report carries (``model.*``).
    They come from the digest, so they repeat exactly or the run fails."""
    falcon = digest["falcon"]
    routed = falcon["steered"] + falcon["fallbacks"]
    cache = digest["flowcache"]

    def both(counter: str) -> int:
        return cache.get(f"ingress_{counter}", 0) + cache.get(f"egress_{counter}", 0)

    lookups = both("hits") + both("misses")
    return {
        "model.msgs_delivered": digest["msgs_delivered"],
        "model.backlog_drops": digest["drops"].get("backlog", 0),
        "model.socket_drops": digest["drops"].get("socket", 0),
        "model.falcon.steered_ratio": falcon["steered"] / routed if routed else 0.0,
        "model.flowcache.hit_ratio": both("hits") / lookups if lookups else 0.0,
        "model.flowcache.evictions": both("evictions"),
        "model.flowcache.invalidations": both("invalidations"),
    }


def sanity_problems(digest: Digest) -> List[str]:
    """Output properties every workload must have, whatever the seed."""
    problems: List[str] = []
    if digest["events"] <= 0:
        problems.append("no simulated events")
    if digest["msgs_delivered"] <= 0:
        problems.append("no messages delivered")
    if digest.get("requests_completed", 1) <= 0:
        problems.append("no requests completed")
    return problems

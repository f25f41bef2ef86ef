"""Multi-flow and multi-container scenarios (Figures 2c, 13, 14, 16).

These wrap :class:`~repro.workloads.sockperf.Testbed` with the flow/core
layouts the paper's multi-flow experiments use:

* **multi-flow** — N flows into one container, RSS/RPS spreading them
  over a CPU set, optionally with dedicated idle ``FALCON_CPUS``
  (Figure 13) or a constrained RPS set giving a 4:1 flow-to-core ratio
  (Figure 2c);
* **multi-container busy system** — one flow per container, the
  receiving CPUs limited to six cores that double as ``FALCON_CPUS``, so
  Falcon must scavenge idle cycles (Figure 14);
* **hotspot adaptability** — one flow suddenly triples its rate,
  comparing the two-choice balancer against static hashing (Figure 16).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import FalconConfig, FlowCacheConfig
from repro.kernel.costs import CostModel
from repro.workloads.sockperf import RunResult, Testbed
from repro.workloads.traffic import HotspotSchedule


def run_multiflow_udp(
    flows: int,
    message_size: int = 16,
    mode: str = "overlay",
    falcon: Optional[FalconConfig] = None,
    flowcache: Optional[FlowCacheConfig] = None,
    rps_cpus: Optional[List[int]] = None,
    app_cpus: Optional[List[int]] = None,
    rate_per_flow: Optional[float] = None,
    kernel: str = "4.19",
    bandwidth_gbps: float = 100.0,
    duration_ms: float = 20.0,
    warmup_ms: float = 10.0,
    seed: int = 0,
) -> RunResult:
    """N UDP flows, one client each (the paper's multi-flow UDP setup)."""
    bed = Testbed(
        mode=mode,
        falcon=falcon,
        flowcache=flowcache,
        costs=CostModel.for_kernel(kernel),
        bandwidth_gbps=bandwidth_gbps,
        rps_cpus=rps_cpus if rps_cpus is not None else [1, 2],
        app_cpus=app_cpus or list(range(10, 16)),
        seed=seed,
    )
    for _ in range(flows):
        bed.add_udp_flow(message_size, clients=1, rate_pps=rate_per_flow)
    return bed.run(warmup_ms=warmup_ms, measure_ms=duration_ms)


def run_multiflow_tcp(
    flows: int,
    message_size: int = 4096,
    mode: str = "overlay",
    falcon: Optional[FalconConfig] = None,
    flowcache: Optional[FlowCacheConfig] = None,
    rps_cpus: Optional[List[int]] = None,
    app_cpus: Optional[List[int]] = None,
    window_msgs: int = 32,
    kernel: str = "4.19",
    bandwidth_gbps: float = 100.0,
    duration_ms: float = 20.0,
    warmup_ms: float = 10.0,
    seed: int = 0,
) -> RunResult:
    """N closed-loop TCP flows (Figure 13 c/d)."""
    bed = Testbed(
        mode=mode,
        falcon=falcon,
        flowcache=flowcache,
        costs=CostModel.for_kernel(kernel),
        bandwidth_gbps=bandwidth_gbps,
        rps_cpus=rps_cpus if rps_cpus is not None else [1, 2],
        app_cpus=app_cpus or list(range(10, 16)),
        seed=seed,
    )
    for _ in range(flows):
        bed.add_tcp_flow(message_size, window_msgs=window_msgs)
    return bed.run(warmup_ms=warmup_ms, measure_ms=duration_ms)


def run_multicontainer(
    containers: int,
    message_size: int = 1024,
    proto: str = "udp",
    falcon: Optional[FalconConfig] = None,
    receiving_cpus: Optional[List[int]] = None,
    rate_per_flow: Optional[float] = None,
    window_msgs: int = 32,
    duration_ms: float = 20.0,
    warmup_ms: float = 10.0,
    seed: int = 0,
) -> RunResult:
    """One flow per container in a busy system (Figure 14).

    The receiving CPUs are limited to six cores (the paper's setup); when
    Falcon is enabled, FALCON_CPUS is that same set, so parallelization
    must use idle cycles on unsaturated receive cores. Applications run
    on the remaining cores.
    """
    receiving = receiving_cpus or [1, 2, 3, 4, 5, 6]
    if falcon is not None:
        falcon.cpus = list(receiving)
    bed = Testbed(
        mode="overlay",
        falcon=falcon,
        # All receive processing is confined to the receiving cores: the
        # NIC exposes one RSS queue per core (hardirqs + driver polling),
        # RPS steers within the same set, and FALCON_CPUS equals it too.
        irq_cpus=list(receiving),
        rps_cpus=list(receiving),
        app_cpus=list(range(7, 20)),
        seed=seed,
    )
    for index in range(containers):
        container = bed.new_container(f"c{index}")
        if proto == "udp":
            bed.add_udp_flow(
                message_size,
                clients=1,
                rate_pps=rate_per_flow,
                container=container,
            )
        else:
            bed.add_tcp_flow(
                message_size, window_msgs=window_msgs, container=container
            )
    return bed.run(warmup_ms=warmup_ms, measure_ms=duration_ms)


def run_hotspot(
    policy: str,
    flows: int = 4,
    message_size: int = 1024,
    base_rate: float = 120_000.0,
    burst_rate: float = 950_000.0,
    burst_clients: int = 3,
    burst_flow: int = 0,
    burst_at_ms: float = 10.0,
    duration_ms: float = 25.0,
    warmup_ms: float = 8.0,
    seed: int = 0,
) -> RunResult:
    """Adaptability test: one flow suddenly intensifies (Figure 16).

    ``policy`` is ``two_choice`` (the paper's dynamic algorithm) or
    ``static`` (first choice only). The bursting flow is driven by
    several clients (like the paper's stress setup) so its per-device
    softirq stages genuinely overload the core they hash to; the dynamic
    policy steers softirqs away from the hot core, the static one cannot.
    """
    falcon = FalconConfig(cpus=[3, 4, 5, 6], policy=policy)
    bed = Testbed(
        mode="overlay",
        falcon=falcon,
        rps_cpus=[1, 2],
        app_cpus=list(range(10, 16)),
        seed=seed,
    )
    for index in range(flows):
        if index == burst_flow:
            schedule = HotspotSchedule(
                [
                    (0.0, base_rate / burst_clients),
                    (burst_at_ms * 1000.0, burst_rate / burst_clients),
                ]
            )
            bed.add_udp_flow(
                message_size, clients=burst_clients, process=schedule
            )
        else:
            bed.add_udp_flow(message_size, clients=1, rate_pps=base_rate)
    return bed.run(warmup_ms=warmup_ms, measure_ms=duration_ms)

"""Ablation: the cache-locality tax of pipelining.

Section 6.3 argues Falcon's loss of locality costs little because the
vanilla overlay's locality is already poor (one core thrashing between
three softirq contexts). This ablation re-runs the single-flow stress
with the locality model switched off (uniform multipliers and zero
context-switch cost) to isolate how much of Falcon's remaining gap to
native is locality.
"""

import pytest
from conftest import QUICK

from dataclasses import replace

from repro.core.config import FalconConfig
from repro.hw.cache import LocalityModel
from repro.kernel.costs import CostModel, FuncCost
from repro.metrics.report import Table
from repro.workloads.sockperf import Testbed

DUR = dict(warmup_ms=4 if QUICK else 8, measure_ms=8 if QUICK else 20)


def run_case(falcon, locality_off):
    costs = CostModel()
    if locality_off:
        costs = replace(costs, softirq_switch=FuncCost(0.0))
    bed = Testbed(mode="overlay", falcon=falcon, costs=costs)
    if locality_off:
        bed.host.machine.locality = LocalityModel.uniform()
    bed.add_udp_flow(16, clients=3)
    return bed.run(**DUR)


def test_ablation_locality_tax(benchmark):
    def run():
        return {
            ("Con", False): run_case(None, False),
            ("Con", True): run_case(None, True),
            ("Falcon", False): run_case(FalconConfig(), False),
            ("Falcon", True): run_case(FalconConfig(), True),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(
        ["case", "locality model", "kpps", "total CPU cores"],
        title="16 B UDP stress with and without locality costs",
    )
    for (label, off), result in results.items():
        table.add_row(
            label,
            "off" if off else "on",
            result.message_rate_pps / 1e3,
            sum(result.cpu_util),
        )
    print()
    print(table.render())

    # Removing locality costs helps Falcon (it pays cross-core taxes)...
    assert (
        results[("Falcon", True)].message_rate_pps
        >= results[("Falcon", False)].message_rate_pps * 0.99
    )
    # ...but the effect is second-order: pipelining, not locality, is the
    # headline (Falcon with locality on still far exceeds Con without).
    assert (
        results[("Falcon", False)].message_rate_pps
        > 1.5 * results[("Con", True)].message_rate_pps
    )

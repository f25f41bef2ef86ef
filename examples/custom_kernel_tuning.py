#!/usr/bin/env python3
"""Scenario: what-if analysis with a custom cost model.

The simulator's cost model is explicit data, which makes the kind of
what-if analysis possible that a hardware testbed can't do cheaply:
What if ``vxlan_rcv`` were 2.5x as expensive (e.g. with traffic
encryption hooked into the tunnel)? How much of the overlay penalty is
the bridge/veth plumbing? Whatever modules get hooked into the packet
path ("encryption, profiling, software switches, network functions" —
Section 4.2), pipelining the per-device stages keeps paying: Falcon
roughly doubles vanilla-overlay throughput in every variant below.

Run:  python examples/custom_kernel_tuning.py
"""

from dataclasses import replace

from repro import FalconConfig
from repro.kernel.costs import CostModel, FuncCost
from repro.metrics.report import Table
from repro.workloads.sockperf import Testbed


def run_variant(name: str, costs: CostModel, table: Table) -> None:
    rates = {}
    for mode, falcon in (("Con", None), ("Falcon", FalconConfig())):
        bed = Testbed(mode="overlay", falcon=falcon, costs=costs)
        bed.add_udp_flow(16, clients=3)
        result = bed.run(warmup_ms=8, measure_ms=15)
        rates[mode] = result.message_rate_pps
    gain = rates["Falcon"] / rates["Con"] - 1.0 if rates["Con"] else 0.0
    table.add_row(name, rates["Con"] / 1e3, rates["Falcon"] / 1e3, gain * 100)


def main() -> None:
    table = Table(
        ["cost model", "Con kpps", "Falcon kpps", "Falcon gain %"],
        title="16 B UDP single-flow stress under what-if cost models",
    )
    baseline = CostModel.kernel_4_19()
    run_variant("baseline (kernel 4.19)", baseline, table)
    run_variant(
        "encrypted tunnel (2.5x vxlan_rcv)",
        replace(baseline, vxlan_rcv=FuncCost(0.55, 0.0002)),
        table,
    )
    run_variant(
        "free bridge/veth plumbing",
        replace(
            baseline,
            br_handle_frame=FuncCost(0.0),
            veth_xmit=FuncCost(0.0),
            gro_cell_poll=FuncCost(0.0),
        ),
        table,
    )
    run_variant("kernel 5.4 preset", CostModel.kernel_5_4(), table)
    print(table.render())


if __name__ == "__main__":
    main()

"""Device indexes.

``ifindex`` values follow the usual Linux layout on a Docker-overlay host:
low indexes for physical devices, higher for virtual ones. The exact
values are irrelevant — what matters (and what tests pin down) is that
they are *distinct*, so ``hash_32(skb.hash + ifindex)`` separates stages.
"""

from __future__ import annotations

#: The physical NIC.
IFINDEX_PNIC = 2
#: The VXLAN tunnel endpoint device.
IFINDEX_VXLAN = 3
#: The host-side veth peer of the container.
IFINDEX_VETH = 5
#: Synthetic index for the offloaded half of a split pNIC stage.
IFINDEX_PNIC_SPLIT = 1002
#: Synthetic index for the ONCache fast-path hit stage (a cache hit is
#: not a real net_device; the index keeps Falcon's per-device hashing
#: distinct from every real stage).
IFINDEX_FASTPATH = 1003


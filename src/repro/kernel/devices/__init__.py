"""Network devices on the overlay receive path.

Each module builds the step list for one device's softirq stage, using
the function names the paper's Figure 3 call graph shows:

* :mod:`~repro.kernel.devices.physical` — the NIC driver
  (``mlx5e_napi_poll``: skb allocation + ``napi_gro_receive``),
* :mod:`~repro.kernel.devices.vxlan`    — outer UDP receive +
  ``vxlan_rcv`` decapsulation, and the VXLAN device's ``gro_cell_poll``,
* :mod:`~repro.kernel.devices.bridge`   — ``br_handle_frame``,
* :mod:`~repro.kernel.devices.veth`     — ``veth_xmit`` into the
  container's network namespace.

Device indexes (``ifindex``) are what Falcon mixes into its CPU hash.
"""

from repro.kernel.devices.base import (
    IFINDEX_PNIC,
    IFINDEX_PNIC_SPLIT,
    IFINDEX_VETH,
    IFINDEX_VXLAN,
)

__all__ = [
    "IFINDEX_PNIC",
    "IFINDEX_VXLAN",
    "IFINDEX_VETH",
    "IFINDEX_PNIC_SPLIT",
]

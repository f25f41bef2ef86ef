"""Softirq splitting (Section 4.2) — function-level stage division.

When one device's softirq saturates a core, Falcon splits its processing
*at function granularity*: a stage-transition function is inserted right
before the function(s) to offload, so they execute as a separate softirq
on another core. The shipped instance is **GRO splitting**: for TCP with
large messages, ``skb`` allocation and ``napi_gro_receive`` each consume
~45% of the first core (Figure 9a), so Falcon inserts ``netif_rx``
between them.

A :class:`SplitSpec` names the device stage and the step before which the
transition is inserted; the stack builder applies it. Splits are decided
by offline profiling in the paper (Section 6.4 discusses the missing
dynamic mechanism), which is why they are static configuration here too.

The two split halves must be *stateless with respect to each other* —
``skb_alloc`` does not depend on ``napi_gro_receive`` — which is what
makes the cut legal; :func:`validate_split` enforces the known-legal cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sim.errors import ConfigurationError


@dataclass(frozen=True)
class SplitSpec:
    """Split a device stage before a named step."""

    #: Stage (device) whose softirq is being split.
    stage_name: str
    #: The step before which ``netif_rx`` is inserted; everything from
    #: this step on runs as a separate softirq.
    before_step: str


#: The paper's shipped split: offload GRO from the physical NIC's stage.
GRO_SPLIT = SplitSpec(stage_name="pnic", before_step="napi_gro_receive")

#: Cuts known to be legal (the halves share no per-packet state).
_LEGAL_CUTS: Tuple[Tuple[str, str], ...] = (
    ("pnic", "napi_gro_receive"),
)


def validate_split(spec: SplitSpec) -> None:
    """Reject splits between functions that share state."""
    if (spec.stage_name, spec.before_step) not in _LEGAL_CUTS:
        raise ConfigurationError(
            f"split of {spec.stage_name!r} before {spec.before_step!r} is not "
            "a known-stateless cut; offline profiling must vet new cuts"
        )

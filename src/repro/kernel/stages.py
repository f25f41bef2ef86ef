"""Packet-processing stages — the unit of softirq pipelining.

The receive path is modelled as a chain of :class:`Stage` objects. A stage
is exactly the work one softirq invocation performs for a packet at one
network device: a sequence of :class:`Step` functions executed back to
back on one core, ended by a :class:`Transition` that hands the packet to
the next stage's queue (possibly on another core) or delivers it to a
socket.

This mirrors Figure 8 of the paper: the pNIC stage
(``mlx5e_napi_poll`` → ``napi_gro_receive`` → RPS), the host-stack stage
(``process_backlog`` → ... → ``vxlan_rcv`` → ``netif_rx``), the
bridge/veth stage, and the container stage. Falcon changes *where the
transitions send packets*, never the stages themselves.

Steps may carry an *effect* — GRO merging, IP defragmentation, VXLAN
decapsulation — that can consume the packet (merge in progress) or
replace it (merged super-packet continues down the pipe).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Tuple

from repro.kernel.costs import FuncCost
from repro.kernel.skb import Skb

#: An effect runs when the step executes. It may return the same skb, a
#: replacement (e.g. a merged super-packet), or None (consumed for now).
Effect = Callable[[Skb, int], Optional[Skb]]

#: A charge is (function label, busy µs) attributed to the executing core.
Charge = Tuple[str, float]

#: A step's cost function: skb -> µs (costs may depend on size and protocol).
CostFn = Callable[[Skb], float]


class Step:
    """One kernel function in a stage: a cost plus an optional effect.

    A :meth:`simple` step also keeps its :class:`FuncCost` terms in
    ``fixed`` and ``per_byte`` (``fixed`` is None for any other step), so
    a :class:`Stage` computes its cost inline instead of calling ``cost``.
    """

    __slots__ = ("name", "cost", "effect", "fixed", "per_byte")

    def __init__(
        self, name: str, cost: CostFn, effect: Optional[Effect] = None
    ) -> None:
        self.name = name
        self.cost = cost
        self.effect = effect
        self.fixed: Optional[float] = None
        self.per_byte = 0.0

    @classmethod
    def simple(
        cls, name: str, cost: FuncCost, effect: Optional[Effect] = None
    ) -> "Step":
        step = cls(name, lambda skb: cost.cost(skb.size), effect)
        step.fixed, step.per_byte = cost.fixed, cost.per_byte
        return step

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Step {self.name}>"


class StackPort(Protocol):
    """The slice of NetworkStack the transitions need (avoids an import cycle)."""

    def enqueue_backlog(
        self, target_cpu: int, skb: Skb, stage: "Stage", from_cpu: int
    ) -> None: ...

    def deliver_to_socket(self, skb: Skb, cpu_index: int) -> None: ...


class Transition:
    """Routes a packet out of a stage. Subclasses decide the target."""

    def route(self, skb: Skb, cpu_index: int, stack: StackPort) -> None:
        raise NotImplementedError


class EnqueueTransition(Transition):
    """Enqueue to a (possibly remote) per-CPU backlog and raise a softirq.

    ``selector(skb, cpu_index) -> target cpu`` encapsulates the steering
    policy: RPS steering, Falcon's ``get_falcon_cpu``, or the vanilla
    behaviour of staying on the current core.
    """

    def __init__(
        self,
        next_stage: "Stage",
        selector: Callable[[Skb, int], int],
        name: str = "netif_rx",
    ) -> None:
        self.next_stage = next_stage
        self.selector = selector
        self.name = name

    def route(self, skb: Skb, cpu_index: int, stack: StackPort) -> None:
        target = self.selector(skb, cpu_index)
        stack.enqueue_backlog(target, skb, self.next_stage, from_cpu=cpu_index)


class SocketDeliver(Transition):
    """Terminal transition: hand the packet to its destination socket."""

    def route(self, skb: Skb, cpu_index: int, stack: StackPort) -> None:
        stack.deliver_to_socket(skb, cpu_index)


class FlowCachePort(Protocol):
    """The slice of :class:`repro.kernel.flowcache.FlowCache` a datapath
    decision needs (avoids an import cycle with the step builders)."""

    def access_rx(self, skb: Skb) -> bool: ...


class FastPathTransition(Transition):
    """Datapath selection at the driver exit: consult the flow cache.

    A hit routes via ``hit`` (the single-step fast-path stage feeding the
    container tail directly); a miss routes via ``miss`` (the unchanged
    slow device chain). The cache stamps ``skb.fastpath`` with the
    verdict so downstream exit hooks can settle the ordering-gate ledger.
    """

    def __init__(
        self,
        cache: FlowCachePort,
        hit: Transition,
        miss: Transition,
        name: str = "flowcache",
    ) -> None:
        self.cache = cache
        self.hit = hit
        self.miss = miss
        self.name = name

    def route(self, skb: Skb, cpu_index: int, stack: StackPort) -> None:
        if self.cache.access_rx(skb):
            self.hit.route(skb, cpu_index, stack)
        else:
            self.miss.route(skb, cpu_index, stack)


class Stage:
    """A softirq-granularity processing stage at one network device."""

    def __init__(
        self,
        name: str,
        ifindex: int,
        steps: List[Step],
        exit: Transition,
        flush: Optional[Callable[[int], List[Skb]]] = None,
    ) -> None:
        self.name = name
        #: The device index Falcon mixes into its hash (``dev->ifindex``).
        self.ifindex = ifindex
        self.steps = steps
        #: Step costs resolved once: run_item reads only these tuples.
        self._plan = [(s.name, s.cost, s.fixed, s.per_byte, s.effect) for s in steps]
        self.exit = exit
        #: Optional end-of-batch hook (GRO flush) returning held packets.
        self.flush = flush

    def run_item(
        self, skb: Skb, cpu_index: int, locality_multiplier: float
    ) -> Tuple[List[Charge], Optional[Skb]]:
        """Execute the stage's steps for one packet.

        Returns the per-function charges and the packet that should exit
        the stage (None when an effect consumed it, e.g. a GRO merge in
        progress). Charges are scaled by the locality multiplier, the cost
        of touching packet data that was last written by another core.
        """
        skb.dev_ifindex = self.ifindex
        charges: List[Charge] = []
        current: Optional[Skb] = skb
        for name, cost_fn, fixed, per_byte, effect in self._plan:
            if fixed is not None:
                # FuncCost.cost(size), same float operations, no call.
                cost = (fixed + per_byte * current.size) * locality_multiplier
            else:
                cost = cost_fn(current) * locality_multiplier
            if cost > 0.0:
                charges.append((name, cost))
            if effect is not None:
                current = effect(current, cpu_index)
                if current is None:
                    break
        return charges, current

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name} ifindex={self.ifindex}>"

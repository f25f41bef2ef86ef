"""Interrupt counters — the simulator's ``/proc/interrupts``.

Tracks the interrupt classes the paper's Figure 4 compares:

* ``hardirq``   — NIC hardware interrupts,
* ``NET_RX``    — network-receive softirq raises,
* ``RES``       — rescheduling IPIs (raised when a softirq is queued on a
  *remote* CPU and that CPU must be poked),
* ``CAL``       — function-call IPIs (not used by the rx path but kept for
  completeness),
* ``TIMER``     — local timer interrupts.

Counts are kept both globally and per CPU.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.stats import Counter

HARDIRQ = "hardirq"
NET_RX = "NET_RX"
NET_TX = "NET_TX"
RES = "RES"
CAL = "CAL"
TIMER = "TIMER"


class InterruptCounters:
    """Per-CPU and global interrupt counters."""

    def __init__(self) -> None:
        self._global = Counter()
        self._per_cpu: Dict[int, Counter] = {}
        #: Optional :class:`repro.validate.InvariantMonitor` hook.
        self.monitor = None

    def record(self, kind: str, cpu: int, amount: int = 1) -> None:
        if self.monitor is not None:
            self.monitor.on_counter_record(kind, cpu, amount)
        self._global.add(kind, amount)
        per_cpu = self._per_cpu.get(cpu)
        if per_cpu is None:
            per_cpu = Counter()
            self._per_cpu[cpu] = per_cpu
        per_cpu.add(kind, amount)

    def total(self, kind: str) -> int:
        return self._global.get(kind)

    def on_cpu(self, kind: str, cpu: int) -> int:
        per_cpu = self._per_cpu.get(cpu)
        return per_cpu.get(kind) if per_cpu else 0

    def snapshot(self) -> Dict[str, int]:
        return self._global.snapshot()

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        return self._global.diff(earlier)

"""Per-CPU, per-function busy-time accounting.

This is the simulator's equivalent of ``perf`` + flamegraphs + ``mpstat``:
every work item executed on a CPU is attributed to a *label* (the kernel
function name, e.g. ``napi_gro_receive``) and an execution *context*
(hardirq / softirq / user). The experiment harness snapshots the
accounting at window boundaries and reports utilization exactly the way
Figures 5, 6, 9a, 11 and 19 of the paper do.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

#: Execution contexts, ordered by dispatch priority (lower = higher prio).
HARDIRQ = 0
SOFTIRQ = 1
USER = 2


class CpuAccounting:
    """Accumulates busy microseconds keyed by (cpu, context, label).

    A charge updates one dict entry. The per-CPU, per-context and
    per-label views are summed from that dict when asked; only window
    reports and tests ask, so the hot path never pays for them.
    """

    def __init__(self) -> None:
        self._busy: Dict[Tuple[int, int, str], float] = {}

    def charge(self, cpu: int, context: int, label: str, duration: float) -> None:
        """Attribute ``duration`` µs of busy time."""
        key = (cpu, context, label)
        self._busy[key] = self._busy.get(key, 0.0) + duration

    def charge_batch(
        self, cpu: int, context: int, charges: Iterable[Tuple[str, float]]
    ) -> float:
        """:meth:`charge` each ``(label, µs)`` pair in order; return the
        running sum ``0.0 + d1 + d2 + ...`` (one call per softirq batch)."""
        busy = self._busy
        total = 0.0
        for label, duration in charges:
            key = (cpu, context, label)
            busy[key] = busy.get(key, 0.0) + duration
            total += duration
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _sum(
        self, cpu: int, context: Optional[int] = None, label: Optional[str] = None
    ) -> float:
        total = 0.0
        for (key_cpu, key_context, key_label), value in self._busy.items():
            if (
                key_cpu == cpu
                and (context is None or key_context == context)
                and (label is None or key_label == label)
            ):
                total += value
        return total

    def busy_us(self, cpu: int) -> float:
        return self._sum(cpu)

    def busy_us_label(self, cpu: int, label: str) -> float:
        return self._sum(cpu, label=label)

    def busy_us_context(self, cpu: int, context: int) -> float:
        return self._sum(cpu, context=context)

    def total_by_label(self) -> Dict[str, float]:
        """Busy µs per label summed over all CPUs (flamegraph view)."""
        totals: Dict[str, float] = {}
        for (_cpu, _context, label), value in self._busy.items():
            totals[label] = totals.get(label, 0.0) + value
        return totals

    def cpus(self) -> Iterable[int]:
        return sorted({cpu for cpu, _context, _label in self._busy})

    def snapshot(self) -> "CpuAccounting":
        """Deep copy for window-boundary bookkeeping."""
        copy = CpuAccounting()
        copy._busy = dict(self._busy)
        return copy


class CpuWindow:
    """Utilization over an explicit window, computed from two snapshots.

    >>> acct = CpuAccounting()
    >>> acct.charge(0, SOFTIRQ, "ip_rcv", 500.0)
    >>> window = CpuWindow(acct, start_time=0.0)
    >>> acct.charge(0, SOFTIRQ, "ip_rcv", 250.0)
    >>> window.close(1000.0)
    >>> window.utilization(0)
    0.25
    """

    def __init__(self, acct: CpuAccounting, start_time: float) -> None:
        self._acct = acct
        self._start = acct.snapshot()
        self.start_time = start_time
        self.end_time: float = start_time

    def close(self, end_time: float) -> None:
        self._end = self._acct.snapshot()
        self.end_time = end_time

    @property
    def elapsed_us(self) -> float:
        return max(self.end_time - self.start_time, 0.0)

    def busy_us(self, cpu: int) -> float:
        return self._end.busy_us(cpu) - self._start.busy_us(cpu)

    def utilization(self, cpu: int) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.busy_us(cpu) / self.elapsed_us

    def utilization_context(self, cpu: int, context: int) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        delta = self._end.busy_us_context(cpu, context) - self._start.busy_us_context(
            cpu, context
        )
        return delta / self.elapsed_us

    def utilization_label(self, cpu: int, label: str) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        delta = self._end.busy_us_label(cpu, label) - self._start.busy_us_label(
            cpu, label
        )
        return delta / self.elapsed_us

    def label_shares(self) -> Dict[str, float]:
        """Fraction of total busy time per label (flamegraph shares)."""
        end_totals = self._end.total_by_label()
        start_totals = self._start.total_by_label()
        deltas = {
            label: end_totals.get(label, 0.0) - start_totals.get(label, 0.0)
            for label in end_totals
        }
        total = sum(value for value in deltas.values() if value > 0)
        if total <= 0:
            return {}
        return {
            label: value / total
            for label, value in sorted(deltas.items(), key=lambda kv: -kv[1])
            if value > 0
        }

"""The simulation engine's event queue: one binary heap.

:class:`HeapScheduler` orders events strictly by ``(time, seq)`` — ties
in time break by insertion order, never by object identity — so a run's
trace is a pure function of its schedule/cancel sequence (the golden
suite pins this down). The heap holds ``(time, seq, event)`` tuples, so
``heapq`` compares keys in C; ``seq`` is unique per simulator, so a
comparison never reaches the event itself.

* **Lazy cancellation with compaction.** ``cancel`` stays O(1) (it only
  flags the event), but the queue counts dead entries and rebuilds
  itself once they outnumber live ones past :data:`COMPACT_MIN_EVENTS`
  — so schedule-and-cancel workloads (retransmit timers, watchdogs) do
  not grow the queue without bound.
* **Lazy-pop peek.** ``peek`` discards cancelled entries from the head
  as a side effect and returns the next *live* event in O(live-gap)
  time.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Iterable, List, Optional, Tuple

from repro.sim.events import Event

#: Compaction never triggers below this queue size: tiny queues are
#: cheap to carry and rebuilding them would dominate.
COMPACT_MIN_EVENTS = 256

#: Compact when live entries make up less than this fraction of the
#: queue. At 0.5 the rebuild cost amortizes to O(1) per cancellation.
COMPACT_LIVE_FRACTION = 0.5


def _san_discard(san: Optional[Any], event: Event, site: str) -> None:
    """Tell the ownership ledger a cancelled entry was lazily discarded.

    The discard paths are release points in the event lifecycle — the
    queue drops its (last) reference here. ``san`` is None unless the
    simulator that owns this queue runs under REPRO_SANITIZE=1.
    """
    if san is not None:
        san.release("event", id(event), site)


class HeapScheduler:
    """Binary-heap event queue.

    ``event.cancelled`` entries are absent from ``pop``/``peek`` but
    still count in ``len()`` until they are discarded.
    """

    __slots__ = ("_heap", "_cancelled", "_san")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._cancelled = 0
        self._san: Optional[Any] = None

    # -- insertion -----------------------------------------------------
    def push(self, event: Event) -> None:
        event.queued = True
        heappush(self._heap, (event.time, event.seq, event))

    def push_many(self, events: Iterable[Event]) -> None:
        """Push each event in iteration order (NAPI poll-storm batches)."""
        for event in events:
            self.push(event)

    # -- removal -------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None when drained."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            event.queued = False
            if event.cancelled:
                self._cancelled -= 1
                _san_discard(self._san, event, "heap.discard")
                continue
            return event
        return None

    def peek(self) -> Optional[Event]:
        """Return the next live event without removing it."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event.cancelled:
                heappop(heap)
                event.queued = False
                self._cancelled -= 1
                _san_discard(self._san, event, "heap.discard")
                continue
            return event
        return None

    # -- cancellation --------------------------------------------------
    def note_cancel(self) -> None:
        """Record that a queued event was cancelled (may compact)."""
        self._cancelled += 1
        size = len(self._heap)
        if size >= COMPACT_MIN_EVENTS and (
            size - self._cancelled < size * COMPACT_LIVE_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        for _time, _seq, event in self._heap:
            if event.cancelled:
                event.queued = False
                _san_discard(self._san, event, "heap.compact")
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap)

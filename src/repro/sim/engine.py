"""Deterministic discrete-event simulation engine.

The engine is an event loop over one binary heap: events are
``(time, sequence)``-ordered callbacks held by a
:class:`~repro.sim.scheduler.HeapScheduler`. Determinism matters — two
runs with the same seed must produce identical results, so ties in event
time are broken by insertion order, never by object identity.

Design notes
------------
* Events are lightweight ``__slots__`` objects so that per-packet work
  (which can mean hundreds of thousands of events per run) stays cheap.
  :meth:`Simulator.run` makes one queue pop per event; an event past
  ``until`` is pushed back under its own ``(time, seq)`` key.
* Cancellation is lazy: a cancelled event stays queued and is skipped
  when popped. This keeps :meth:`Simulator.cancel` O(1); the queue
  compacts itself when dead entries dominate, so schedule-and-cancel
  workloads do not grow it without bound.
* Fire-and-forget callers that never cancel use :meth:`Simulator.post`
  / :meth:`Simulator.post_at` / :meth:`Simulator.post_batch`: they queue
  the same events as ``schedule`` but return no handle.
* The simulator never advances time backwards; scheduling with a negative
  delay raises :class:`~repro.sim.errors.SimulationError`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Optional, Tuple

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.scheduler import HeapScheduler

__all__ = ["Event", "Simulator"]

class Simulator:
    """Event loop with a microsecond clock.

    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(5.0, hits.append, "a")
    >>> _ = sim.schedule(1.0, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._scheduler = HeapScheduler()
        self._seq: int = 0
        self.events_processed: int = 0
        #: Ownership ledger hook (REPRO_SANITIZE=1). None in normal runs:
        #: every instrumented site pays one ``is None`` check and nothing
        #: else, and the ledger itself never schedules or reads the
        #: clock, so sanitized traces stay byte-identical.
        self._san: Optional[Any] = None
        if os.environ.get("REPRO_SANITIZE"):
            from repro.validate.sanitize import current_ledger

            self._san = current_ledger()
            self._scheduler._san = self._san
        #: Optional :class:`repro.validate.InvariantMonitor` hook. When
        #: None (the default) the event loop pays one attribute check per
        #: event and nothing else.
        self.monitor: Optional[Any] = None

    @property
    def scheduler(self) -> HeapScheduler:
        """The event queue backing this simulator."""
        return self._scheduler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event = self._event(time, fn, args)
        self._scheduler.push(event)
        return event

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._scheduler.push(self._event(self.now + delay, fn, args))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        self._scheduler.push(self._event(time, fn, args))

    def post_batch(
        self,
        delay: float,
        fn: Callable[..., Any],
        args_list: Iterable[Tuple[Any, ...]],
    ) -> int:
        """Fire-and-forget a burst of ``fn(*args)`` calls at one instant.

        All events share the timestamp ``now + delay`` and run in
        ``args_list`` order (sequence numbers are assigned in iteration
        order). Built for NAPI poll storms, where a single poll round
        fans tens of per-packet continuations into the queue. Returns
        the number of events queued.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        events = [self._event(time, fn, args) for args in args_list]
        self._scheduler.push_many(events)
        return len(events)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already ran)."""
        if event.queued and not event.cancelled:
            event.cancelled = True
            self._scheduler.note_cancel()

    def _event(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]) -> Event:
        """Mint the next event in sequence order (every scheduling path)."""
        event = Event(time, self._seq, fn, args)
        self._seq += 1
        if self._san is not None:
            self._san.acquire("event", id(event), "engine.schedule", event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        Args:
            until: stop once the clock would pass this timestamp. Events at
                exactly ``until`` are still processed; the clock is left at
                ``until`` if the queue ran dry earlier.
        """
        processed = 0
        scheduler = self._scheduler
        while True:
            event = scheduler.pop()
            if event is None:
                break
            if until is not None and event.time > until:
                # Not due yet: requeue it under its own (time, seq) key.
                scheduler.push(event)
                break
            if self.monitor is not None:
                self.monitor.on_event(self.now, event.time)
            self.now = event.time
            try:
                event.fn(*event.args)
            finally:
                # A raising callback still counts as fired: the sanitizer
                # sees exactly one release per fire on every exit.
                processed += 1
                if self._san is not None:
                    self._san.release("event", id(event), "engine.fired")
        self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Events still queued (cancelled ones count until compacted)."""
        return len(self._scheduler)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None when idle."""
        event = self._scheduler.peek()
        return event.time if event is not None else None

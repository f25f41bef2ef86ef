"""Host-speed sampling, so timings from a shared host stay comparable.

On a shared virtual machine the speed of the benchmark's CPU swings
between two levels about a factor of two apart, in phases that last a
few seconds. A raw host-time median then depends on which phases a run
happened to meet. :class:`HostSpeed` times a short fixed calibration
loop (:func:`calibration_loop`) every ``SAMPLE_INTERVAL_S`` from a
``SIGALRM`` handler while a scenario runs, and scales each measured
phase of the scenario by the mean reference-to-measured speed ratio of
the samples taken during it. Time spent in the handler is excluded from
the measured phases. The same handler enforces the scenario's host-time
limit.

The handler runs between bytecodes of the main thread and touches no
simulator state, so sampling changes no simulated output.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Any, Dict, List, Tuple

#: Seconds between samples, and iterations of one sample's loop.
SAMPLE_INTERVAL_S = 0.1
SAMPLE_LOOPS = 4000
#: Seconds one sample's loop takes at the reference speed (the fast
#: phase of a 2 GHz Xeon virtual machine under Python 3.11).
SAMPLE_REF_S = 0.004


class ScenarioTimeout(Exception):
    """A scenario ran past its host-time limit."""


class _Node:
    __slots__ = ("time", "count")

    def __init__(self, time: float, count: int) -> None:
        self.time = time
        self.count = count

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


def calibration_loop(loops: int = SAMPLE_LOOPS) -> float:
    """CPU seconds of a fixed interpreter-bound loop shaped like the
    simulator's hot path: tuple heap, dict accumulation, slotted objects
    and method calls. It runs no code of the program under test. CPU
    time, so that time the loop waits for a core held by a shard worker
    does not read as a slow host."""
    heap: List[Any] = []
    totals: Dict[Any, float] = {}
    node = _Node(0.0, 0)
    start = time.thread_time()
    for i in range(loops):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i, node))
        key = (i & 7, "label")
        totals[key] = totals.get(key, 0.0) + 1.25
        node.bump(1)
        if len(heap) > 32:
            heapq.heappop(heap)
    return time.thread_time() - start


class HostSpeed:
    """Samples host speed during one scenario and enforces its deadline.

    ``now()`` is a clock that stops while a sample runs. With
    ``sampling`` off (traced scenarios, whose spans the handler would
    perturb) only the samples just before and after the scenario are
    taken.
    """

    def __init__(self, timeout_s: float, sampling: bool = True) -> None:
        self.timeout_s = timeout_s
        self.sampling = sampling
        #: (``now()`` at the sample, reference / measured speed).
        self.samples: List[Tuple[float, float]] = []
        self._paused = 0.0
        self._deadline = 0.0
        self._busy = False
        self._previous: Any = None

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def sample(self) -> None:
        at = self.now()
        start = time.perf_counter()
        seconds = calibration_loop()
        self.samples.append((at, SAMPLE_REF_S / seconds))
        self._paused += time.perf_counter() - start

    def _tick(self, signum: int, frame: Any) -> None:
        if time.perf_counter() > self._deadline:
            raise ScenarioTimeout(
                f"scenario exceeded its host-time limit of {self.timeout_s:.0f} s"
            )
        if self.sampling and not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def __enter__(self) -> "HostSpeed":
        self.sample()
        self._deadline = time.perf_counter() + self.timeout_s
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if exc_info[0] is None:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Mean reference/measured speed over ``[start, end]`` (``now()``
        times): the samples inside, or else the one nearest to it."""
        inside = [ratio for at, ratio in self.samples if start <= at <= end]
        if inside:
            return sum(inside) / len(inside)
        if not self.samples:
            return 1.0
        middle = (start + end) / 2
        return min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]

"""Property tests: the event engine honours its ordering contract.

Every program — hypothesis-generated op lists and seeded self-sustaining
churn (the engine microbenchmark's workload shape, with far-future
delays and heavy lazy cancellation driving the queue through
compaction) — runs on
one simulator that numbers each event in scheduling order. The fired
trace must then satisfy the engine's spec:

* events fire in non-decreasing time, each at its due time;
* ties in time fire in scheduling order;
* every live event fires exactly once, and no cancelled event fires;
* ``run(until=t)`` followed by ``run()`` gives the trace of one ``run()``.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.scheduler as scheduler_module
from repro.sim.engine import Simulator

_DELAY = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)

_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAY),
    st.tuples(st.just("post"), _DELAY),
    st.tuples(st.just("post_at"), _DELAY),
    # spawn: an event that, when fired, posts a child — exercises pushes
    # after the clock has advanced.
    st.tuples(st.just("spawn"), _DELAY, st.floats(0.0, 50.0, allow_nan=False)),
    st.tuples(st.just("batch"), _DELAY, st.integers(1, 8)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
)


class _Probe:
    """One simulator whose events carry their scheduling index."""

    def __init__(self):
        self.sim = Simulator()
        #: ``(fire time, scheduling index)`` per fired event.
        self.trace = []
        #: scheduling index -> due time.
        self.due = {}
        self.cancelled = set()
        self.handles = []

    def _number(self, time):
        index = len(self.due)
        self.due[index] = time
        return index

    def fire(self, index):
        self.trace.append((self.sim.now, index))

    def schedule(self, delay, fn=None, *args):
        index = self._number(self.sim.now + delay)
        handle = self.sim.schedule(delay, fn or self.fire, index, *args)
        self.handles.append((index, handle))
        return handle

    def post(self, delay, fn=None, *args):
        index = self._number(self.sim.now + delay)
        self.sim.post(delay, fn or self.fire, index, *args)

    def post_at(self, time):
        self.sim.post_at(time, self.fire, self._number(time))

    def post_batch(self, delay, count):
        time = self.sim.now + delay
        self.sim.post_batch(
            delay, self.fire, [(self._number(time),) for _ in range(count)]
        )

    def cancel(self, position):
        index, handle = self.handles[position % len(self.handles)]
        if handle.queued:
            self.cancelled.add(index)
        self.sim.cancel(handle)

    def assert_spec(self):
        """The fired trace honours the engine's ordering contract."""
        # Non-decreasing time with ties in scheduling order, in one check.
        assert self.trace == sorted(self.trace)
        assert all(time == self.due[index] for time, index in self.trace)
        fired = Counter(index for _time, index in self.trace)
        assert all(count == 1 for count in fired.values())
        assert not self.cancelled & set(fired)
        assert set(fired) == set(self.due) - self.cancelled
        assert self.sim.events_processed == len(self.trace)


def _load_program(ops):
    """Apply one op sequence to a fresh probe, without running it."""
    probe = _Probe()

    def spawn(index, child_delay):
        probe.fire(index)
        probe.post(child_delay)

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            probe.schedule(op[1])
        elif kind == "post":
            probe.post(op[1])
        elif kind == "post_at":
            probe.post_at(op[1])
        elif kind == "spawn":
            probe.post(op[1], spawn, op[2])
        elif kind == "batch":
            probe.post_batch(op[1], op[2])
        elif kind == "cancel" and probe.handles:
            probe.cancel(op[1])
    return probe


@given(st.lists(_OP, max_size=120))
@settings(max_examples=60, deadline=None)
def test_programs_fire_in_spec_order(ops):
    probe = _load_program(ops)
    probe.sim.run()
    probe.assert_spec()


@given(st.lists(_OP, max_size=120), st.floats(0.0, 2000.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_run_until_then_run_equals_single_run(ops, bound):
    whole = _load_program(ops)
    whole.sim.run()
    split = _load_program(ops)
    split.sim.run(until=bound)
    assert all(time <= bound for time, _index in split.trace)
    assert split.sim.now == bound
    split.sim.run()
    split.assert_spec()
    assert split.trace == whole.trace
    # The clock never runs backwards past the bound it was taken to.
    assert split.sim.now == max(whole.sim.now, bound)
    assert split.sim.events_processed == whole.sim.events_processed


def _churn(seed, bound=None):
    """The engine-churn microbenchmark shape: self-sustaining ticks + cancellable timers.

    One tick in ten lands far in the future and 80% of the timers are
    cancelled: lazy-cancel discards and, with a lowered threshold,
    compaction rebuilds.
    """
    probe = _Probe()
    rng = random.Random(seed)
    remaining = 2_000

    def tick(index):
        nonlocal remaining
        probe.fire(index)
        if remaining <= 0:
            return
        remaining -= 1
        delay = rng.random() * 4.0 if rng.random() < 0.9 else 400.0 + rng.random() * 600.0
        probe.post(delay, tick)
        if rng.random() < 0.5:
            probe.schedule(rng.random() * 50.0)
            if rng.random() < 0.8:
                probe.cancel(-1)

    for _ in range(16):
        probe.post(rng.random(), tick)
    if bound is not None:
        probe.sim.run(until=bound)
    probe.sim.run()
    return probe


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_seeded_churn_fires_in_spec_order(seed, monkeypatch):
    monkeypatch.setattr(scheduler_module, "COMPACT_MIN_EVENTS", 16)
    whole = _churn(seed)
    whole.assert_spec()
    assert whole.cancelled, "churn cancelled nothing"
    split = _churn(seed, bound=whole.sim.now / 2)
    split.assert_spec()
    assert split.trace == whole.trace

"""The shard step rule: one call runs every event strictly before the bound.

Every coordinator step — the priming step, each window and the final
step to ``until`` — asks a shard for the events with time < bound, and
the coordinator checks every record each step produces against that
bound. These tests pin both halves down:

* a record below the final ``until`` is a causality violation, the same
  as inside any other window;
* ``ClusterWorld.advance`` runs exactly the events before the bound in
  one engine call, so it requeues at most one event (the first one past
  the bound), not one per distinct timestamp.
"""

import pytest

from repro.overlay.cluster import ClusterWorld, udp_ring_spec
from repro.sim.errors import ShardError
from repro.sim.scheduler import HeapScheduler
from repro.sim.shard.coordinator import InlineShardHandle, ShardCoordinator
from repro.sim.shard.records import CrossShardEvent


class LateRecordProgram:
    """Toy shard with no events of its own that answers every step past
    the priming one with a record one microsecond before the bound — a
    shard whose declared lookahead is wrong."""

    def next_time(self):
        return None

    def advance(self, bound):
        if bound <= 0.0:
            return []
        return [CrossShardEvent(bound - 1.0, 0, 0, "ping", 0, ())]

    def inject(self, records):
        return None

    def hosts(self):
        return (0,)

    def finalize(self):
        return {}


def test_record_below_final_until_is_a_causality_violation():
    coordinator = ShardCoordinator(
        [InlineShardHandle(0, LateRecordProgram())], lookahead_us=5.0
    )
    with pytest.raises(ShardError, match="causality violation"):
        coordinator.run(until=100.0)
    coordinator.close()


def test_one_advance_runs_exactly_the_events_before_the_bound(monkeypatch):
    spec = udp_ring_spec(num_hosts=2, warmup_us=100.0, duration_us=400.0)
    world = ClusterWorld(spec, (0, 1))
    coordinator = ShardCoordinator(
        [InlineShardHandle(0, world)], lookahead_us=spec.propagation_us
    )
    # Reach steady traffic; the final step leaves the stacks busy with
    # injected frames past `until`.
    coordinator.run(until=200.0)
    sim = world.sim
    start = world.next_time()
    assert start is not None
    bound = start + 4 * spec.propagation_us

    fired = []

    def parent():
        fired.append("parent")
        sim.post(0.0, fired.append, "same-time child")
        sim.post_at(bound, fired.append, "child at bound")

    sim.post_at(start, parent)
    sim.post_at(bound, fired.append, "at bound")

    scheduler = sim.scheduler
    # Event objects by id; holding them keeps ids from being reused.
    seen = {}
    pushed_back = []
    popped_times = []
    push, push_many, pop = (
        HeapScheduler.push, HeapScheduler.push_many, HeapScheduler.pop
    )

    def counting_push(self, event):
        if self is scheduler:
            if id(event) in seen:
                pushed_back.append(event.time)
            seen[id(event)] = event
        push(self, event)

    def counting_push_many(self, events):
        events = list(events)
        if self is scheduler:
            seen.update((id(event), event) for event in events)
        push_many(self, events)

    def counting_pop(self):
        event = pop(self)
        if self is scheduler and event is not None:
            seen[id(event)] = event
            popped_times.append(event.time)
        return event

    monkeypatch.setattr(HeapScheduler, "push", counting_push)
    monkeypatch.setattr(HeapScheduler, "push_many", counting_push_many)
    monkeypatch.setattr(HeapScheduler, "pop", counting_pop)
    processed_before = sim.events_processed
    world.advance(bound)
    monkeypatch.undo()

    assert len(pushed_back) <= 1
    assert all(t >= bound for t in pushed_back)
    fired_times = popped_times[: len(popped_times) - len(pushed_back)]
    assert len(fired_times) == sim.events_processed - processed_before
    assert len(set(fired_times)) > 1, "window held one timestamp — vacuous"
    assert all(t < bound for t in fired_times)
    next_time = world.next_time()
    assert next_time is not None and next_time >= bound
    assert sim.now < bound
    assert fired == ["parent", "same-time child"]

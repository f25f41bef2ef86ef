"""Fault injection against the worker-process shard transport.

A worker dying mid-window, hanging past the step timeout, or replying a
corrupt record must surface as a clear :class:`ShardError` naming the
shard — never as a hang or a silent partial result. Each test is
wall-clock bounded: the transport's every wait goes through
``conn.poll(timeout)``.
"""

import pytest

from repro.experiments.run_all import wall_seconds
from repro.overlay.cluster import run_cluster, udp_ring_spec
from repro.sim.errors import ShardError
from repro.sim.shard.records import CrossShardEvent
from repro.sim.shard.transport import ProcessShardHandle, resolve_builder

#: Generous real-time ceiling for every fault to resolve (the hang test
#: uses a much smaller step timeout internally).
WALL_BUDGET_S = 60.0


def _spec():
    return udp_ring_spec(
        num_hosts=4,
        message_size=512,
        rate_pps=40_000.0,
        seed=0,
        warmup_us=500.0,
        duration_us=1500.0,
    )


def _assert_bounded(started):
    assert wall_seconds() - started < WALL_BUDGET_S


def test_worker_dying_mid_window_raises_shard_error():
    started = wall_seconds()
    with pytest.raises(ShardError, match="shard 1.*(died|gone)"):
        run_cluster(
            _spec(),
            shards=2,
            transport="process",
            faults={1: ("die", 3)},
        )
    _assert_bounded(started)


def test_malformed_record_raises_shard_error():
    started = wall_seconds()
    with pytest.raises(ShardError, match="shard 0"):
        run_cluster(
            _spec(),
            shards=2,
            transport="process",
            faults={0: ("malformed", 2)},
        )
    _assert_bounded(started)


def test_hanging_worker_times_out_with_shard_error():
    started = wall_seconds()
    with pytest.raises(ShardError, match="did not answer.*within"):
        run_cluster(
            _spec(),
            shards=2,
            transport="process",
            timeout_s=2.0,
            faults={1: ("hang", 2)},
        )
    _assert_bounded(started)


def test_fault_needs_process_transport():
    from repro.sim.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="process transport"):
        run_cluster(_spec(), shards=2, transport="inline", faults={0: ("die", 1)})


def test_healthy_shards_are_torn_down_after_a_fault():
    """No orphaned workers: the coordinator's close() runs even when a
    sibling shard fails (the run_cluster try/finally)."""
    import multiprocessing

    with pytest.raises(ShardError):
        run_cluster(
            _spec(), shards=2, transport="process", faults={0: ("die", 2)}
        )
    leftovers = [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    ]
    for proc in leftovers:  # pragma: no cover - cleanup on failure
        proc.terminate()
    assert not leftovers


# ----------------------------------------------------------------------
# Transport-level failures outside the fault hooks
# ----------------------------------------------------------------------
def test_bad_builder_reference_is_rejected():
    with pytest.raises(ShardError, match="invalid shard builder"):
        resolve_builder("no-colon-here")
    with pytest.raises(ShardError, match="does not name a callable"):
        resolve_builder("repro.overlay.cluster:THIS_DOES_NOT_EXIST")


def test_worker_build_failure_surfaces_at_startup():
    started = wall_seconds()
    with pytest.raises(ShardError, match="failed to (start|build)"):
        ProcessShardHandle(
            index=0,
            hosts=(0,),
            builder_ref="repro.overlay.cluster:ClusterWorld",
            builder_args=(("definitely", "not", "a", "spec"), (0,)),
            timeout_s=20.0,
        )
    _assert_bounded(started)


def test_wire_record_validation_rejects_corruption():
    good = CrossShardEvent(10.0, 1, 2, "skb", 3, (4, 5.0, "x"))
    assert CrossShardEvent.from_wire(good.to_wire()).sort_key == good.sort_key
    cases = [
        ("not", "a", "record"),               # wrong arity
        ("10.0", 1, 2, "skb", 3, ()),         # non-numeric time
        (10.0, 1.5, 2, "skb", 3, ()),         # non-int src
        (10.0, 1, 2, "", 3, ()),              # empty kind
        (10.0, 1, 2, "skb", 3, (object(),)),  # non-primitive payload
        (10.0, True, 2, "skb", 3, ()),        # bool masquerading as int
    ]
    for wire in cases:
        with pytest.raises(ShardError):
            CrossShardEvent.from_wire(wire)

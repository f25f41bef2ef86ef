"""Event-engine microbenchmarks: raw event-queue throughput.

Unlike the figure benches (simulation campaigns run once), these are
true microbenchmarks of the event core: schedule/cancel churn and the
``post_batch`` NAPI-storm pattern, while pytest-benchmark records the
throughput.
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Fixed root seed, so every run replays the same event program.
SEED = 0


def _sink() -> None:
    """Do-nothing event payload."""


def engine_churn(seed, quick):
    """Self-sustaining schedule/cancel churn against the event queue.

    90% of events land in the near future (the packet-run distribution),
    10% far out; a third of ticks also schedule a cancellable timer, half
    of which are cancelled — the lazy-cancellation-plus-compaction path.
    """
    sim = Simulator()
    rng = RngRegistry(seed).stream("bench/churn")
    remaining = 20_000 if quick else 200_000
    cancels = 0

    def tick():
        nonlocal remaining, cancels
        if remaining <= 0:
            return
        remaining -= 1
        if rng.random() < 0.9:
            delay = rng.random() * 4.0
        else:
            delay = 400.0 + rng.random() * 600.0
        sim.post(delay, tick)
        if rng.random() < 0.3:
            handle = sim.schedule(rng.random() * 50.0, _sink)
            if rng.random() < 0.5:
                sim.cancel(handle)
                cancels += 1

    for _ in range(64):
        sim.post(rng.random(), tick)
    sim.run()
    return {"cancelled": cancels, "sim_events": sim.events_processed}


def engine_post_batch_storm(quick):
    """NAPI poll-storm pattern: bursts of same-instant continuations.

    Each round bulk-inserts one batch of per-packet continuations via
    :meth:`~repro.sim.engine.Simulator.post_batch` — the shape a NAPI
    poll round produces — then schedules the next round.
    """
    sim = Simulator()
    rounds = 500 if quick else 5_000
    batch = 64
    done = 0

    def packet(_index):
        nonlocal done
        done += 1

    def poll_round(round_index):
        if round_index >= rounds:
            return
        sim.post_batch(1.0, packet, [(i,) for i in range(batch)])
        sim.post(1.0, poll_round, round_index + 1)

    sim.post(0.0, poll_round, 0)
    sim.run()
    return {"rounds": rounds, "batch": batch, "packets": done}


def test_engine_churn(benchmark, quick):
    headline = benchmark.pedantic(
        engine_churn, args=(SEED, quick), rounds=1, iterations=1
    )
    assert headline["sim_events"] > 0
    assert headline["cancelled"] > 0


def test_engine_post_batch_storm(benchmark, quick):
    headline = benchmark.pedantic(
        engine_post_batch_storm, args=(quick,), rounds=1, iterations=1
    )
    assert headline["packets"] == headline["rounds"] * headline["batch"]

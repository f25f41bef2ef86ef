"""Event-engine microbenchmarks: raw event-queue throughput.

Unlike the figure benches (simulation campaigns run once), these are
true microbenchmarks of the event core: schedule/cancel churn and the
``post_batch`` NAPI-storm pattern, while pytest-benchmark records the
throughput.
"""

from repro.bench.suite import (
    _engine_churn,
    _engine_post_batch_storm,
    derive_bench_seed,
)

#: Same seed derivation `repro bench` uses, so numbers line up.
SEED = derive_bench_seed(0, "engine-churn-heap")


def test_engine_churn(benchmark, quick):
    headline = benchmark.pedantic(
        _engine_churn,
        args=(SEED, True if quick else False),
        rounds=1,
        iterations=1,
    )
    assert headline["sim_events"] > 0
    assert headline["cancelled"] > 0


def test_engine_post_batch_storm(benchmark, quick):
    headline = benchmark.pedantic(
        _engine_post_batch_storm,
        args=(SEED, True if quick else False),
        rounds=1,
        iterations=1,
    )
    assert headline["packets"] == headline["rounds"] * headline["batch"]

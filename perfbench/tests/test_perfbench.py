"""Self-consistency checks of the benchmark, on a short simulated span.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench import scenarios, tracer
from perfbench.scenarios import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.1
SEED = 3


def _run(name: str, reference=None) -> bench.Run:
    workload = WORKLOADS[name]
    return bench.Run(workload, SEED, workload.params(SEED, scale=SCALE), reference)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    run = _run(request.param)
    metrics = bench.traced_run(run, seconds=0.0, spans_path=None)
    return request.param, run, metrics


def test_traced_run_repeats_untraced_outputs(traced):
    _, run, metrics = traced
    assert not run.failed, [o.failure for o in run.failed]
    digests = {json.dumps(o.digest, sort_keys=True) for o in run.outcomes}
    assert len(digests) == 1
    untraced = run.outcomes[0].digest
    assert metrics["sim.engine.events"] == untraced["events"]
    for name, value in scenarios.model_values(untraced).items():
        assert metrics[name] == value


def test_every_pop_serves_an_event(traced):
    _, _, metrics = traced
    assert metrics["sim.engine.events"] > 0
    assert metrics["sim.scheduler.pop"] >= metrics["sim.engine.events"]


def test_bypassed_layers_report_zero(traced):
    name, _, metrics = traced
    workload = WORKLOADS[name]
    first_metric = {
        "kernel.flowcache": "kernel.flowcache.lookups",
        "sim.shard": "sim.shard.windows",
        "core.falcon": "core.falcon.selects",
        "kernel.tx": "kernel.tx.sends",
    }
    for layer in workload.bypasses:
        if layer in first_metric:
            assert metrics[first_metric[layer]] == 0, layer
        assert metrics[f"{layer}.self_s"] == 0.0, layer
    if name != "cluster-churn":
        assert metrics["sim.shard.speedup"] == 0.0
    else:
        assert metrics["sim.shard.windows"] > 0
        assert metrics["kernel.flowcache.lookups"] > 0
        assert metrics["sim.shard.speedup"] > 0


def test_why_lines_name_the_bypassed_layers():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for entry in declared:
        bypassed = entry["why"].rsplit("the bypassed ", 1)[1].split(", ")
        assert tuple(bypassed) == WORKLOADS[entry["name"]].bypasses
        assert set(bypassed) < set(bench.SELF_TIME_LAYERS)


@pytest.mark.parametrize("change", ["missing target", "pop not wrapped"])
def test_unmeasured_layer_fails_the_traced_run(monkeypatch, change):
    if change == "missing target":
        wrapped = tracer.WRAPPED + (
            ("kernel.tx", "repro.kernel.tx", "TxStack", ("no_such_method",)),
        )
    else:
        wrapped = tuple(
            (layer, module, cls, tuple(m for m in methods if m != "pop"))
            for layer, module, cls, methods in tracer.WRAPPED
        )
    monkeypatch.setattr(tracer, "WRAPPED", wrapped)
    run = _run("udp-stress-falcon")
    bench.traced_run(run, seconds=0.0, spans_path=None)
    failures = [o.failure for o in run.failed]
    assert [o.kind for o in run.failed] == ["traced"], failures
    expected = "no_such_method" if change == "missing target" else "sim.scheduler.pop 0 <"
    assert expected in failures[0]


def test_self_times_sum_to_traced_sim_time(traced):
    _, _, metrics = traced
    total = sum(metrics[f"{layer}.self_s"] for layer in bench.SELF_TIME_LAYERS)
    assert total == pytest.approx(metrics["trace.sim_s"], rel=1e-9, abs=1e-9)


def test_trace_overhead_is_reported(traced):
    _, _, metrics = traced
    assert metrics["trace.untraced_sim_s"] > 0
    assert metrics["trace.overhead"] > 0


def test_metric_names_match_benchmark_json(traced):
    _, _, metrics = traced
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}


def test_timed_run_reports_end_to_end_metrics():
    run = _run("udp-stress-falcon")
    metrics = bench.timed_run(run, seconds=0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert len(run.outcomes) == bench.MIN_SCENARIOS and not run.failed
    assert all(value > 0 for value in metrics.values())


def test_output_differing_from_reference_is_a_failure():
    honest = _run("udp-stress-falcon")
    honest.execute("timed")
    wrong = dict(honest.outcomes[0].digest, msgs_delivered=-1)
    run = _run("udp-stress-falcon", reference=wrong)
    outcome = run.execute("timed")
    assert "msgs_delivered" in outcome.failure


def test_raising_scenario_is_a_failure():
    def explode(params, clock):
        raise RuntimeError("boom")

    workload = scenarios.Workload("explode", (), lambda seed: {}, explode)
    run = bench.Run(workload, 0, {}, None)
    assert run.execute("timed").failure == "RuntimeError: boom"


@pytest.mark.parametrize("fault", [("die", 3), ("hang", 3)])
def test_dead_or_hung_shard_worker_is_a_failure(monkeypatch, fault):
    monkeypatch.setattr(scenarios, "SHARD_STEP_TIMEOUT_S", 2.0)
    monkeypatch.setattr(
        scenarios, "run_cluster",
        functools.partial(scenarios.run_cluster, faults={0: fault}),
    )
    run = _run("cluster-churn")
    outcome = run.execute("timed")
    assert outcome.failure is not None and "ShardError" in outcome.failure


def test_reference_covers_low_seeds():
    reference = json.loads(bench.REFERENCE_PATH.read_text())["digests"]
    assert set(reference) == set(WORKLOADS)
    assert all(str(seed) in table for table in reference.values() for seed in range(10))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "udp-stress-falcon",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _child_pids():
    return [pid for task in Path("/proc/self/task").iterdir()
            for pid in (task / "children").read_text().split()]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_no_process_outlives_the_run():
    run = _run("cluster-churn")
    assert run.execute("timed").failure is None
    assert _child_pids(), "the process transport should have started processes"
    bench.stop_children()
    assert _child_pids() == []

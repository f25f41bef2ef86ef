"""Repository benchmark: three simulator workloads, host-time metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload udp-stress-falcon --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's scenario closed loop, one after
another, for ``--seconds`` host seconds and reports the end-to-end
metrics: ``setup_s``, ``sim_s`` and ``events_per_s`` (medians over the
scenarios, in host seconds scaled to a reference host speed; see
``hostspeed.py``) and ``peak_rss_mb``. ``--trace 1`` is the separate traced
pass: one untraced and one traced scenario (for ``cluster-churn`` also
the same spec on one inline shard, untraced and traced), then untraced
scenarios for the rest of ``--seconds``; it reports the per-layer
metrics. Every scenario's simulated outputs are compared with the
recorded reference digest for the workload and seed (``reference.json``)
and with the run's first scenario; a scenario that raises, times out or
differs counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report, with a
manifest, is written to ``.perfbench-out/`` and, in a traced run, so
are the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".perfbench-out"

#: Host-time limits per scenario; past them a scenario counts as failed.
UNTRACED_TIMEOUT_S = 60
TRACED_TIMEOUT_S = 100
#: Scenarios a timed run makes at least, however short ``--seconds``.
MIN_SCENARIOS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers with a self-time metric, in report order; ``other`` is the
#: scenario entry point's own code and callbacks of unlisted modules.
SELF_TIME_LAYERS = (
    "sim.engine", "sim.scheduler", "hw.cpu", "metrics.cpuacct",
    "kernel.stages", "kernel.softirq", "kernel.gro", "core.falcon",
    "kernel.flowcache", "kernel.sockets", "kernel.tx", "workloads.apps",
    "workloads.sender", "sim.shard", "other",
)


@dataclass
class Outcome:
    """One scenario: its timings, digest and verdict."""

    scenario: int
    kind: str
    #: Measured host seconds of the two phases, and the reference/measured
    #: host speed during each (see hostspeed.py).
    setup_host_s: float = 0.0
    sim_host_s: float = 0.0
    setup_scale: float = 1.0
    sim_scale: float = 1.0
    speed_samples: int = 0
    events: int = 0
    digest: Optional[Dict[str, Any]] = None
    root: Optional[int] = None
    failure: Optional[str] = None

    @property
    def setup_s(self) -> float:
        return self.setup_host_s * self.setup_scale

    @property
    def sim_s(self) -> float:
        return self.sim_host_s * self.sim_scale

    @property
    def events_per_s(self) -> float:
        return self.events / self.sim_s if self.sim_s > 0 else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "setup_host_s": self.setup_host_s,
            "sim_host_s": self.sim_host_s,
            "setup_scale": self.setup_scale,
            "sim_scale": self.sim_scale,
            "speed_samples": self.speed_samples,
            "setup_s": self.setup_s,
            "sim_s": self.sim_s,
            "events": self.events,
            "events_per_s": self.events_per_s,
            "failure": self.failure,
        }


@dataclass
class Run:
    """Everything one benchmark invocation measured."""

    workload: Any
    seed: int
    params: Dict[str, Any]
    reference: Optional[Dict[str, Any]]
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def failed(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.failure is not None]

    def execute(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        log: Any = None,
        timeout_s: float = UNTRACED_TIMEOUT_S,
    ) -> Outcome:
        """Run one scenario and judge its outputs. Traced scenarios take
        no speed samples while they run: the handler would land in spans."""
        from perfbench.hostspeed import HostSpeed
        from perfbench.scenarios import Clock

        outcome = Outcome(scenario=len(self.outcomes), kind=kind)
        self.outcomes.append(outcome)
        gc.collect()
        speed = HostSpeed(timeout_s, sampling=log is None)
        try:
            with speed:
                clock = Clock(log, outcome.scenario, now=speed.now)
                digest = self.workload.execute(params or self.params, clock)
        except Exception as exc:  # a failed scenario is reported, not fatal
            outcome.failure = f"{type(exc).__name__}: {exc}"
            return outcome
        outcome.setup_host_s, outcome.sim_host_s = clock.setup_s, clock.sim_s
        outcome.setup_scale = speed.scale(clock.t_start, clock.t_sim)
        outcome.sim_scale = speed.scale(clock.t_sim, clock.t_end)
        outcome.speed_samples = len(speed.samples)
        outcome.root = clock.root
        outcome.digest = _canonical(digest)
        outcome.events = outcome.digest["events"]
        outcome.failure = self._judge(outcome.digest)
        return outcome

    def _judge(self, digest: Dict[str, Any]) -> Optional[str]:
        from perfbench.scenarios import sanity_problems

        problems = sanity_problems(digest)
        if problems:
            return "; ".join(problems)
        if self.reference is not None:
            expected, source = self.reference, "recorded reference"
        else:
            first = next((o.digest for o in self.outcomes if o.digest), None)
            expected, source = first, "first scenario"
        if expected is not None and digest != expected:
            keys = sorted(k for k in expected.keys() | digest.keys()
                          if expected.get(k) != digest.get(k))
            return f"outputs differ from the {source} in {', '.join(keys)}"
        return None


def _canonical(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True))


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------
def timed_run(run: Run, seconds: float) -> Dict[str, float]:
    """Closed-loop scenarios for ``seconds``; end-to-end metrics."""
    start = time.perf_counter()
    while len(run.outcomes) < MIN_SCENARIOS or time.perf_counter() - start < seconds:
        run.execute("timed")
    good = [o for o in run.outcomes if o.failure is None]
    return {
        "setup_s": _median([o.setup_s for o in good]),
        "sim_s": _median([o.sim_s for o in good]),
        "events_per_s": _median([o.events_per_s for o in good]),
        "peak_rss_mb": _peak_rss_mb(run.params.get("transport") == "process"),
    }


def _peak_rss_mb(with_workers: bool) -> float:
    """This process's peak RSS, plus the largest shard worker's."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------
def traced_run(run: Run, seconds: float, spans_path: Optional[Path]) -> Dict[str, float]:
    """One traced scenario beside untraced ones; per-layer metrics."""
    from perfbench.scenarios import model_values
    from perfbench.tracer import SpanLog, Tracer, fold

    start = time.perf_counter()
    log = SpanLog()
    missing: List[str] = []
    run.execute("untraced")
    with Tracer(log) as tracer:
        traced = run.execute("traced", log=log, timeout_s=TRACED_TIMEOUT_S)
    missing += tracer.missing
    untraced_kind = "untraced"
    process_traced = None
    if "transport" in run.params:
        # Shard workers are separate interpreters, so the 2-process pass
        # shows only the coordinator side (begin_step/finish_step). The
        # world-side spans come from the same spec on one inline shard.
        inline_params = dict(run.params, shards=1, transport="inline")
        process_traced = traced
        run.execute("inline-untraced", inline_params)
        with Tracer(log) as tracer:
            traced = run.execute(
                "inline-traced", inline_params, log=log, timeout_s=TRACED_TIMEOUT_S
            )
        missing += tracer.missing
        untraced_kind = "inline-untraced"
    while time.perf_counter() - start < seconds:
        run.execute("untraced")
    if spans_path is not None:
        log.write(spans_path)
    if traced.root is None or traced.digest is None:
        return {}

    def untraced(kind: str, attr: str = "sim_s") -> float:
        return _median([getattr(o, attr) for o in run.outcomes
                        if o.kind == kind and o.failure is None])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    shard: Dict[str, float] = {}
    if process_traced is not None and process_traced.root is not None:
        coordinator = fold(log, process_traced.root)
        step_s = sum(s for n, s in coordinator.total_s.items()
                     if n.endswith("ShardHandle.begin_step"))
        wait_s = sum(s for n, s in coordinator.total_s.items()
                     if n.endswith("ShardHandle.finish_step"))
        shard = {
            "sim.shard.step_s": step_s,
            "sim.shard.wait_s": wait_s,
            "sim.shard.wait_share": ratio(wait_s, coordinator.seconds),
            "sim.shard.speedup": ratio(untraced("inline-untraced"),
                                       untraced("untraced")),
        }
    folded = fold(log, traced.root)
    calls = folded.calls

    def count(*spans: str) -> int:
        return sum(n for name, n in calls.items() if name.partition(":")[2] in spans)

    digest = traced.digest
    events = digest["events"]
    pops = count("HeapScheduler.pop")
    feeds = count("GroEngine.feed")
    enqueues = count("Socket.enqueue")
    run_items = count("Stage.run_item")
    charges = count("CpuAccounting.charge")
    # A layer the wrappers no longer reach would read 0 and look like a
    # gain; the traced scenario fails instead.
    unmeasured = [f"not traced (missing): {name}" for name in sorted(set(missing))]
    if pops < events:
        unmeasured.append(f"sim.scheduler.pop {pops} < sim.engine.events {events}")
    if unmeasured:
        traced.failure = "; ".join(filter(None, [traced.failure, *unmeasured]))
    metrics: Dict[str, float] = {
        "sim.engine.events": events,
        "sim.scheduler.push": count("HeapScheduler.push", "HeapScheduler.push_many"),
        "sim.scheduler.pop": pops,
        "sim.scheduler.peek": count("HeapScheduler.peek"),
        "sim.scheduler.peeks_per_pop": ratio(count("HeapScheduler.peek"), pops),
        "sim.scheduler.depth_p50": _median(folded.pop_depths),
        "hw.cpu.submits": count("Cpu.submit", "Cpu.submit_multi"),
        "metrics.cpuacct.charges": charges,
        "metrics.cpuacct.charges_per_event": ratio(charges, events),
        "kernel.stages.run_items": run_items,
        "kernel.stages.items_per_msg": ratio(run_items, enqueues),
        "kernel.softirq.raises": count("SoftirqNet.raise_net_rx"),
        "kernel.softirq.backlog_enqueues": count("SoftirqNet.enqueue_backlog"),
        "kernel.gro.feeds": feeds,
        "kernel.gro.merge_ratio": ratio(folded.gro_merged, feeds),
        "core.falcon.selects": count("FalconSteering.select_cpu"),
        "kernel.flowcache.lookups": count("FlowCache.access_rx", "FlowCache.access_tx"),
        "kernel.sockets.enqueues": enqueues,
        "kernel.tx.sends": count("TxStack.send_message"),
        "sim.shard.windows": digest["windows"],
        "sim.shard.records": digest["records"],
        "sim.shard.records_per_window": ratio(digest["records"], digest["windows"]),
        "sim.shard.step_s": 0.0,
        "sim.shard.wait_s": 0.0,
        "sim.shard.wait_share": 0.0,
        "sim.shard.speedup": 0.0,
        "trace.sim_s": folded.seconds,
        "trace.untraced_sim_s": untraced(untraced_kind, "sim_host_s"),
        "trace.overhead": ratio(traced.sim_s, untraced(untraced_kind)),
    }
    metrics.update(shard)
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = folded.self_s.get(layer, 0.0)
    metrics.update(model_values(digest))
    return metrics


# ----------------------------------------------------------------------
# Manifest, report and entry point
# ----------------------------------------------------------------------
def _git_describe() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def manifest(run: Run, args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "params": run.params,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": "recorded" if run.reference is not None else "first scenario",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_describe": _git_describe(),
    }


def load_reference(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    if not REFERENCE_PATH.is_file():
        return None
    recorded = json.loads(REFERENCE_PATH.read_text())
    return recorded.get("digests", {}).get(workload, {}).get(str(seed))


def _print_report(run: Run, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    attempted, failed = len(run.outcomes), len(run.failed)
    print(f"workload {run.workload.name} seed {run.seed}: {attempted} scenarios, "
          f"{failed} failed, failed_frac {failed / attempted:.4f}")
    for outcome in run.failed:
        print(f"  scenario {outcome.scenario} ({outcome.kind}) FAILED: {outcome.failure}")
    timed = [o for o in run.outcomes if o.failure is None]
    for name, value in metrics.items():
        note = ""
        if name in ("setup_s", "sim_s", "events_per_s"):
            values = [getattr(o, name) for o in timed]
            q1, _, q3 = _quartiles(values)
            note = f"  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
        print(f"  {name:36s} {value:>16.6g} {units.get(name, '')}{note}")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_pop", "_per_event", "_per_msg",
                      "_per_window", ".overhead", ".speedup")):
        return "ratio"
    return "count"


def stop_children() -> None:
    """Stop and wait for every process the run started: shard workers
    a failed scenario left behind, and the ``multiprocessing`` resource
    tracker that spawning them launched, which would otherwise outlive
    this process."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    params = workload.params(args.seed)
    run = Run(workload, args.seed, params, load_reference(args.workload, args.seed))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = traced_run(run, args.seconds, OUT_DIR / f"spans-{tag}.json")
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = timed_run(run, args.seconds)
        units = dict(END_TO_END_UNITS)
    failed = len(run.failed)
    correct = failed == 0 and bool(metrics)
    report = {
        "manifest": manifest(run, args),
        "correct": correct,
        "attempted": len(run.outcomes),
        "failed": failed,
        "failed_frac": failed / len(run.outcomes),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "scenarios": [o.summary() for o in run.outcomes],
        "digest": next((o.digest for o in run.outcomes if o.digest), None),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    _print_report(run, metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

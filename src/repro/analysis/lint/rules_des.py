"""DES-discipline rules (DES2xx).

The simulated system (``repro.sim`` / ``kernel`` / ``hw`` / ``overlay``
/ ``core`` / ``workloads``) runs entirely under simulated time on
simulated cores. Real concurrency, real blocking calls and anonymous
service-time constants all undermine that: the first two make the
process nondeterministic or stall the event loop, the third scatters
calibration numbers outside the cost model where no experiment sweep or
kernel-version preset can see them.

The harness layers (``metrics``, ``experiments``, ``validate``,
``cli``) are explicitly out of scope — they are allowed to write result
files and time themselves.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set, Tuple

from repro.analysis.core import (
    SIMULATED_SCOPE,
    FileContext,
    Finding,
    Rule,
    last_segment,
    walk_numeric_literals,
)

#: Modules providing real (OS-level) concurrency or schedulers.
CONCURRENCY_MODULES: Set[str] = {
    "threading",
    "_thread",
    "asyncio",
    "multiprocessing",
    "concurrent",
    "sched",
    "selectors",
    "queue",
    "socketserver",
    "signal",
}

#: Blocking call targets by fully-qualified name.
BLOCKING_EXACT: Set[str] = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.fork",
    "os.forkpty",
    "os.wait",
    "os.waitpid",
}

#: Module prefixes any call into which blocks on the outside world.
BLOCKING_PREFIXES: Tuple[str, ...] = (
    "subprocess.",
    "socket.",
    "requests.",
    "urllib.",
    "http.",
)

#: Bare builtins that block on files or the terminal.
BLOCKING_BUILTINS: Set[str] = {"open", "input", "breakpoint"}

#: The module allowed to define service-time constants.
COST_MODULE = "repro.kernel.costs"


class RealConcurrencyRule(Rule):
    """DES201: OS concurrency primitives inside the simulated system."""

    id = "DES201"
    title = "no real concurrency in simulated code"
    rationale = (
        "Simulated concurrency is expressed as events on the DES engine; "
        "threads/async/processes introduce host-scheduler nondeterminism "
        "and bypass the per-core serialization the model depends on."
    )
    scope = SIMULATED_SCOPE
    # The shard engine's worker transport is the sanctioned boundary: it
    # spawns shard processes and speaks pipes, and nothing else in the
    # simulated scope may. Keeping the carve-out here (not as pragmas)
    # makes the boundary auditable in one place.
    exempt = ("repro.sim.shard.transport",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in CONCURRENCY_MODULES:
                        yield self.finding(
                            ctx, node,
                            f"import of real-concurrency module "
                            f"{alias.name!r} — model concurrency as DES "
                            "events (sim.engine), not OS primitives",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                root = (node.module or "").split(".")[0]
                if root in CONCURRENCY_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"import from real-concurrency module "
                        f"{node.module!r} — model concurrency as DES "
                        "events (sim.engine), not OS primitives",
                    )


class BlockingCallRule(Rule):
    """DES202: blocking calls inside event/stage handlers."""

    id = "DES202"
    title = "no blocking calls in simulated code"
    rationale = (
        "An event handler that sleeps or touches the filesystem/network "
        "stalls the whole event loop in real time and couples results to "
        "the host environment. All waiting is sim.schedule; all I/O "
        "belongs to the harness layers."
    )
    scope = SIMULATED_SCOPE
    # Same carve-out as DES201: the transport's pipe waits are real by
    # design (they are bounded by poll timeouts, not simulated time).
    exempt = ("repro.sim.shard.transport",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            kind, name = resolved
            if kind == "bare":
                if name in BLOCKING_BUILTINS:
                    yield self.finding(
                        ctx, node,
                        f"blocking builtin {name}() in simulated code — "
                        "I/O belongs in the harness (metrics/experiments)",
                    )
                continue
            if name in BLOCKING_EXACT or any(
                name.startswith(prefix) for prefix in BLOCKING_PREFIXES
            ):
                yield self.finding(
                    ctx, node,
                    f"blocking call {name}() in simulated code — use "
                    "sim.schedule for waiting; real I/O belongs in the "
                    "harness",
                )


class MagicServiceTimeRule(Rule):
    """DES203: anonymous service-time literals outside kernel/costs.py."""

    id = "DES203"
    title = "service times come from kernel.costs"
    rationale = (
        "Every modelled delay is a calibrated quantity. A literal in a "
        "schedule()/submit() call is invisible to the cost model, to the "
        "kernel-version presets and to sensitivity sweeps; name it in "
        "CostModel and reference it."
    )
    scope = SIMULATED_SCOPE

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        in_cost_module = ctx.module == COST_MODULE
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = last_segment(node.func)
            if name == "FuncCost" and not in_cost_module:
                yield self.finding(
                    ctx, node,
                    "FuncCost constructed outside kernel/costs.py — all "
                    "service-time definitions live in the cost model",
                )
                continue
            if in_cost_module:
                continue
            for arg in self._duration_args(name, node):
                for literal in walk_numeric_literals(arg):
                    yield self.finding(
                        ctx, literal,
                        f"magic service-time literal {literal.value!r} in "
                        f"{name}() — reference a named CostModel constant "
                        "instead",
                    )

    @staticmethod
    def _duration_args(name: Optional[str], node: ast.Call) -> Iterable[ast.expr]:
        """The argument expressions of ``node`` that carry a delay/duration.

        ``sim.schedule(delay, fn, *payload)`` / ``schedule_at(time, ...)``
        carry it first; ``Cpu.submit(context, label, duration, fn,
        *payload)`` third (falling back to first for pool-style
        ``submit(duration, done)``); ``Cpu.submit_multi(context, charges,
        fn, *payload)`` second. Payload/callback arguments are never
        scanned — integers are legitimate event arguments there.
        """
        if name in ("schedule", "schedule_at", "post", "post_at", "post_batch"):
            return node.args[:1]
        if name == "submit":
            return node.args[2:3] if len(node.args) >= 3 else node.args[:1]
        if name == "submit_multi":
            return node.args[1:2]
        return ()


DES_RULES = (
    RealConcurrencyRule(),
    BlockingCallRule(),
    MagicServiceTimeRule(),
)

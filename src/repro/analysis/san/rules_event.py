"""Event-lifecycle linearity rules (OWN601, OWN602, OWN603).

The engine's fire-and-forget path pools :class:`~repro.sim.events.Event`
objects: ``post``/``post_at``/``post_batch`` acquire from a freelist,
the event loop fires the callback, and ``_recycle`` returns the object.
Lazy cancellation adds a second release route — the schedulers discard
flagged entries during ``pop``/``peek``/compaction/refill. A pooled
object with two owners (or none) breaks determinism silently: a
double-released event serves two callbacks at once after the freelist
hands it out twice, and a leaked one quietly degrades the pool.

The analysis is a forward dataflow on the simflow CFG/worklist engine
over *event-owning locals* — names bound from an acquire op
(``Event(...)``, ``_acquire(...)``, a ``pop()`` off a freelist). It uses
move semantics: handing the object to the scheduler (``push`` /
``push_many`` / ``heappush``), returning it, rebinding it, or passing it
to any other call transfers ownership out of the function. Findings
follow the house must-violation discipline — a release/use is only
flagged when *every* path reaching it has already released the object —
except the leak rule, which is inherently existential (a single path
that drops a live owned object is a leak).

``OWN601``  double release: an event released (recycled / appended back
            to a freelist / discarded) on every path is released again.
``OWN602``  use after release: a released event is queued, passed on,
            or has a field read/written.
``OWN603``  leak on path: an acquired event reaches the function exit
            still owned — neither queued, released, returned, nor
            transferred — on at least one path.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.core import (
    Analysis,
    FileContext,
    Finding,
    Project,
    Rule,
    last_segment,
)
from repro.analysis.flow.cfg import Cfg, build_cfg
from repro.analysis.flow.engine import call_sites, report_function

#: Abstract state: owning local -> set of ownership tokens. Tokens are
#: ``live@<line>`` (owned here, acquired at that line), ``queued``
#: (handed to a scheduler), ``released`` (freed back to the pool) and
#: ``gone`` (ownership transferred out of this function).
State = Dict[str, FrozenSet[str]]

_QUEUED = frozenset(("queued",))
_RELEASED = frozenset(("released",))
_GONE = frozenset(("gone",))

#: Callee last-segments that acquire a pooled/owned event when their
#: result is bound to a name.
_ACQUIRE_CALLS = frozenset(("Event", "_acquire", "acquire_event"))

#: Callee last-segments that hand an event to a scheduler (ownership
#: moves to the queue; ``push_many``/``post_batch`` are the bulk forms).
_QUEUE_CALLS = frozenset(
    ("push", "push_many", "heappush", "post_batch", "schedule_event")
)

#: Callee last-segments that release an event back to its pool.
_RELEASE_CALLS = frozenset(("_recycle", "recycle", "release_event"))


def _call_tail(value: ast.expr) -> Optional[str]:
    if not isinstance(value, ast.Call):
        return None
    return last_segment(value.func)


def _is_freelist_name(name: Optional[str]) -> bool:
    return name is not None and "free" in name.lower()


def _is_acquire(value: ast.expr) -> bool:
    """Does this expression mint a fresh owned event?"""
    tail = _call_tail(value)
    if tail in _ACQUIRE_CALLS:
        return True
    if tail == "pop" and isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Attribute) and not value.args:
            return _is_freelist_name(last_segment(func.value))
    return False


class _EventAnalysis:
    """The per-function forward dataflow (engine client)."""

    def __init__(
        self,
        ctx: FileContext,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        report: Optional[List[Finding]] = None,
    ) -> None:
        self.ctx = ctx
        self.func = func
        self.report = report

    # -- engine contract ------------------------------------------------
    def initial(self, cfg: Cfg) -> State:
        # Parameters stay untracked: the caller owns them. Only locals
        # minted by an acquire op are linear resources of this function.
        return {}

    def join(self, a: State, b: State) -> State:
        if a == b:
            return a
        out = dict(a)
        for key, value in b.items():
            existing = out.get(key)
            out[key] = value if existing is None else existing | value
        return out

    def transfer(self, stmt: ast.stmt, state: State) -> State:
        state = dict(state)
        for call, name in sorted(
            call_sites(stmt),
            key=lambda pair: (pair[0].lineno, pair[0].col_offset),
        ):
            self._apply_call(call, name, state)
        self._check_field_uses(stmt, state)
        if isinstance(stmt, ast.Assign):
            self._apply_assign(stmt.targets, stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._apply_assign([stmt.target], stmt.value, state)
        elif isinstance(stmt, ast.Return):
            if isinstance(stmt.value, ast.Name) and stmt.value.id in state:
                state[stmt.value.id] = _GONE
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._untrack_target(stmt.target, state)
        return state

    # -- transfer pieces ------------------------------------------------
    def _apply_assign(
        self, targets: List[ast.expr], value: ast.expr, state: State
    ) -> None:
        moved: Optional[FrozenSet[str]] = None
        if _is_acquire(value):
            moved = frozenset((f"live@{value.lineno}",))
        elif isinstance(value, ast.Name) and value.id in state:
            # Move semantics: ``y = x`` transfers ownership to ``y``.
            moved = state[value.id]
            state[value.id] = _GONE
        for target in targets:
            if isinstance(target, ast.Name):
                self._orphan_live(target.id, state)
                if moved is not None:
                    state[target.id] = moved
                else:
                    state.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._untrack_target(element, state)

    def _orphan_live(self, name: str, state: State) -> None:
        """Rebinding over a still-live event drops its only reference.

        The live token is parked under a synthetic key so it reaches the
        exit state and is reported by the leak rule.
        """
        prior = state.get(name)
        if prior is None:
            return
        live = frozenset(t for t in prior if t.startswith("live@"))
        if live:
            orphan_key = f"{name}#orphan"
            state[orphan_key] = state.get(orphan_key, frozenset()) | live

    def _untrack_target(self, target: ast.expr, state: State) -> None:
        if isinstance(target, ast.Name):
            self._orphan_live(target.id, state)
            state.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._untrack_target(element, state)
        elif isinstance(target, ast.Starred):
            self._untrack_target(target.value, state)

    def _tracked_args(self, call: ast.Call, state: State) -> List[str]:
        names: List[str] = []
        for arg in (*call.args, *[kw.value for kw in call.keywords]):
            if isinstance(arg, ast.Name) and arg.id in state:
                names.append(arg.id)
        return names

    def _apply_call(self, call: ast.Call, name: str, state: State) -> None:
        is_release = name in _RELEASE_CALLS or (
            name == "append"
            and isinstance(call.func, ast.Attribute)
            and _is_freelist_name(last_segment(call.func.value))
        )
        for var in self._tracked_args(call, state):
            tokens = state[var]
            if is_release:
                if tokens == _RELEASED:
                    self._emit(
                        call,
                        "OWN601",
                        f"event '{var}' released again via '{name}' — it "
                        "is already back in the pool on every path, so "
                        "the freelist would hand it out twice",
                    )
                state[var] = _RELEASED
            elif name in _QUEUE_CALLS:
                if tokens == _RELEASED:
                    self._emit(
                        call,
                        "OWN602",
                        f"released event '{var}' handed to the scheduler "
                        f"via '{name}' — the pool may already have "
                        "reissued it to another callback",
                    )
                state[var] = _QUEUED
            else:
                if tokens == _RELEASED:
                    self._emit(
                        call,
                        "OWN602",
                        f"released event '{var}' passed to '{name}' — "
                        "use after release",
                    )
                # Any other call takes ownership (conservative: helpers
                # own what they are handed; no summary needed).
                state[var] = _GONE

    def _check_field_uses(self, stmt: ast.stmt, state: State) -> None:
        """Field access (``e.fn``, ``e.time = ...``) on a released event.

        Mirrors :func:`call_sites`: a compound statement contributes only
        its control expressions — its body lives in other CFG blocks.
        """
        roots: List[ast.AST]
        if isinstance(stmt, (ast.If, ast.While)):
            roots = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            roots = [stmt.iter]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            roots = [item.context_expr for item in stmt.items]
        elif isinstance(
            stmt,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try),
        ):
            roots = []
        else:
            roots = [stmt]
        stack: List[ast.AST] = roots
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and state.get(node.value.id) == _RELEASED
            ):
                self._emit(
                    node,
                    "OWN602",
                    f"field '{node.attr}' of event '{node.value.id}' "
                    "touched after release — the object belongs to the "
                    "pool again",
                )

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if self.report is None:
            return
        self.report.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )


def event_findings(project: Project) -> List[Finding]:
    report: List[Finding] = []
    for ctx, func in project.functions():
        cfg = build_cfg(func)
        states = report_function(
            cfg, lambda sink: _EventAnalysis(ctx, func, report=sink), report
        )
        exit_state = states.get(cfg.exit)
        if exit_state:
            _report_leaks(ctx, exit_state, report)
    return report


def _report_leaks(
    ctx: FileContext, exit_state: State, report: List[Finding]
) -> None:
    for var in sorted(exit_state):
        for token in sorted(exit_state[var]):
            if not token.startswith("live@"):
                continue
            line = int(token.split("@", 1)[1])
            label = var.split("#", 1)[0]
            report.append(
                Finding(
                    path=ctx.path,
                    line=line,
                    col=0,
                    rule="OWN603",
                    message=(
                        f"event '{label}' acquired here can reach the "
                        "function exit still owned — neither queued, "
                        "released nor transferred on that path (the "
                        "pool entry is leaked)"
                    ),
                )
            )


class _EventRuleBase(Rule):
    scope = None  # all analyzed files; the in-tree sources must stay clean

    @property
    def analysis(self) -> Analysis:
        return event_findings


class DoubleReleaseRule(_EventRuleBase):
    id = "OWN601"
    title = "a pooled event is released exactly once"
    rationale = (
        "post/post_at/post_batch recycle their events through a "
        "freelist; releasing one twice makes _acquire hand the same "
        "object to two callers, and the second rebind silently corrupts "
        "the first caller's pending callback — a determinism bug no "
        "trace diff attributes to its cause."
    )


class UseAfterReleaseRule(_EventRuleBase):
    id = "OWN602"
    title = "no use of an event after it was released"
    rationale = (
        "After _recycle the object belongs to the pool: its fn/args "
        "slots are neutralized and the next _acquire may rebind them at "
        "any moment. Queueing or touching it races that rebind — the "
        "lazy-cancellation discard paths in the schedulers are release "
        "points too."
    )


class EventLeakRule(_EventRuleBase):
    id = "OWN603"
    title = "every acquired event is queued, released or handed off"
    rationale = (
        "An event acquired from the freelist and then dropped on an "
        "early-exit path is gone for good — the pool shrinks by one on "
        "every hit of that path, silently degrading the allocation-free "
        "hot path the engine's perf work bought (post_batch/push_many "
        "included)."
    )


EVENT_RULES: Tuple[Rule, ...] = (
    DoubleReleaseRule(),
    UseAfterReleaseRule(),
    EventLeakRule(),
)

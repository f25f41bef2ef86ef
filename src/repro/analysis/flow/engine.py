"""Worklist fixpoint engine for forward dataflow over a CFG.

An analysis supplies three things:

* ``initial(cfg)`` — the abstract state on entry to the function;
* ``transfer(stmt, state)`` — the state after one statement (must be
  monotone; states are treated as immutable values);
* ``join(a, b)`` — least upper bound of two states.

:func:`fixpoint` iterates to a fixed point with a deterministic
worklist (blocks are processed in index order — determinism is a
repo-wide contract, and findings must not depend on dict order), then
returns the stable block-entry states. Clients make a final reporting
pass over each block with :func:`walk_block`, observing the state
*before* every statement — findings are only collected once the states
have converged, so a partially-propagated state can never produce a
phantom report. :func:`report_function` packages that silent-fixpoint
then reporting-walk sequence for the rule families.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
)

import ast

from repro.analysis.core import Finding
from repro.analysis.flow.cfg import Cfg

S = TypeVar("S")


class DataflowAnalysis(Protocol[S]):
    """The contract :func:`fixpoint` needs from an analysis."""

    def initial(self, cfg: Cfg) -> S: ...

    def transfer(self, stmt: ast.stmt, state: S) -> S: ...

    def join(self, a: S, b: S) -> S: ...


#: Safety valve: iterations per CFG before we declare non-convergence.
#: Real lattices here are finite and shallow; this only guards against a
#: buggy (non-monotone) transfer function looping forever.
MAX_ITERATIONS = 10_000


class FixpointError(RuntimeError):
    """A transfer function failed to converge (non-monotone lattice)."""


def fixpoint(cfg: Cfg, analysis: DataflowAnalysis[S]) -> Dict[int, S]:
    """Run the worklist algorithm; return stable entry states per block."""
    in_states: Dict[int, S] = {cfg.entry: analysis.initial(cfg)}
    worklist: List[int] = [cfg.entry]
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise FixpointError(
                f"dataflow did not converge in {MAX_ITERATIONS} iterations "
                f"({ast.dump(cfg.func)[:80]}...)"
            )
        # Deterministic order: always the lowest-numbered pending block.
        worklist.sort()
        index = worklist.pop(0)
        block = cfg.blocks[index]
        state = in_states[index]
        for stmt in block.stmts:
            state = analysis.transfer(stmt, state)
        for succ in block.succs:
            if succ in in_states:
                joined = analysis.join(in_states[succ], state)
                if joined != in_states[succ]:
                    in_states[succ] = joined
                    if succ not in worklist:
                        worklist.append(succ)
            else:
                in_states[succ] = state
                if succ not in worklist:
                    worklist.append(succ)
    return in_states


def walk_block(
    cfg: Cfg,
    in_states: Dict[int, S],
    analysis: DataflowAnalysis[S],
    observe: Callable[[ast.stmt, S], None],
) -> None:
    """Reporting pass: call ``observe(stmt, state_before)`` everywhere.

    Runs after :func:`fixpoint` so every observed state is final.
    Unreachable blocks (no entry state) are skipped — they have no
    concrete executions to report about.
    """
    for block in cfg.blocks:
        if block.index not in in_states:
            continue
        state = in_states[block.index]
        for stmt in block.stmts:
            observe(stmt, state)
            state = analysis.transfer(stmt, state)


def report_function(
    cfg: Cfg,
    analysis_for: Callable[[Optional[List[Finding]]], DataflowAnalysis[Any]],
    report: List[Finding],
) -> Dict[int, Any]:
    """Run the fixpoint silently, then one reporting walk into ``report``.

    ``analysis_for(None)`` must build a silent analysis and
    ``analysis_for(report)`` one that appends its findings. Only the
    post-convergence walk reports, so a partially-propagated state can
    never leave a phantom finding behind (the must-violation guarantee
    of every dataflow rule depends on this). Returns the converged
    block-entry states.
    """
    states = fixpoint(cfg, analysis_for(None))
    walk_block(cfg, states, analysis_for(report), lambda stmt, state: None)
    return states


def call_sites(stmt: ast.stmt) -> Iterator[Tuple[ast.Call, str]]:
    """Yield ``(call node, last name segment)`` for calls in a statement.

    A compound statement sitting in a CFG block (the ``if``/``while``
    test, the ``for`` iterator) contributes only its *control
    expressions* — its body statements live in their own blocks and
    must not be double-counted here. Nested function/lambda/class
    bodies are skipped too: their calls execute in a different
    activation, not on this statement's path.
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
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None:
                yield node, name
        stack.extend(ast.iter_child_nodes(node))


def _call_name(call: ast.Call) -> "str | None":
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None

"""The one analyzer pipeline behind ``repro check``.

Four rule families share it: simlint (``lint``: determinism,
DES-discipline and per-CPU race rules), simflow (``flow``: skb
typestate and time units), simorder (``order``: partition invariance,
cross-shard causality, flow-cache ordering) and simsan (``san``:
ownership and lifetimes). One run discovers and parses every file once
into a :class:`~repro.analysis.core.Project`, runs each selected rule
over it — a dataflow family's shared analysis runs once and is filtered
by rule id and scope — applies the suppression pragmas once, and
reports one :class:`~repro.analysis.core.CheckResult`.

:func:`analyze` is that pipeline. :func:`run_check` adds the gates CI
enforces: the committed suppressed-findings baseline
(``tools/findings_baseline.txt``; applied when the run covers ``src``
from the repository root, because baseline paths are root-relative) and
the ratcheted mypy strict gate, which reports ``skipped`` when mypy is
not installed unless ``require_mypy`` is set. :func:`run_traces` runs
the three static↔dynamic cross-checks.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.baseline import check_baseline, load_baseline_file
from repro.analysis.core import (
    META_RULE_ID,
    PARSE_RULE_ID,
    Analysis,
    CheckResult,
    FileContext,
    Finding,
    MypyGate,
    Project,
    Rule,
    TraceCheck,
    iter_python_files,
    meta_findings,
    module_name_for,
    read_source,
)
from repro.analysis.flow.crosscheck import cross_check
from repro.analysis.flow.rules_skb import SKB_RULES
from repro.analysis.flow.rules_time import TIME_RULES
from repro.analysis.lint.rules_des import DES_RULES
from repro.analysis.lint.rules_determinism import DETERMINISM_RULES
from repro.analysis.lint.rules_race import RACE_RULES
from repro.analysis.order.ordercheck import order_cross_check
from repro.analysis.order.rules_causality import CAUSALITY_RULES
from repro.analysis.order.rules_flowcache import FLOWCACHE_RULES
from repro.analysis.order.rules_partition import PARTITION_RULES
from repro.analysis.san.rules_cache import CACHE_RULES
from repro.analysis.san.rules_skbown import SKBOWN_RULES
from repro.analysis.san.sancheck import san_cross_check

_REPO_ROOT = Path(__file__).resolve().parents[3]

#: The committed suppressed-findings baseline of the ``src`` tree,
#: relative to the repository root.
BASELINE = Path("tools", "findings_baseline.txt")

#: The rule registry: family name -> its rules, in catalogue order.
FAMILIES: Dict[str, Tuple[Rule, ...]] = {
    "lint": DETERMINISM_RULES + DES_RULES + RACE_RULES,
    "flow": SKB_RULES + TIME_RULES,
    "order": PARTITION_RULES + CAUSALITY_RULES + FLOWCACHE_RULES,
    "san": SKBOWN_RULES + CACHE_RULES,
}

ALL_RULES: Tuple[Rule, ...] = tuple(
    rule for rules in FAMILIES.values() for rule in rules
)

#: Meta rules every run reports; pragmas cannot suppress them.
META_RULES: Tuple[Tuple[str, str], ...] = (
    (META_RULE_ID, "malformed or unknown-id pragma / lint_exempt"),
    (PARSE_RULE_ID, "file does not parse"),
)


def rule_by_id(rule_id: str) -> Optional[Rule]:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    return None


def catalogue() -> str:
    """The ``--list-rules`` text: id, family, title, scope, rationale."""
    lines: List[str] = []
    for family, rules in FAMILIES.items():
        for rule in rules:
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            lines.append(f"{rule.id}  [{family}] {rule.title}")
            lines.append(f"    scope: {scope}")
            lines.append(f"    {rule.rationale}")
    for rule_id, title in META_RULES:
        lines.append(f"{rule_id}  [meta] {title} (always on)")
    return "\n".join(lines)


def _select(rule_ids: Optional[Iterable[str]]) -> List[Rule]:
    if rule_ids is None:
        return list(ALL_RULES)
    selected: List[Rule] = []
    for rule_id in rule_ids:
        rule = rule_by_id(rule_id)
        if rule is None:
            known = ", ".join(r.id for r in ALL_RULES)
            raise ValueError(f"unknown rule id {rule_id!r} (known: {known})")
        selected.append(rule)
    return selected


def analyze(
    paths: Sequence[str], rule_ids: Optional[Iterable[str]] = None
) -> CheckResult:
    """Run all or the selected rules over ``paths`` (files or trees).

    Suppression pragmas are applied after the rules ran, so a pragma
    silences a finding without changing what the rules see; suppressed
    findings are kept for the baseline ratchet. Unknown ids in
    ``rule_ids`` raise ``ValueError`` — a typo in ``--rule`` must not
    silently check nothing.
    """
    selected = _select(rule_ids)
    files = [
        FileContext(path, read_source(path), module_name_for(path))
        for path in iter_python_files(paths)
    ]
    project = Project(files=files)
    modules = {ctx.path: ctx.module for ctx in files}

    shared: Dict[Analysis, List[Finding]] = {}
    raw: List[Finding] = []
    for rule in selected:
        analysis = rule.analysis
        if analysis is None:
            raw.extend(rule.check_project(project))
            continue
        if analysis not in shared:
            # A statement may sit in several blocks' views (loop
            # headers), so one finding can be reported twice; dedupe.
            shared[analysis] = sorted(set(analysis(project)))
        raw.extend(
            finding
            for finding in shared[analysis]
            if finding.rule == rule.id
            and rule.applies_to(modules.get(finding.path))
        )
    # Meta findings (parse errors, malformed pragmas) always run: a file
    # that cannot be parsed was not checked, and silence would be a lie.
    known = [rule.id for rule in ALL_RULES]
    for ctx in files:
        raw.extend(meta_findings(ctx, known))

    by_path = {ctx.path: ctx for ctx in files}
    result = CheckResult(
        files_checked=len(files), rules_run=[rule.id for rule in selected]
    )
    for finding in sorted(raw):
        ctx = by_path.get(finding.path)
        if (
            ctx is not None
            and finding.rule not in (META_RULE_ID, PARSE_RULE_ID)
            and ctx.suppressed(finding.rule, finding.line)
        ):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


def _covers_src(paths: Sequence[str]) -> bool:
    """True when the run can be compared with the committed baseline.

    Baseline entries are repo-root-relative paths of the ``src`` tree;
    comparing them only makes sense when that is the working directory
    and the run covers exactly ``src`` (a fixture run would read as
    phantom drift).
    """
    return (
        Path.cwd().resolve() == _REPO_ROOT
        and len(paths) == 1
        and Path(paths[0]).resolve() == _REPO_ROOT / "src"
    )


def _mypy_gate(require_mypy: bool) -> MypyGate:
    if importlib.util.find_spec("mypy") is None:
        if require_mypy:
            return MypyGate(
                ok=False, skipped=False,
                summary="mypy required but not installed",
            )
        return MypyGate(
            ok=True, skipped=True,
            summary="mypy not installed; strict gate skipped",
        )
    command = [sys.executable, str(_REPO_ROOT / "tools" / "typecheck.py")]
    if require_mypy:
        command.append("--require")
    proc = subprocess.run(
        command, cwd=_REPO_ROOT, capture_output=True, text=True
    )
    output = (proc.stdout + proc.stderr).strip()
    if proc.returncode == 0:
        summary = output.splitlines()[-1] if output else "ok"
    else:
        # Keep every error: CI runs no separate mypy step to show them.
        summary = output or f"exit {proc.returncode}"
    return MypyGate(ok=proc.returncode == 0, skipped=False, summary=summary)


def run_check(
    paths: Sequence[str] = ("src",),
    rule_ids: Optional[Sequence[str]] = None,
    require_mypy: bool = False,
) -> CheckResult:
    """:func:`analyze` plus the committed baseline and the mypy gate.

    With ``rule_ids`` the baseline is compared on those rules only. A
    missing or malformed baseline raises ``OSError``/``ValueError``.
    """
    result = analyze(paths, rule_ids)
    if _covers_src(paths):
        frozen = load_baseline_file(str(_REPO_ROOT / BASELINE))
        if rule_ids is not None:
            frozen = {
                key: count
                for key, count in frozen.items()
                if key[1] in result.rules_run
            }
        result.baseline_errors = check_baseline(result, frozen)
    result.mypy = _mypy_gate(require_mypy)
    return result


def run_traces(
    goldens: Sequence[str] = (), paths: Sequence[str] = ("src",)
) -> List[TraceCheck]:
    """The three static↔dynamic cross-checks.

    Stage edges and per-flow delivery order are replayed from
    ``goldens`` (default: every trace in ``tests/goldens``); the
    sanitizer's dynamic site tags are checked against the static
    catalog of ``paths``.
    """
    return [
        cross_check(goldens),
        order_cross_check(goldens),
        san_cross_check(paths),
    ]


def render_traces(checks: Sequence[TraceCheck], fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "ok": all(check.ok for check in checks),
            "checks": [check.to_dict() for check in checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(check.to_text() for check in checks)

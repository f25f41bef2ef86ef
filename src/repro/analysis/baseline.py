"""Suppressed-findings baseline ratchet for ``repro check``.

Mirrors the mypy overrides ratchet (``tools/mypy_ratchet.txt``): the
checked-in baseline freezes the inventory of *suppressed* findings —
every pragma/exemption that actually silences something today. The
ratchet then only turns one way:

* a **new** suppressed finding (a fresh ``# simlint: disable=`` that
  hides a real hit) fails CI until the baseline is deliberately
  regenerated and reviewed;
* a **stale** baseline entry (the suppression was removed or the code
  fixed) also fails, forcing the baseline to shrink in the same commit.

Unsuppressed findings are not the baseline's business — they already
fail the run directly. The file format is one entry per line::

    path::RULE::count

with ``#`` comments and blank lines ignored; paths use forward slashes
relative to the repo root. One file, ``tools/findings_baseline.txt``,
covers every rule family; regenerate it with
``repro check src --write-baseline tools/findings_baseline.txt``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.analysis.core import CheckResult

#: (normalized path, rule id) -> suppressed-finding count.
Inventory = Dict[Tuple[str, str], int]

_HEADER = (
    "# Suppressed-findings baseline (see repro.analysis.baseline).\n"
    "# One line per `path::RULE::count`; regenerate with --write-baseline.\n"
    "# New suppressions fail CI; removed ones must shrink this file.\n"
)


def normalize_path(path: str) -> str:
    """Canonical baseline key: forward slashes, relative to the cwd.

    Runs are invoked from the repo root (CI, pre-commit, the drift
    test), but callers may hand the runner absolute paths — both must
    produce the same baseline key or the ratchet would report phantom
    drift depending on how the path was spelled.
    """
    if os.path.isabs(path):
        relative = os.path.relpath(path, os.getcwd())
        if not relative.startswith(".."):
            path = relative
    normalized = path.replace(os.sep, "/").replace("\\", "/")
    while normalized.startswith("./"):
        normalized = normalized[2:]
    return normalized


def inventory_of(result: CheckResult) -> Inventory:
    """The suppressed-finding inventory of one run."""
    inventory: Inventory = {}
    for finding in result.suppressed:
        key = (normalize_path(finding.path), finding.rule)
        inventory[key] = inventory.get(key, 0) + 1
    return inventory


def render_baseline(result: CheckResult) -> str:
    lines = [_HEADER.rstrip("\n")]
    for (path, rule), count in sorted(inventory_of(result).items()):
        lines.append(f"{path}::{rule}::{count}")
    return "\n".join(lines) + "\n"


def parse_baseline(text: str, origin: str = "<baseline>") -> Inventory:
    inventory: Inventory = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("::")
        if len(parts) != 3 or not parts[2].isdigit():
            raise ValueError(
                f"{origin}:{number}: malformed baseline entry {line!r} "
                "(expected path::RULE::count)"
            )
        key = (normalize_path(parts[0]), parts[1])
        inventory[key] = inventory.get(key, 0) + int(parts[2])
    return inventory


def check_baseline(result: CheckResult, baseline: Inventory) -> List[str]:
    """Diff the run's suppression inventory against the frozen baseline.

    Returns human-readable violations; empty means the ratchet holds.
    """
    current = inventory_of(result)
    errors: List[str] = []
    for key in sorted(set(current) | set(baseline)):
        path, rule = key
        have = current.get(key, 0)
        frozen = baseline.get(key, 0)
        if have > frozen:
            errors.append(
                f"{path}: {have - frozen} new suppressed {rule} finding"
                f"{'s' if have - frozen != 1 else ''} not in the baseline "
                "(fix the code or regenerate the baseline deliberately)"
            )
        elif have < frozen:
            errors.append(
                f"{path}: baseline expects {frozen} suppressed {rule} "
                f"finding{'s' if frozen != 1 else ''} but only {have} remain "
                "— shrink the baseline (run --write-baseline)"
            )
    return errors


def load_baseline_file(path: str) -> Inventory:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_baseline(handle.read(), origin=path)

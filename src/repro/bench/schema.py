"""Schema for ``BENCH_*.json`` documents.

CI's perf-smoke job fails on *schema* regressions — a benchmark that
stopped running, lost its events/sec measurement, or errored — never on
timing changes, which vary with the host. :func:`validate_bench_doc`
returns a list of human-readable problems; an empty list means the
document is valid.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

#: Bump on any backwards-incompatible change to the document layout.
SCHEMA_ID = "repro-bench/1"

_BENCH_KINDS = ("engine", "scenario", "figure", "shard", "flowcache")

#: Required per-benchmark fields and their types.
_ENTRY_FIELDS = (
    ("name", str),
    ("kind", str),
    ("seed", int),
    ("status", str),
    ("wall_s", (int, float)),
    ("events", int),
    ("events_per_sec", (int, float)),
    ("headline", dict),
)

#: Required top-level fields and their types.
_TOP_FIELDS = (
    ("schema", str),
    ("created_utc", str),
    ("quick", bool),
    ("workers", int),
    ("root_seed", int),
    ("benchmarks", list),
    ("totals", dict),
)

_TOTALS_FIELDS = (
    ("wall_s", (int, float)),
    ("events", int),
    ("events_per_sec", (int, float)),
    ("ok", int),
    ("errors", int),
)


def _check_fields(
    obj: Dict[str, Any], fields: Any, where: str, problems: List[str]
) -> None:
    for key, types in fields:
        if key not in obj:
            problems.append(f"{where}: missing required field {key!r}")
        elif not isinstance(obj[key], types) or isinstance(obj[key], bool) != (
            types is bool
        ):
            problems.append(
                f"{where}: field {key!r} has type "
                f"{type(obj[key]).__name__}, expected "
                f"{types.__name__ if isinstance(types, type) else 'number'}"
            )


def validate_bench_doc(doc: Any) -> List[str]:
    """All schema problems with ``doc`` (empty list == valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    _check_fields(doc, _TOP_FIELDS, "document", problems)
    if doc.get("schema") not in (None, SCHEMA_ID):
        problems.append(
            f"document: schema is {doc.get('schema')!r}, expected {SCHEMA_ID!r}"
        )
    benchmarks = doc.get("benchmarks")
    if isinstance(benchmarks, list):
        if not benchmarks:
            problems.append("document: benchmarks list is empty")
        seen: Set[str] = set()
        for index, entry in enumerate(benchmarks):
            where = f"benchmarks[{index}]"
            if not isinstance(entry, dict):
                problems.append(f"{where}: not an object")
                continue
            _check_fields(entry, _ENTRY_FIELDS, where, problems)
            name = entry.get("name")
            if isinstance(name, str):
                if name in seen:
                    problems.append(f"{where}: duplicate benchmark name {name!r}")
                seen.add(name)
            kind = entry.get("kind")
            if isinstance(kind, str) and kind not in _BENCH_KINDS:
                problems.append(f"{where}: unknown kind {kind!r}")
            status = entry.get("status")
            if status not in ("ok", "error"):
                problems.append(f"{where}: status must be 'ok' or 'error'")
            elif status == "error" and not isinstance(entry.get("error"), str):
                problems.append(f"{where}: error status requires an 'error' string")
    totals = doc.get("totals")
    if isinstance(totals, dict):
        _check_fields(totals, _TOTALS_FIELDS, "totals", problems)
        if isinstance(benchmarks, list) and all(
            isinstance(entry, dict) for entry in benchmarks
        ):
            ok = sum(1 for entry in benchmarks if entry.get("status") == "ok")
            errors = sum(1 for entry in benchmarks if entry.get("status") == "error")
            if totals.get("ok") != ok or totals.get("errors") != errors:
                problems.append(
                    "totals: ok/errors counts disagree with benchmark entries"
                )
    return problems


#: Default allowed fractional events/sec slowdown vs the baseline. CI
#: hosts differ wildly in single-core speed, so the band is wide: the
#: gate exists to catch order-of-magnitude collapses (an accidentally
#: quadratic scheduler, a run that silently did no work), not 10% noise.
DEFAULT_TOLERANCE = 0.5


def compare_bench_docs(
    current: Any, baseline: Any, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Regressions in ``current`` relative to a committed ``baseline``.

    Three classes of failure, all human-readable strings (empty list ==
    pass):

    * a benchmark that was ``ok`` in the baseline is missing or errored;
    * a benchmark's ``events_per_sec`` fell below ``(1 - tolerance)`` of
      the baseline's;
    * either document fails schema validation outright.

    Benchmarks added since the baseline are ignored — new work must not
    require regenerating the baseline to land.
    """
    problems: List[str] = []
    if not 0.0 <= tolerance < 1.0:
        return [f"tolerance must be in [0, 1), got {tolerance}"]
    for label, doc in (("current", current), ("baseline", baseline)):
        schema_problems = validate_bench_doc(doc)
        if schema_problems:
            problems.extend(f"{label} document: {p}" for p in schema_problems)
    if problems:
        return problems
    current_by_name = {
        entry["name"]: entry for entry in current["benchmarks"]
    }
    floor = 1.0 - tolerance
    for entry in baseline["benchmarks"]:
        name = entry["name"]
        if entry["status"] != "ok":
            continue  # a broken baseline entry gates nothing
        now = current_by_name.get(name)
        if now is None:
            problems.append(f"{name}: in baseline but missing from this run")
            continue
        if now["status"] != "ok":
            problems.append(
                f"{name}: ok in baseline but {now['status']} now "
                f"({now.get('error', 'no detail')})"
            )
            continue
        base_eps = float(entry["events_per_sec"])
        now_eps = float(now["events_per_sec"])
        if base_eps > 0 and now_eps < base_eps * floor:
            problems.append(
                f"{name}: events/sec fell to {now_eps:,.0f} from baseline "
                f"{base_eps:,.0f} ({now_eps / base_eps:.1%}; floor is "
                f"{floor:.0%} of baseline)"
            )
    return problems

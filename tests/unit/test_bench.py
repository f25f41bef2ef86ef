"""Unit tests for the repro bench suite, schema, and harness."""

import json

import pytest

from repro.bench import (
    SCHEMA_ID,
    all_specs,
    compare_bench_docs,
    run_bench,
    specs_for,
    validate_bench_doc,
    write_bench_doc,
)
from repro.bench.suite import QUICK_FIGURES, derive_bench_seed


# ----------------------------------------------------------------------
# Suite selection
# ----------------------------------------------------------------------
def test_specs_are_deterministic_and_unique():
    specs = all_specs()
    names = [spec.name for spec in specs]
    assert names == [spec.name for spec in all_specs()]
    assert len(names) == len(set(names))
    assert all(
        spec.kind in ("engine", "scenario", "figure", "shard", "flowcache")
        for spec in specs
    )


def test_quick_subset():
    quick = specs_for(quick=True)
    assert all(spec.quick for spec in quick)
    # Engine + scenario benches always run quick; figures are a subset.
    figure_names = {spec.name for spec in quick if spec.kind == "figure"}
    assert figure_names == {f"figure-{name}" for name in QUICK_FIGURES}


def test_only_filter_and_unknown_name():
    only = specs_for(only=["engine-churn-heap", "scenario-tcp-stream-falcon"])
    assert {spec.name for spec in only} == {
        "engine-churn-heap",
        "scenario-tcp-stream-falcon",
    }
    with pytest.raises(ValueError, match="unknown benchmark"):
        specs_for(only=["engine-churn-heap", "nope"])


def test_derived_seeds_are_stable_and_distinct():
    assert derive_bench_seed(0, "engine-churn-heap") == derive_bench_seed(
        0, "engine-churn-heap"
    )
    seeds = {derive_bench_seed(0, spec.name) for spec in all_specs()}
    assert len(seeds) == len(all_specs())  # no collisions in this suite
    assert derive_bench_seed(1, "engine-churn-heap") != derive_bench_seed(
        0, "engine-churn-heap"
    )


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
def _valid_doc():
    return {
        "schema": SCHEMA_ID,
        "created_utc": "2026-01-01T00:00:00+00:00",
        "quick": True,
        "workers": 1,
        "root_seed": 0,
        "benchmarks": [
            {
                "name": "engine-churn-heap",
                "kind": "engine",
                "seed": 1,
                "status": "ok",
                "wall_s": 0.1,
                "events": 100,
                "events_per_sec": 1000.0,
                "headline": {},
            }
        ],
        "totals": {
            "wall_s": 0.1,
            "events": 100,
            "events_per_sec": 1000.0,
            "ok": 1,
            "errors": 0,
        },
    }


def test_schema_accepts_valid_doc():
    assert validate_bench_doc(_valid_doc()) == []
    # Extra top-level keys (older documents carried "scheduler") are ignored.
    assert validate_bench_doc({**_valid_doc(), "scheduler": "heap"}) == []


def test_schema_rejects_non_object():
    assert validate_bench_doc([1, 2]) != []


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("benchmarks"), "missing required field 'benchmarks'"),
        (lambda d: d.__setitem__("schema", "other/9"), "schema is"),
        (lambda d: d["benchmarks"][0].pop("events_per_sec"), "events_per_sec"),
        (lambda d: d["benchmarks"][0].__setitem__("kind", "weird"), "unknown kind"),
        (lambda d: d["benchmarks"][0].__setitem__("status", "bad"), "status"),
        (lambda d: d.__setitem__("benchmarks", []), "empty"),
        (lambda d: d["totals"].__setitem__("ok", 7), "disagree"),
        (lambda d: d.__setitem__("workers", True), "workers"),
    ],
)
def test_schema_rejects_mutations(mutate, fragment):
    doc = _valid_doc()
    mutate(doc)
    problems = validate_bench_doc(doc)
    assert problems, f"mutation should have been rejected: {fragment}"
    assert any(fragment in problem for problem in problems), problems


def test_schema_error_status_requires_message():
    doc = _valid_doc()
    doc["benchmarks"][0]["status"] = "error"
    doc["totals"]["ok"] = 0
    doc["totals"]["errors"] = 1
    assert any("error" in p for p in validate_bench_doc(doc))
    doc["benchmarks"][0]["error"] = "ValueError: boom"
    assert validate_bench_doc(doc) == []


def test_schema_duplicate_names_rejected():
    doc = _valid_doc()
    doc["benchmarks"].append(dict(doc["benchmarks"][0]))
    doc["totals"]["ok"] = 2
    assert any("duplicate" in p for p in validate_bench_doc(doc))


# ----------------------------------------------------------------------
# Harness end-to-end (inline worker path)
# ----------------------------------------------------------------------
def test_run_bench_inline_produces_valid_doc(tmp_path):
    doc = run_bench(
        quick=True,
        workers=1,
        only=["engine-churn-heap", "engine-post-batch-storm"],
        root_seed=3,
    )
    assert validate_bench_doc(doc) == []
    assert doc["root_seed"] == 3
    by_name = {entry["name"]: entry for entry in doc["benchmarks"]}
    assert set(by_name) == {"engine-churn-heap", "engine-post-batch-storm"}
    for entry in by_name.values():
        assert entry["status"] == "ok"
        assert entry["events"] > 0
        assert entry["events_per_sec"] > 0
    path = write_bench_doc(doc, str(tmp_path))
    assert path.endswith(".json") and "BENCH_" in path
    with open(path, "r", encoding="utf-8") as handle:
        assert validate_bench_doc(json.load(handle)) == []


def test_run_bench_headlines_are_seed_deterministic():
    kwargs = dict(quick=True, workers=1, only=["engine-churn-heap"], root_seed=7)
    first = run_bench(**kwargs)
    second = run_bench(**kwargs)
    assert (
        first["benchmarks"][0]["headline"] == second["benchmarks"][0]["headline"]
    )


def test_run_bench_unknown_only_raises():
    with pytest.raises(ValueError, match="unknown benchmark"):
        run_bench(only=["missing-bench"])


# ----------------------------------------------------------------------
# Baseline comparison (the CI perf gate)
# ----------------------------------------------------------------------
def test_compare_identical_docs_passes():
    doc = _valid_doc()
    assert compare_bench_docs(doc, doc) == []


def test_compare_flags_events_per_sec_collapse():
    baseline = _valid_doc()
    current = _valid_doc()
    current["benchmarks"][0]["events_per_sec"] = 100.0  # 10% of baseline
    problems = compare_bench_docs(current, baseline, tolerance=0.5)
    assert len(problems) == 1
    assert "events/sec fell" in problems[0]
    # Within the band: no problem.
    current["benchmarks"][0]["events_per_sec"] = 600.0
    assert compare_bench_docs(current, baseline, tolerance=0.5) == []


def test_compare_flags_missing_and_errored_benchmarks():
    baseline = _valid_doc()
    current = _valid_doc()
    current["benchmarks"][0]["name"] = "engine-post-batch-storm"
    problems = compare_bench_docs(current, baseline)
    assert any("missing from this run" in p for p in problems)

    current = _valid_doc()
    current["benchmarks"][0]["status"] = "error"
    current["benchmarks"][0]["error"] = "boom"
    current["totals"]["ok"] = 0
    current["totals"]["errors"] = 1
    problems = compare_bench_docs(current, baseline)
    assert any("error now" in p for p in problems)


def test_compare_ignores_new_benchmarks_and_broken_baseline_entries():
    baseline = _valid_doc()
    current = _valid_doc()
    current["benchmarks"].append(
        dict(_valid_doc()["benchmarks"][0], name="shard-cluster-2", kind="shard")
    )
    current["totals"]["ok"] = 2
    # New benchmark in current: ignored (landing work must not force a
    # baseline regen).
    assert compare_bench_docs(current, baseline) == []
    # Broken baseline entry gates nothing.
    baseline["benchmarks"][0]["status"] = "error"
    baseline["benchmarks"][0]["error"] = "was broken"
    baseline["totals"]["ok"] = 0
    baseline["totals"]["errors"] = 1
    current = _valid_doc()
    current["benchmarks"][0]["events_per_sec"] = 1.0
    assert compare_bench_docs(current, baseline) == []


def test_compare_validates_schema_and_tolerance():
    assert compare_bench_docs(_valid_doc(), _valid_doc(), tolerance=1.5) == [
        "tolerance must be in [0, 1), got 1.5"
    ]
    problems = compare_bench_docs({"nope": True}, _valid_doc())
    assert problems and all(p.startswith("current document:") for p in problems)

"""Tests for the suppressed-findings baseline ratchet: render/parse
round-trips, the one-way ratchet semantics, CLI wiring, and the drift
check pinning the one checked-in baseline to reality, family by family.
"""

import pytest

from repro.analysis import check
from repro.analysis.baseline import (
    check_baseline,
    inventory_of,
    load_baseline_file,
    normalize_path,
    parse_baseline,
    render_baseline,
)
from repro.analysis.core import CheckResult, Finding, MypyGate
from tests.unit.analyzer_kit import (
    REPO_ROOT,
    actual_findings,
    family_ids,
    run_cli,
)

BASELINE = REPO_ROOT / check.BASELINE

SUPPRESSED_SOURCE = (
    "import random\n"
    "x = random.random()  # simlint: disable=SIM102\n"
)


def suppressed_result(tmp_path):
    """A run with exactly one suppressed SIM102 finding."""
    path = tmp_path / "mod.py"
    path.write_text(SUPPRESSED_SOURCE)
    result, _ = actual_findings([path], family="lint")
    return result


def family_drift(src_check, family):
    """Ratchet drift of one family's slice of the committed baseline,
    measured on the shared whole-``src`` run."""
    _, payload = src_check
    ids = set(family_ids(family))
    suppressed = [
        Finding(s["path"], s["line"], s["col"] - 1, s["rule"], s["message"])
        for s in payload["suppressed"]
        if s["rule"] in ids
    ]
    return check_baseline(
        CheckResult(suppressed=suppressed), family_baseline(family)
    )


def family_baseline(family):
    ids = set(family_ids(family))
    return {
        key: count
        for key, count in load_baseline_file(str(BASELINE)).items()
        if key[1] in ids
    }


def fake_repo(tmp_path, monkeypatch, baseline_text=None):
    """A repository root holding ``src/mod.py`` (one suppressed SIM102)
    and, unless ``baseline_text`` is None, a committed baseline; the
    pipeline and the working directory are pointed at it. The root has
    no ``tools/typecheck.py``, so the mypy gate is stubbed to pass and
    the exit code reflects findings and baseline alone."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(SUPPRESSED_SOURCE)
    (tmp_path / "tools").mkdir()
    if baseline_text is not None:
        (tmp_path / check.BASELINE).write_text(baseline_text)
    monkeypatch.setattr(check, "_REPO_ROOT", tmp_path)
    monkeypatch.setattr(
        check,
        "_mypy_gate",
        lambda require: MypyGate(ok=True, skipped=True, summary="stub"),
    )
    monkeypatch.chdir(tmp_path)


class TestInventoryAndRendering:
    def test_inventory_counts_suppressed_not_kept(self, tmp_path):
        result = suppressed_result(tmp_path)
        assert result.ok
        inventory = inventory_of(result)
        assert len(inventory) == 1
        ((path, rule), count) = next(iter(inventory.items()))
        assert rule == "SIM102"
        assert count == 1
        assert "\\" not in path

    def test_render_parse_round_trip(self, tmp_path):
        result = suppressed_result(tmp_path)
        text = render_baseline(result)
        assert parse_baseline(text) == inventory_of(result)

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_baseline("src/x.py::SIM101\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_baseline("src/x.py::SIM101::lots\n")

    def test_parse_skips_comments_and_blanks(self):
        assert parse_baseline("# header\n\n") == {}

    def test_normalize_path(self):
        assert normalize_path("./src/x.py") == "src/x.py"
        assert normalize_path("src\\x.py") == "src/x.py"


class TestRatchetSemantics:
    def test_exact_match_holds(self, tmp_path):
        result = suppressed_result(tmp_path)
        assert check_baseline(result, inventory_of(result)) == []

    def test_new_suppression_fails(self, tmp_path):
        result = suppressed_result(tmp_path)
        errors = check_baseline(result, {})
        assert len(errors) == 1
        assert "new suppressed SIM102" in errors[0]

    def test_stale_entry_fails(self, tmp_path):
        result = suppressed_result(tmp_path)
        frozen = dict(inventory_of(result))
        frozen[("gone.py", "SIM101")] = 1
        errors = check_baseline(result, frozen)
        assert len(errors) == 1
        assert "shrink the baseline" in errors[0]


class TestCheckedInBaselinesMatchReality:
    """Drift check: each family's slice of the committed baseline must
    equal its current suppression inventory exactly — both directions
    fail."""

    def test_lint_baseline_is_current(self, src_check):
        assert family_drift(src_check, "lint") == []

    def test_flow_baseline_is_current(self, src_check):
        assert family_drift(src_check, "flow") == []

    def test_lint_baseline_is_nonempty(self):
        # The seed tree carries two deliberate suppressions (rng/run_all);
        # an empty lint slice means the pipeline stopped seeing them.
        assert family_baseline("lint")

    def test_flow_baseline_is_empty(self):
        # simflow's must-analysis budget: no in-tree suppressions at all.
        assert family_baseline("flow") == {}

    def test_order_baseline_is_current(self, src_check):
        assert family_drift(src_check, "order") == []

    def test_order_baseline_is_empty(self):
        # simorder's acceptance bar: the shard engine and flowcache
        # satisfy every ORD rule with no pragmas at all — the exemptions
        # live in the rules' scope/exempt declarations, with reasons.
        assert family_baseline("order") == {}

    def test_san_baseline_is_current(self, src_check):
        assert family_drift(src_check, "san") == []

    def test_san_baseline_is_empty(self):
        # simsan's acceptance bar: the wire codec, GRO and the
        # flowcache satisfy every OWN rule with no pragmas at
        # all — ownership discipline holds in-tree, not modulo a list
        # of grandfathered leaks.
        assert family_baseline("san") == {}


class TestCli:
    """``repro check src`` from the repo root applies the baseline."""

    def test_lint_with_baseline_passes(self, src_check):
        code, payload = src_check
        assert code == 0 and payload["baseline_errors"] == []
        assert set(family_ids("lint")) <= set(payload["rules_run"])

    def test_flow_with_baseline_passes(self, src_check):
        code, payload = src_check
        assert code == 0 and payload["baseline_errors"] == []
        assert set(family_ids("flow")) <= set(payload["rules_run"])

    def test_order_with_baseline_passes(self, src_check):
        code, payload = src_check
        assert code == 0 and payload["baseline_errors"] == []
        assert set(family_ids("order")) <= set(payload["rules_run"])

    def test_san_with_baseline_passes(self, src_check):
        code, payload = src_check
        assert code == 0 and payload["baseline_errors"] == []
        assert set(family_ids("san")) <= set(payload["rules_run"])

    def test_new_suppression_fails_against_baseline(
        self, tmp_path, monkeypatch
    ):
        fake_repo(tmp_path, monkeypatch, baseline_text="# nothing frozen\n")
        code, out, _ = run_cli("check", "src")
        assert code == 1
        assert "new suppressed SIM102" in out

    def test_write_baseline_round_trips(self, tmp_path, monkeypatch):
        fake_repo(tmp_path, monkeypatch)
        code, _, _ = run_cli("check", "src", "--write-baseline", check.BASELINE)
        assert code == 0
        code, out, _ = run_cli("check", "src")
        assert "baseline:" not in out
        assert code == 0

    def test_missing_baseline_file_exits_two(self, tmp_path, monkeypatch):
        fake_repo(tmp_path, monkeypatch)
        code, _, err = run_cli("check", "src")
        assert code == 2
        assert "findings_baseline.txt" in err

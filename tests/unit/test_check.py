"""Tests for the one analyzer pipeline behind ``repro check``.

Cross-family behaviour: one parse per file, one shared analysis per
dataflow family, no cache that outlives its source, one rule registry
and one ``--rule`` namespace across the four families.
"""

import importlib.util
from collections import Counter

import pytest

from repro.analysis import check
from repro.analysis.core import FileContext
from repro.analysis.flow import rules_skb
from tests.unit.analyzer_kit import (
    FIXTURE_ROOT,
    REPO_ROOT,
    actual_findings,
    family_of,
    run_cli,
    run_cli_json,
)

FAMILY_NAMES = list(check.FAMILIES)


class TestOneParse:
    def test_each_file_is_parsed_once_across_all_families(self, monkeypatch):
        built = Counter()
        original = FileContext.__init__

        def counting_init(self, path, source, module):
            built[path] += 1
            original(self, path, source, module)

        monkeypatch.setattr(FileContext, "__init__", counting_init)
        code, payload = run_cli_json("check", FIXTURE_ROOT)
        assert code == 1
        assert len(payload["rules_run"]) == len(check.ALL_RULES)
        assert sum(built.values()) == payload["files_checked"]
        assert set(built.values()) == {1}

    def test_family_analysis_runs_once_per_run(self, monkeypatch):
        calls = []
        original = rules_skb.typestate_findings

        def counting(project):
            calls.append(project)
            return original(project)

        monkeypatch.setattr(rules_skb, "typestate_findings", counting)
        result, actual = actual_findings([FIXTURE_ROOT / "flow"], "flow")
        assert len(calls) == 1
        assert {rule for _, _, rule in actual} >= {"FLOW401", "FLOW404"}
        assert not result.ok

    def test_findings_follow_edits_of_the_source(self, tmp_path):
        path = tmp_path / "edited.py"
        path.write_text(
            "def f(skb, stack):\n"
            "    stack.consume_skb(skb)\n"
            "    stack.netif_rx(skb)\n"
        )
        _, first = actual_findings([path])
        assert first == {("edited.py", 3, "FLOW403")}

        path.write_text(
            "def f(skb, stack):\n"
            "    stack.netif_rx(skb)\n"
        )
        _, second = actual_findings([path])
        assert second == set()

        path.write_text(
            "def f(skb, stack):\n"
            "    stack.netif_rx(skb)\n"
            "    stack.free_skb(skb)\n"
            "    stack.free_skb(skb)\n"
        )
        _, third = actual_findings([path])
        assert third == {("edited.py", 4, "FLOW403")}


class TestRegistry:
    def test_ids_are_unique_and_complete(self):
        ids = [rule.id for rule in check.ALL_RULES]
        assert len(ids) == len(set(ids)) == 29

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_family_is_the_rule_package(self, family):
        package = f"repro.analysis.{family}."
        for rule in check.FAMILIES[family]:
            assert type(rule).__module__.startswith(package)
            assert family_of(rule.id) == family

    def test_list_rules_names_the_meta_rules(self):
        # Each family's own rows are checked by its CliContract binding.
        code, out, _ = run_cli("check", "--list-rules")
        assert code == 0
        assert "LINT000  [meta]" in out
        assert "LINT001  [meta]" in out


class TestRuleSelection:
    def test_rules_from_two_families_run_together(self):
        code, payload = run_cli_json(
            "check", FIXTURE_ROOT, "--rule", "SIM101", "--rule", "OWN611"
        )
        assert code == 1
        assert payload["rules_run"] == ["SIM101", "OWN611"]
        rules = {finding["rule"] for finding in payload["findings"]}
        assert {"SIM101", "OWN611"} <= rules <= {
            "SIM101", "OWN611", "LINT000", "LINT001",
        }

    def test_baseline_is_compared_on_the_selected_rules(self, monkeypatch):
        # The committed baseline also freezes a SIM101 suppression; a
        # SIM102-only run must not read its absence as drift.
        monkeypatch.chdir(REPO_ROOT)
        code, payload = run_cli_json("check", "src", "--rule", "SIM102")
        assert code == 0, payload["baseline_errors"]
        assert [s["rule"] for s in payload["suppressed"]] == ["SIM102"]

    def test_unknown_rule_beside_a_valid_one_exits_two(self):
        code, out, err = run_cli(
            "check", FIXTURE_ROOT, "--rule", "SIM101", "--rule", "NOPE000"
        )
        assert code == 2
        assert "NOPE000" in err
        assert out == ""


class TestReports:
    def test_clean_text_report(self):
        clean = FIXTURE_ROOT / "san" / "own61x_clean.py"
        code, out, _ = run_cli("check", clean)
        assert code == 0
        assert "1 files clean" in out
        assert out.rstrip().endswith("check OK")

    def test_failed_mypy_gate_reports_every_error(
        self, tmp_path, monkeypatch
    ):
        # A stand-in for tools/typecheck.py that fails like mypy does.
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "typecheck.py").write_text(
            "print('a.py:1: error: one')\n"
            "print('b.py:2: error: two')\n"
            "print('Found 2 errors in 2 files')\n"
            "raise SystemExit(1)\n"
        )
        monkeypatch.setattr(check, "_REPO_ROOT", tmp_path)
        real_find_spec = importlib.util.find_spec
        monkeypatch.setattr(
            importlib.util,
            "find_spec",
            lambda name, *a: object() if name == "mypy"
            else real_find_spec(name, *a),
        )
        clean = FIXTURE_ROOT / "san" / "own61x_clean.py"
        code, out, _ = run_cli("check", clean, "--require-mypy")
        assert code == 1
        assert "a.py:1: error: one" in out
        assert "b.py:2: error: two" in out
        assert out.rstrip().endswith("check FAILED")

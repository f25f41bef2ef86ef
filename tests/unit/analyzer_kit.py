"""Shared helpers and family contracts for the analyzer tests.

Every fixture corpus under ``tests/fixtures/<family>/`` marks each
seeded violation with a trailing ``# expect: RULE`` comment; the tests
derive the expected finding set from those markers and demand exact
(file, line, rule) agreement — no extra findings, none missing.

The ``*Contract`` classes hold the behaviour every rule family shares,
written once; a family's test module binds one to itself by subclassing
it as a ``Test*`` class and setting ``family`` (pytest collects only the
bound subclasses).
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.analysis.check import FAMILIES, analyze, rule_by_id, run_check
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE_ROOT = REPO_ROOT / "tests" / "fixtures"

#: Trailing marker naming the rule(s) a fixture line must trigger.
MARKER_RE = re.compile(r"#\s*expect:\s*([A-Z0-9, ]+)")


def family_ids(family):
    """The rule ids of one family, in catalogue order."""
    return [rule.id for rule in FAMILIES[family]]


def family_of(rule_id):
    """The family whose registry entry owns ``rule_id``, or None."""
    for family, rules in FAMILIES.items():
        if any(rule.id == rule_id for rule in rules):
            return family
    return None


def expected_fixture_findings(directory):
    """(file name, line, rule) tuples derived from ``# expect:`` markers."""
    expected = set()
    for path in sorted(Path(directory).glob("*.py")):
        for lineno, text in enumerate(path.read_text().splitlines(), start=1):
            match = MARKER_RE.search(text)
            if match is None:
                continue
            for rule in match.group(1).replace(" ", "").split(","):
                if rule:
                    expected.add((path.name, lineno, rule))
    return expected


def actual_findings(paths, family=None, rule_ids=None):
    """Run the pipeline over ``paths``, restricted to ``family`` (or to
    ``rule_ids``); return the result and its (file name, line, rule) set."""
    if rule_ids is None and family is not None:
        rule_ids = family_ids(family)
    result = analyze([str(p) for p in paths], rule_ids=rule_ids)
    return result, {(Path(f.path).name, f.line, f.rule) for f in result.findings}


def run_cli(*argv):
    """``repro <argv>`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def run_cli_json(*argv):
    code, out, _ = run_cli(*argv, "--format", "json")
    return code, json.loads(out)


def assert_family_clean(src_check, family, suppressed=0):
    """The shared ``repro check src`` run passed, ran every rule of
    ``family`` and saw exactly ``suppressed`` suppressions of it."""
    code, payload = src_check
    assert code == 0 and payload["ok"], payload
    ids = set(family_ids(family))
    assert ids <= set(payload["rules_run"])
    assert len([s for s in payload["suppressed"] if s["rule"] in ids]) == (
        suppressed
    )
    assert payload["files_checked"] > 50


class RuleCatalogueContract:
    """The family's registry entry and ``--rule`` selection.

    Bindings set ``rule_ids`` (the family's ids in catalogue order) and
    ``single`` = (rule id, fixture file, line) for a one-rule run over
    the family's fixtures, plus ``single_absent``, a sibling id that
    run must not report.
    """

    family = ""
    rule_ids = ()
    single = ("", "", 0)
    single_absent = ""

    def test_registry_matches_rules(self):
        assert tuple(family_ids(self.family)) == self.rule_ids
        assert {family_of(rule_id) for rule_id in self.rule_ids} == {
            self.family
        }

    def test_rule_by_id(self):
        for rule in FAMILIES[self.family]:
            assert rule_by_id(rule.id) is rule
            assert rule.title and rule.rationale
        assert rule_by_id("BOGUS99") is None

    def test_single_rule_runs_alone(self):
        rule_id, name, line = self.single
        _, actual = actual_findings(
            [FIXTURE_ROOT / self.family], rule_ids=[rule_id]
        )
        rules = {rule for _, _, rule in actual}
        assert rules <= {rule_id, "LINT000", "LINT001"}
        assert (name, line, rule_id) in actual
        assert self.single_absent not in rules

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS99"):
            analyze([str(FIXTURE_ROOT / self.family)], rule_ids=["BOGUS99"])


class CliContract:
    """``repro check`` command-line behaviour over the family."""

    family = ""

    def test_unknown_rule_exits_two(self):
        code, _, err = run_cli(
            "check", FIXTURE_ROOT / self.family, "--rule", "BOGUS99"
        )
        assert code == 2
        assert "BOGUS99" in err

    def test_list_rules(self):
        code, out, _ = run_cli("check", "--list-rules")
        assert code == 0
        for rule_id in family_ids(self.family):
            assert f"{rule_id}  [{self.family}]" in out


class UnifiedCheckContract:
    """``run_check`` routes a ``--rule`` id of the family to that rule
    alone; bindings set ``routed`` to one id with fixture findings."""

    family = ""
    routed = ""

    def test_rule_filter_routes_to_owning_analyzer(self):
        result = run_check(
            [str(FIXTURE_ROOT / self.family)], rule_ids=[self.routed]
        )
        assert not result.ok
        assert result.rules_run == [self.routed]
        assert {f.rule for f in result.findings} == {self.routed}

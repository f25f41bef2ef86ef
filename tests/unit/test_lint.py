"""Tests for the ``simlint`` rule family of ``repro check``.

The fixture corpus under ``tests/fixtures/lint/`` carries one violation
per rule id, each line marked with a trailing ``# expect: RULE`` comment;
the tests derive the expected finding set from those markers and demand
exact (file, line, rule) agreement — no extra findings, none missing.
"""

import json

import pytest

from repro.analysis.check import FAMILIES, analyze, rule_by_id
from repro.analysis.pragmas import lint_exempt, parse_pragmas
from tests.unit.analyzer_kit import (
    CliContract,
    FIXTURE_ROOT,
    REPO_ROOT,
    actual_findings as _actual_findings,
    assert_family_clean,
    expected_fixture_findings as _expected,
    run_cli_json,
)

FIXTURES = FIXTURE_ROOT / "lint"
SRC_TREE = REPO_ROOT / "src" / "repro"
SOFTIRQ = SRC_TREE / "kernel" / "softirq.py"
LINT_RULES = FAMILIES["lint"]

#: The one serialization call whose removal must wake the race detector.
SERIALIZATION_LINE = "self.raise_net_rx(target_cpu, napi, from_cpu)"


def expected_fixture_findings():
    return _expected(FIXTURES)


def actual_findings(paths, rule_ids=None):
    return _actual_findings(paths, family="lint", rule_ids=rule_ids)


class TestFixtureCorpus:
    def test_exact_findings(self):
        result, actual = actual_findings([FIXTURES])
        assert actual == expected_fixture_findings()
        assert not result.ok

    def test_every_rule_is_exercised(self):
        rules_seen = {rule for _, _, rule in expected_fixture_findings()}
        for rule in LINT_RULES:
            assert rule.id in rules_seen, f"no fixture exercises {rule.id}"
        assert "LINT000" in rules_seen
        assert "LINT001" in rules_seen

    def test_clean_twins_stay_clean(self):
        clean = sorted(FIXTURES.glob("*_clean.py"))
        assert clean, "corpus is missing its clean twins"
        result, actual = actual_findings(clean)
        assert result.ok
        assert actual == set()

    def test_findings_are_deterministic(self):
        first, _ = actual_findings([FIXTURES])
        second, _ = actual_findings([FIXTURES])
        assert first.findings == second.findings


class TestSourceTreeIsClean:
    def test_src_lints_clean(self, src_check):
        # rng.py's Random() and run_all.py's wall clock (the baseline).
        assert_family_clean(src_check, "lint", suppressed=2)


class TestRaceDetectorOnSoftirq:
    """Deleting one serialization call must wake RACE301 (on a copy)."""

    def test_verbatim_copy_is_clean(self, tmp_path):
        copy = tmp_path / "softirq_copy.py"
        copy.write_text(SOFTIRQ.read_text())
        result, _ = actual_findings([copy])
        assert result.ok, result.to_text()

    def test_removing_serialization_fires_race301(self, tmp_path):
        lines = SOFTIRQ.read_text().splitlines(keepends=True)
        stripped = [
            line for line in lines if SERIALIZATION_LINE not in line
        ]
        assert len(stripped) == len(lines) - 1, (
            "expected exactly one serialization call to strip; "
            "softirq.py changed shape"
        )
        broken = tmp_path / "softirq_broken.py"
        broken.write_text("".join(stripped))
        result, _ = actual_findings([broken])
        race = [f for f in result.findings if f.rule == "RACE301"]
        assert len(race) == 1
        assert [f.rule for f in result.findings] == ["RACE301"]
        assert "enqueue_backlog" in race[0].message


class TestRuleSelection:
    def test_single_rule_runs_alone(self):
        result, actual = actual_findings([FIXTURES], rule_ids=["SIM101"])
        rules = {rule for _, _, rule in actual}
        # Meta findings (LINT000/LINT001) are always on.
        assert rules <= {"SIM101", "LINT000", "LINT001"}
        assert ("sim101_bad.py", 7, "SIM101") in actual
        assert not any(rule == "DES201" for _, _, rule in actual)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS99"):
            analyze([str(FIXTURES)], rule_ids=["BOGUS99"])

    def test_rule_by_id_catalogue(self):
        for rule in LINT_RULES:
            assert rule_by_id(rule.id) is rule
            assert rule.title and rule.rationale


class TestReporters:
    def test_text_format(self):
        result, _ = actual_findings([FIXTURES / "sim101_bad.py"])
        text = result.to_text()
        assert "sim101_bad.py:7:" in text
        assert "SIM101" in text
        assert "1 finding" in text

    def test_json_format(self):
        result, _ = actual_findings([FIXTURES / "sim101_bad.py"])
        payload = json.loads(result.to_json())
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"SIM101": 1}
        (finding,) = payload["findings"]
        assert finding["rule"] == "SIM101"
        assert finding["line"] == 7


class TestCli(CliContract):
    family = "lint"

    def test_lint_src_exits_zero(self, src_check):
        code, payload = src_check
        assert code == 0
        assert payload["findings"] == []

    def test_lint_fixtures_exits_one_with_json(self):
        code, payload = run_cli_json("check", FIXTURES)
        assert code == 1
        assert payload["ok"] is False
        assert payload["counts_by_rule"]["RACE301"] == 1


class TestPragmas:
    def test_line_and_file_forms(self):
        pragmas = parse_pragmas(
            "# simlint: disable-file=SIM102\n"
            "x = 1  # simlint: disable=SIM101, DES202\n"
        )
        assert pragmas.suppresses("SIM102", 99)
        assert pragmas.suppresses("SIM101", 2)
        assert pragmas.suppresses("DES202", 2)
        assert not pragmas.suppresses("SIM101", 1)
        assert not pragmas.malformed

    def test_wildcard(self):
        pragmas = parse_pragmas("y = 2  # simlint: disable=all\n")
        assert pragmas.suppresses("RACE301", 1)

    def test_malformed_ids_are_recorded(self):
        pragmas = parse_pragmas("z = 3  # simlint: disable=nope\n")
        assert pragmas.malformed
        assert not pragmas.suppresses("nope", 1)

    def test_string_literals_are_not_pragmas(self):
        pragmas = parse_pragmas('text = "# simlint: disable=SIM101"\n')
        assert not pragmas.suppresses("SIM101", 1)
        assert not pragmas.malformed

    def test_lint_exempt_requires_reason(self):
        with pytest.raises(TypeError):
            lint_exempt("SIM101")  # reason is keyword-only

        with pytest.raises(ValueError):
            lint_exempt("SIM101", reason="   ")

        with pytest.raises(ValueError):
            lint_exempt("lowercase", reason="bad id shape")

    def test_lint_exempt_marks_function(self):
        @lint_exempt("SIM101", reason="test fixture")
        def helper():
            return 0

        assert helper.__simlint_exempt__ == ("SIM101",)
        assert helper() == 0


class TestPragmaBinding:
    """A standalone ``# simlint: disable=`` comment binds to the next
    statement instead of silently suppressing nothing (regression tests
    for the blank/comment-line binding fix)."""

    def test_standalone_pragma_binds_to_next_statement(self):
        pragmas = parse_pragmas(
            "# simlint: disable=SIM101\n"
            "x = 1\n"
        )
        assert pragmas.suppresses("SIM101", 2)
        assert not pragmas.suppresses("SIM101", 1)
        assert not pragmas.malformed

    def test_pragma_skips_blank_and_comment_lines(self):
        pragmas = parse_pragmas(
            "# simlint: disable=DES202\n"
            "\n"
            "# an unrelated comment\n"
            "y = 2\n"
        )
        assert pragmas.suppresses("DES202", 4)
        assert not pragmas.suppresses("DES202", 2)
        assert not pragmas.suppresses("DES202", 3)

    def test_stacked_standalone_pragmas_accumulate(self):
        pragmas = parse_pragmas(
            "# simlint: disable=SIM101\n"
            "# simlint: disable=SIM102\n"
            "z = 3\n"
        )
        assert pragmas.suppresses("SIM101", 3)
        assert pragmas.suppresses("SIM102", 3)

    def test_trailing_pragma_still_binds_to_its_own_line(self):
        pragmas = parse_pragmas("w = 4  # simlint: disable=SIM101\n")
        assert pragmas.suppresses("SIM101", 1)
        assert not pragmas.suppresses("SIM101", 2)

    def test_pragma_at_eof_is_malformed(self):
        pragmas = parse_pragmas(
            "v = 5\n"
            "# simlint: disable=SIM101\n"
        )
        assert not pragmas.suppresses("SIM101", 1)
        assert not pragmas.suppresses("SIM101", 2)
        assert len(pragmas.malformed) == 1
        assert "no code follows" in pragmas.malformed[0][1]

    def test_standalone_pragma_suppresses_through_the_runner(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            "import random\n"
            "# simlint: disable=SIM102\n"
            "x = random.random()\n"
        )
        result, _ = actual_findings([src])
        assert result.ok, result.to_text()
        assert [f.rule for f in result.suppressed] == ["SIM102"]

    def test_eof_pragma_is_reported_by_the_runner(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("x = 1\n# simlint: disable=SIM101\n")
        result, _ = actual_findings([src])
        assert [f.rule for f in result.findings] == ["LINT000"]

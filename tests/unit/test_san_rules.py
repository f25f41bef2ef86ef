"""Tests for the ``simsan`` ownership/lifetime family of ``repro check``.

Mirrors the simlint/simflow/simorder fixture discipline: every seeded
violation in ``tests/fixtures/san/`` carries a trailing ``# expect:
RULE`` marker and the tests demand exact (file, line, rule) agreement —
no extra findings, none missing. The clean twins (which deliberately
mirror the real engine/GRO/FlowTable idioms) and the whole in-tree
source must produce zero findings, which is the pass's false-positive
budget.
"""

from repro.analysis.check import run_check
from repro.analysis.san.sancheck import san_cross_check
from tests.unit.analyzer_kit import (
    CliContract,
    FIXTURE_ROOT,
    RuleCatalogueContract,
    UnifiedCheckContract,
    actual_findings as _actual_findings,
    assert_family_clean,
    expected_fixture_findings as _expected,
    family_ids,
    family_of,
    run_cli_json,
)

FIXTURES = FIXTURE_ROOT / "san"
SAN_RULE_IDS = tuple(family_ids("san"))


def expected_fixture_findings():
    return _expected(FIXTURES)


def actual_findings(paths, rule_ids=None):
    return _actual_findings(paths, family="san", rule_ids=rule_ids)


class TestFixtureCorpus:
    def test_exact_findings(self):
        result, actual = actual_findings([FIXTURES])
        assert actual == expected_fixture_findings()
        assert not result.ok

    def test_every_san_rule_is_exercised(self):
        rules_seen = {rule for _, _, rule in expected_fixture_findings()}
        for rule_id in SAN_RULE_IDS:
            assert rule_id in rules_seen, f"no fixture exercises {rule_id}"

    def test_clean_twins_stay_clean(self):
        clean = sorted(FIXTURES.glob("*_clean.py"))
        assert clean, "corpus is missing its clean twins"
        result, actual = actual_findings(clean)
        assert result.ok, result.to_text()
        assert actual == set()

    def test_findings_are_deterministic(self):
        first, _ = actual_findings([FIXTURES])
        second, _ = actual_findings([FIXTURES])
        assert first.findings == second.findings


class TestSourceTreeIsClean:
    """Zero in-tree findings is the false-positive budget of the pass.

    The shard wire codec, GRO and the flowcache satisfy every OWN rule
    with an **empty** baseline — no pragmas, no suppressions (see
    test_findings_baseline.py).
    """

    def test_src_owns_clean(self, src_check):
        assert_family_clean(src_check, "san")


class TestRuleCatalogue(RuleCatalogueContract):
    family = "san"
    rule_ids = tuple(f"OWN6{group}{n}" for group in "12" for n in "123")
    single = ("OWN621", "own62x_bad.py", 17)
    single_absent = "OWN622"


class TestOwnershipSemantics:
    """The path-sensitivity the corpus README calls out: retention is
    tracked per path, so store-XOR-forward is legal and
    store-AND-forward is not."""

    def test_store_xor_forward_stays_silent(self, tmp_path):
        # GRO's shape: held on one path, returned on the disjoint other.
        copy = tmp_path / "gro_shape.py"
        copy.write_text(
            "def feed(self, skb):\n"
            "    if self._mergeable(skb):\n"
            "        self.held.append(skb)\n"
            "        return None\n"
            "    return skb\n"
        )
        result, _ = actual_findings([copy])
        assert result.ok, result.to_text()

    def test_store_and_forward_is_flagged(self, tmp_path):
        copy = tmp_path / "retained.py"
        copy.write_text(
            "def feed(self, skb):\n"
            "    self.held.append(skb)\n"
            "    return skb\n"
        )
        _, actual = actual_findings([copy])
        assert ("retained.py", 3, "OWN612") in actual


class TestPragmaSuppression:
    """Ownership findings honour the shared simlint pragma machinery."""

    def test_disable_pragma_suppresses_san_finding(self, tmp_path):
        src = (FIXTURES / "own62x_bad.py").read_text()
        patched = src.replace(
            "self._entries.pop(key, None)  # expect: OWN621",
            "self._entries.pop(key, None)  # simlint: disable=OWN621",
        )
        assert patched != src
        copy = tmp_path / "suppressed.py"
        copy.write_text(patched)
        result, actual = actual_findings([copy])
        assert ("suppressed.py", 17, "OWN621") not in actual
        assert [f.rule for f in result.suppressed] == ["OWN621"]
        assert result.suppressed[0].line == 17

    def test_san_ids_are_known_to_lint_meta_rules(self, tmp_path):

        copy = tmp_path / "cross.py"
        copy.write_text("x = 1  # simlint: disable=OWN611\n")
        result, _ = _actual_findings([copy], family="lint")
        assert result.ok, result.to_text()


class TestStaticDynamicCrossCheck:
    """Every site tag the runtime ledger reports must be in the static
    catalog — a tag the scan cannot find means an instrumentation call
    built its site string at runtime."""

    def test_probe_exercises_known_sites_only(self):
        check = san_cross_check()
        assert check.ok, check.to_text()
        # The probe exercises every static site, and the catalog is
        # exactly the instrumented set: a site added or lost fails here.
        sites = {
            "engine.fired",
            "engine.schedule",
            "heap.compact",
            "heap.discard",
            "flowtable.evict",
            "flowtable.insert",
            "flowtable.invalidate",
            "flowtable.invalidate_all",
            "flowtable.invalidate_ip",
            "outbox.emit",
            "world.inject",
        }
        assert len(sites) == 11
        assert set(check.facts["static_sites"]) == sites
        assert set(check.facts["dynamic_sites"]) == sites
        assert check.facts["unexercised"] == []

    def test_unknown_dynamic_site_fails(self):
        check = san_cross_check(dynamic_sites=["engine.schedule", "bogus.site"])
        assert not check.ok
        assert check.facts["unknown"] == ["bogus.site"]
        assert any("bogus.site" in error for error in check.errors)
        assert "bogus.site" in check.to_text()

    def test_unexercised_is_informational(self):
        check = san_cross_check(dynamic_sites=["engine.schedule"])
        assert check.ok
        assert "heap.discard" in check.facts["unexercised"]


class TestUnifiedCheck(UnifiedCheckContract):
    """`repro check` runs the san rules alongside the other families."""

    family = "san"
    routed = "OWN621"

    def test_fixture_run_fails_san_only(self):
        result = run_check([str(FIXTURES)])
        assert not result.ok
        assert {family_of(f.rule) for f in result.findings} == {"san"}


class TestCli(CliContract):
    family = "san"

    def test_san_src_exits_zero(self, src_check):
        code, payload = src_check
        assert code == 0
        assert payload["findings"] == []

    def test_san_fixtures_exits_one_with_json(self):
        code, payload = run_cli_json("check", FIXTURES)
        assert code == 1
        assert payload["ok"] is False
        assert payload["counts_by_rule"]["OWN621"] == 2
        assert payload["counts_by_rule"]["OWN611"] == 4

    def test_trace_exits_zero(self, trace_check):
        code, out = trace_check
        assert code == 0
        assert "static sites" in out
        assert "sanitizer site cross-check OK" in out

    def test_check_src_includes_san_step(self, src_check):
        code, payload = src_check
        assert code == 0
        assert payload["ok"] is True
        assert set(SAN_RULE_IDS) <= set(payload["rules_run"])

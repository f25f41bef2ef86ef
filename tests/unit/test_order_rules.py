"""Tests for the ``simorder`` ordering/causality family of ``repro check``.

Mirrors the simlint/simflow fixture discipline: every seeded violation
in ``tests/fixtures/order/`` carries a trailing ``# expect: RULE``
marker and the tests demand exact (file, line, rule) agreement — no
extra findings, none missing. The clean twins (which deliberately
mirror the real shard/flowcache idioms) and the whole in-tree source
must produce zero findings, which is the pass's false-positive budget.
"""

import json

import pytest

from repro.analysis.check import run_check
from repro.analysis.order.ordercheck import order_cross_check
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
    run_cli,
    run_cli_json,
)

FIXTURES = FIXTURE_ROOT / "order"
ORDER_RULE_IDS = tuple(family_ids("order"))


def expected_fixture_findings():
    return _expected(FIXTURES)


def actual_findings(paths, rule_ids=None):
    return _actual_findings(paths, family="order", rule_ids=rule_ids)


class TestFixtureCorpus:
    def test_exact_findings(self):
        result, actual = actual_findings([FIXTURES])
        assert actual == expected_fixture_findings()
        assert not result.ok

    def test_every_order_rule_is_exercised(self):
        rules_seen = {rule for _, _, rule in expected_fixture_findings()}
        for rule_id in ORDER_RULE_IDS:
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

    This is also the PR's acceptance bar: the real shard engine and
    flowcache must satisfy every ORD rule with an **empty** baseline —
    no pragmas, no suppressions (see test_findings_baseline.py).
    """

    def test_src_orders_clean(self, src_check):
        assert_family_clean(src_check, "order")


class TestRuleCatalogue(RuleCatalogueContract):
    family = "order"
    rule_ids = tuple(f"ORD5{group}{n}" for group in "012" for n in "123")
    single = ("ORD511", "ord51x_bad.py", 16)
    single_absent = "ORD501"


class TestMustAnalysisSemantics:
    """ORD511's bound proof is a must-analysis: intersection join."""

    def test_one_branch_bound_is_not_enough(self, tmp_path):
        copy = tmp_path / "one_branch.py"
        copy.write_text(
            "def publish(self, flag, src):\n"
            "    if flag:\n"
            "        when = self.sim.now + self.propagation_us\n"
            "    else:\n"
            "        when = self.sim.now\n"
            "    self.outbox.emit(when, 'credit', src, ())\n"
        )
        _, actual = actual_findings([copy])
        assert ("one_branch.py", 6, "ORD511") in actual

    def test_rebinding_kills_the_bound(self, tmp_path):
        copy = tmp_path / "rebound.py"
        copy.write_text(
            "def publish(self, src):\n"
            "    when = self.sim.now + self.propagation_us\n"
            "    when = self.sim.now\n"
            "    self.outbox.emit(when, 'credit', src, ())\n"
        )
        _, actual = actual_findings([copy])
        assert ("rebound.py", 4, "ORD511") in actual

    def test_both_branches_bound_stays_quiet(self, tmp_path):
        copy = tmp_path / "both.py"
        copy.write_text(
            "def publish(self, flag, src):\n"
            "    if flag:\n"
            "        when = self.link.reserve(64)\n"
            "    else:\n"
            "        when = self.sim.now + self.propagation_us\n"
            "    self.outbox.emit(when, 'credit', src, ())\n"
        )
        result, _ = actual_findings([copy])
        assert result.ok, result.to_text()


class TestPragmaSuppression:
    """Order findings honour the shared simlint pragma machinery."""

    def test_disable_pragma_suppresses_order_finding(self, tmp_path):
        src = (FIXTURES / "ord51x_bad.py").read_text()
        patched = src.replace(
            "# expect: ORD511", "# simlint: disable=ORD511"
        )
        assert patched != src
        copy = tmp_path / "suppressed.py"
        copy.write_text(patched)
        result, actual = actual_findings([copy])
        assert {rule for _, _, rule in actual} == {"ORD512", "ORD513"}
        assert len(result.suppressed) == 2
        assert {f.rule for f in result.suppressed} == {"ORD511"}

    def test_order_ids_are_known_to_lint_meta_rules(self, tmp_path):
        # LINT001 (unknown rule id in pragma) must not fire for order ids
        # used from the lint pass, and vice versa.
        copy = tmp_path / "cross.py"
        copy.write_text("x = 1  # simlint: disable=ORD521\n")
        result, _ = _actual_findings([copy], family="lint")
        assert result.ok, result.to_text()


class TestOrderCrossCheck:
    """Static↔dynamic: golden traces replayed against the ordering model."""

    def test_shipped_goldens_hold_the_ordering_model(self):
        check = order_cross_check()
        assert check.ok, check.to_text()
        assert check.facts["flows_checked"] > 0
        assert check.facts["deliveries_checked"] > check.facts["flows_checked"]
        # The oncache goldens exercise the cached datapath.
        assert check.facts["fastpath_edges_observed"]

    def test_reordered_delivery_is_detected(self, tmp_path):
        golden = tmp_path / "reordered.json"
        golden.write_text(json.dumps({
            "traces": [
                {"flow": 7, "msg": 0,
                 "events": [[10.0, "deliver", "container", 2]]},
                {"flow": 7, "msg": 1,
                 "events": [[5.0, "deliver", "container", 2]]},
            ],
        }))
        check = order_cross_check([str(golden)])
        assert not check.ok
        (violation,) = check.facts["delivery_order_violations"]
        assert (
            violation["flow"], violation["earlier_msg"], violation["later_msg"]
        ) == (7, 0, 1)
        assert violation["later_time_us"] < violation["earlier_time_us"]

    def test_unknown_fastpath_edge_is_detected(self, tmp_path):
        golden = tmp_path / "wired.json"
        golden.write_text(json.dumps({
            "traces": [
                {"flow": 0, "msg": 0,
                 "events": [
                     [1.0, "exec", "socket", 0],
                     [2.0, "exec", "fastpath", 0],
                 ]},
            ],
        }))
        check = order_cross_check([str(golden)])
        assert not check.ok
        assert "socket->fastpath" in check.facts[
            "fastpath_edges_unknown_to_static_graph"
        ]

    def test_json_schema(self, tmp_path):
        check = order_cross_check()
        payload = json.loads(check.to_json())
        for key in (
            "ok",
            "trace_files",
            "flows_checked",
            "deliveries_checked",
            "delivery_order_violations",
            "fastpath_edges_observed",
            "fastpath_edges_unknown_to_static_graph",
            "fastpath_edges_unobserved",
        ):
            assert key in payload
        assert payload["ok"] is True


class TestUnifiedCheck(UnifiedCheckContract):
    """`repro check` runs every rule family in one pass."""

    family = "order"
    routed = "ORD521"

    def test_fixture_run_fails_order_only(self):
        result = run_check([str(FIXTURES)])
        assert not result.ok
        families = {family_of(f.rule) for f in result.findings}
        assert "order" in families
        assert "flow" not in families
        # mypy is optional in this environment: ok or skipped, never
        # silently absent.
        assert result.mypy is not None
        assert result.mypy.ok or not result.mypy.skipped

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS99"):
            run_check([str(FIXTURES)], rule_ids=["BOGUS99"])

    def test_json_schema(self):
        payload = json.loads(run_check([str(FIXTURES)]).to_json())
        assert payload["ok"] is False
        assert set(payload) == {
            "ok", "files_checked", "rules_run", "counts_by_rule",
            "findings", "suppressed", "baseline_errors", "mypy",
        }
        assert set(payload["mypy"]) == {"ok", "skipped", "summary"}
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "message"}


class TestCli(CliContract):
    family = "order"

    def test_order_src_exits_zero(self, src_check):
        code, payload = src_check
        assert code == 0
        assert payload["findings"] == []

    def test_order_fixtures_exits_one_with_json(self):
        code, payload = run_cli_json("check", FIXTURES)
        assert code == 1
        assert payload["ok"] is False
        assert payload["counts_by_rule"]["ORD511"] == 2
        assert payload["counts_by_rule"]["ORD502"] == 2

    def test_trace_exits_zero_on_shipped_goldens(self, trace_check):
        code, out = trace_check
        assert code == 0
        assert "ordering cross-check OK" in out

    def test_trace_exits_one_on_reordered_golden(self, tmp_path):
        golden = tmp_path / "reordered.json"
        golden.write_text(json.dumps({
            "traces": [
                {"flow": 0, "msg": 0,
                 "events": [[9.0, "deliver", "container", 1]]},
                {"flow": 0, "msg": 1,
                 "events": [[3.0, "deliver", "container", 1]]},
            ],
        }))
        code, payload = run_cli_json("check", "--trace", golden)
        assert code == 1
        assert payload["ok"] is False
        ordering = payload["checks"][1]
        assert ordering["name"] == "ordering cross-check"
        assert len(ordering["delivery_order_violations"]) == 1

    def test_check_fixtures_exits_one(self):
        code, out, _ = run_cli("check", FIXTURES)
        assert code == 1
        assert "check FAILED" in out

    def test_check_src_exits_zero_with_json(self, src_check):
        code, payload = src_check
        assert code == 0
        assert payload["ok"] is True

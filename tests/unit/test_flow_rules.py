"""Tests for the ``simflow`` dataflow/typestate family of ``repro check``.

Mirrors the simlint fixture discipline: every seeded violation in
``tests/fixtures/flow/`` carries a trailing ``# expect: RULE`` marker and
the tests demand exact (file, line, rule) agreement — no extra findings,
none missing. The clean twins and the whole in-tree source must produce
zero findings, which is the pass's false-positive budget.
"""

import json

from repro.analysis.flow.stagespec import (
    ALLOC,
    DROP_OPS,
    ENQUEUE_OPS,
    FREE,
    HARDIRQ,
    SOCKET,
    stage_order_spec,
)
from repro.cli import main
from tests.unit.analyzer_kit import (
    CliContract,
    FIXTURE_ROOT,
    REPO_ROOT,
    RuleCatalogueContract,
    actual_findings as _actual_findings,
    assert_family_clean,
    expected_fixture_findings as _expected,
    family_ids,
    run_cli_json,
)

FIXTURES = FIXTURE_ROOT / "flow"
FLOW_RULE_IDS = tuple(family_ids("flow"))


def expected_fixture_findings():
    return _expected(FIXTURES)


def actual_findings(paths, rule_ids=None):
    return _actual_findings(paths, family="flow", rule_ids=rule_ids)


class TestFixtureCorpus:
    def test_exact_findings(self):
        result, actual = actual_findings([FIXTURES])
        assert actual == expected_fixture_findings()
        assert not result.ok

    def test_every_flow_rule_is_exercised(self):
        rules_seen = {rule for _, _, rule in expected_fixture_findings()}
        for rule_id in FLOW_RULE_IDS:
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
    """Zero in-tree findings is the false-positive budget of the pass."""

    def test_src_flows_clean(self, src_check):
        assert_family_clean(src_check, "flow")

    def test_tests_tree_flows_clean(self):
        # Unit tests manipulate skbs and microsecond timestamps freely;
        # the must-analysis design has to keep quiet there too.
        result, _ = actual_findings([REPO_ROOT / "tests" / "unit"])
        assert result.ok, result.to_text()


class TestRuleCatalogue(RuleCatalogueContract):
    family = "flow"
    rule_ids = (
        "FLOW401", "FLOW402", "FLOW403", "FLOW404", "TIME501", "TIME502",
    )
    single = ("FLOW403", "flow403_bad.py", 6)
    single_absent = "TIME501"


class TestPragmaSuppression:
    """Flow findings honour the shared simlint pragma machinery."""

    def test_disable_pragma_suppresses_flow_finding(self, tmp_path):
        src = (FIXTURES / "flow403_bad.py").read_text()
        patched = src.replace(
            "# expect: FLOW403", "# simlint: disable=FLOW403"
        )
        assert patched != src
        copy = tmp_path / "suppressed.py"
        copy.write_text(patched)
        result, actual = actual_findings([copy])
        assert result.ok, result.to_text()
        assert len(result.suppressed) == 2
        assert {f.rule for f in result.suppressed} == {"FLOW403"}

    def test_flow_ids_are_known_to_lint_meta_rules(self, tmp_path):
        # LINT001 (unknown rule id in pragma) must not fire for flow ids
        # used from the lint pass, and vice versa.
        copy = tmp_path / "cross.py"
        copy.write_text("x = 1  # simlint: disable=FLOW402\n")
        result, _ = _actual_findings([copy], family="lint")
        assert result.ok, result.to_text()


class TestDerivedStageSpec:
    """The stage-order spec is derived from live Stage/Transition objects,
    never hand-coded — these tests pin the derived shape to the shipped
    stack topology."""

    def test_ranks_follow_pipeline_order(self):
        spec = stage_order_spec()
        rank = spec.stage_rank
        assert rank[ALLOC] == 0
        assert rank[ALLOC] < rank[HARDIRQ] < rank["pnic"]
        assert rank["pnic"] < rank["hoststack_outer"] < rank["vxlan"]
        assert rank["vxlan"] < rank["container"] < rank[SOCKET] < rank[FREE]
        # Host mode delivers straight from its host stack.
        assert rank["hoststack"] < rank[SOCKET]
        # The fast-path stage sits between the driver and the container
        # tail; the cache-hit skip is forward motion, never a violation.
        assert rank["pnic"] < rank["fastpath"] < rank["container"]

    def test_edges_come_from_live_transitions(self):
        spec = stage_order_spec()
        # EnqueueTransition hops present in every shipped config.
        assert ("hoststack_outer", "vxlan") in spec.edges
        assert ("vxlan", "container") in spec.edges
        # SocketDeliver contributes the terminal edges.
        assert ("container", SOCKET) in spec.edges
        assert ("hoststack", SOCKET) in spec.edges
        # The flow-cache fork: both sides of FastPathTransition appear.
        assert ("pnic", "fastpath") in spec.edges
        assert ("pnic_gro", "fastpath") in spec.edges
        assert ("fastpath", "container") in spec.edges
        assert ("pnic", "hoststack_outer") in spec.edges  # the miss edge
        # Synthetic envelope.
        assert (ALLOC, HARDIRQ) in spec.edges
        assert (SOCKET, FREE) in spec.edges

    def test_ops_are_harvested_from_step_objects(self):
        spec = stage_order_spec()
        # Step names collected from the live stacks, with the rank of
        # every stage that contains them.
        assert "vxlan_rcv" in spec.ops
        assert spec.ops["vxlan_rcv"].ranks == {spec.stage_rank["hoststack_outer"]}
        assert "br_handle_frame" in spec.ops
        assert spec.ops["br_handle_frame"].ranks == {spec.stage_rank["vxlan"]}
        # netif_rx is reused by several stages — it carries all their ranks.
        assert len(spec.ops["netif_rx"].ranks) >= 2
        # The enqueue/drop primitives are positioned, not hand-ranked.
        for name in ENQUEUE_OPS:
            assert spec.ops[name].ranks, name
        for name in DROP_OPS:
            assert spec.ops[name].ranks == {spec.freed_rank}

    def test_spec_is_cached(self):
        assert stage_order_spec() is stage_order_spec()

    def test_describe_is_json_ready(self):
        payload = json.loads(json.dumps(stage_order_spec().describe()))
        assert "stages" in payload and "edges" in payload and "ops" in payload
        assert payload["stages"]["alloc"] == 0
        assert "alloc->hardirq" in payload["edges"]


class TestInterproceduralSummaries:
    """FLOW402/403 see through helper calls via function summaries."""

    def test_helper_that_delivers_poisons_caller(self):
        result, actual = actual_findings([FIXTURES / "flow402_bad.py"])
        # Line 17 re-enqueues after calling a helper that delivered.
        assert ("flow402_bad.py", 17, "FLOW402") in actual

    def test_branch_join_is_must_not_may(self, tmp_path):
        # Freed on only ONE branch -> joined state is {freed, rank} ->
        # a must-analysis stays quiet. This is the zero-false-positive
        # guarantee on real code with conditional frees.
        copy = tmp_path / "maybe.py"
        copy.write_text(
            "def maybe(skb, stack, flag):\n"
            "    if flag:\n"
            "        stack.consume_skb(skb)\n"
            "    else:\n"
            "        stack.ip_rcv(skb)\n"
            "    stack.l4_rcv(skb)\n"
        )
        result, actual = actual_findings([copy])
        assert result.ok, result.to_text()

    def test_both_branches_freed_fires(self, tmp_path):
        copy = tmp_path / "both.py"
        copy.write_text(
            "def both(skb, stack, flag):\n"
            "    if flag:\n"
            "        stack.consume_skb(skb)\n"
            "    else:\n"
            "        stack.free_skb(skb)\n"
            "    stack.l4_rcv(skb)\n"
        )
        _, actual = actual_findings([copy])
        assert ("both.py", 6, "FLOW403") in actual


class TestCli(CliContract):
    family = "flow"

    def test_flow_src_exits_zero(self, src_check):
        code, payload = src_check
        assert code == 0
        assert payload["findings"] == []

    def test_flow_fixtures_exits_one_with_json(self):
        code, payload = run_cli_json("check", FIXTURES)
        assert code == 1
        assert payload["ok"] is False
        assert payload["counts_by_rule"]["FLOW401"] == 3

    def test_dump_spec(self, capsys):
        assert main(["check", "--dump-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stages"]["alloc"] == 0
        assert "alloc->hardirq" in payload["edges"]

    def test_json_reporter_includes_suppressed(self, tmp_path):
        copy = tmp_path / "supp.py"
        copy.write_text(
            "def f(skb, stack):\n"
            "    stack.consume_skb(skb)\n"
            "    stack.netif_rx(skb)  # simlint: disable=FLOW403\n"
        )
        code, payload = run_cli_json("check", copy)
        assert code == 0
        assert payload["ok"] is True
        assert [
            (s["path"], s["line"], s["rule"]) for s in payload["suppressed"]
        ] == [(str(copy), 3, "FLOW403")]

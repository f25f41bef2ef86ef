"""Tests for the static↔dynamic stage-edge cross-check (``repro check --trace``)."""

import json
from pathlib import Path

from repro.analysis.flow.crosscheck import (
    _single_packet,
    _trace_edges,
    cross_check,
    default_trace_dir,
)
from tests.unit.analyzer_kit import run_cli, run_cli_json


def make_trace_file(tmp_path, events_lists, name="synthetic.json"):
    doc = {
        "traces": [
            {"flow_id": i, "msg_id": 0, "events": events}
            for i, events in enumerate(events_lists)
        ]
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestHelpers:
    def test_single_packet_accepts_unique_stage_visits(self):
        events = [
            [1.0, "enqueue", "pnic", 0],
            [2.0, "exec", "pnic", 0],
            [3.0, "deliver", "socket", 0],
        ]
        assert _single_packet(events)

    def test_single_packet_rejects_repeated_pairs(self):
        events = [
            [1.0, "exec", "pnic", 0],
            [2.0, "exec", "pnic", 1],  # second packet's pnic pass
        ]
        assert not _single_packet(events)

    def test_trace_edges_from_exec_chain(self):
        events = [
            [1.0, "exec", "pnic", 0],
            [2.0, "exec", "hoststack_outer", 1],
            [3.0, "deliver", "socket", 1],
        ]
        assert _trace_edges(events) == {
            ("pnic", "hoststack_outer"),
            ("hoststack_outer", "socket"),
        }

    def test_enqueue_witnesses_edge_without_moving(self):
        # enqueue names the *target* before the hop executes; the edge is
        # witnessed once, not duplicated when exec follows.
        events = [
            [1.0, "exec", "pnic", 0],
            [2.0, "enqueue", "hoststack_outer", 0],
            [3.0, "exec", "hoststack_outer", 2],
        ]
        assert _trace_edges(events) == {("pnic", "hoststack_outer")}

    def test_events_are_time_sorted_before_replay(self):
        events = [
            [3.0, "deliver", "socket", 1],
            [1.0, "exec", "pnic", 0],
            [2.0, "exec", "hoststack", 0],
        ]
        assert _trace_edges(events) == {
            ("pnic", "hoststack"),
            ("hoststack", "socket"),
        }


class TestCrossCheck:
    def test_golden_traces_match_static_graph(self):
        result = cross_check()
        assert result.ok, result.to_text()
        assert result.facts["traces_replayed"] > 0
        assert result.facts["missing_from_static_graph"] == []
        # Every observed edge is a real static edge.
        assert result.facts["observed_edges"]

    def test_default_trace_dir_exists(self):
        golden_dir = Path(default_trace_dir())
        assert golden_dir.is_dir()
        assert list(golden_dir.glob("*.json"))

    def test_bogus_runtime_edge_is_an_error(self, tmp_path):
        # A trace claiming the packet went socket -> pnic (backwards)
        # must be reported as missing from the static graph.
        path = make_trace_file(
            tmp_path,
            [[
                [1.0, "deliver", "socket", 0],
                [2.0, "exec", "pnic", 0],
            ]],
        )
        result = cross_check([str(path)])
        assert not result.ok
        assert "socket->pnic" in result.facts["missing_from_static_graph"]
        assert "ERROR" in result.to_text()
        payload = json.loads(result.to_json())
        assert payload["ok"] is False
        assert "socket->pnic" in payload["missing_from_static_graph"]

    def test_multi_packet_traces_are_skipped(self, tmp_path):
        path = make_trace_file(
            tmp_path,
            [[
                [1.0, "exec", "pnic", 0],
                [2.0, "exec", "pnic", 1],
                [3.0, "exec", "socket", 0],  # would be a bogus edge
            ]],
        )
        result = cross_check([str(path)])
        assert result.facts["traces_skipped_multi_packet"] == 1
        assert result.facts["traces_replayed"] == 0
        assert result.ok

    def test_unobserved_static_edges_are_warnings_not_errors(self, tmp_path):
        path = make_trace_file(
            tmp_path,
            [[
                [1.0, "exec", "pnic", 0],
                [2.0, "exec", "hoststack_outer", 1],
            ]],
        )
        result = cross_check([str(path)])
        assert result.ok
        assert result.warnings  # most static edges unexercised
        assert result.facts["static_edges_unobserved"]
        assert "warning" in result.to_text()


class TestCli:
    def test_trace_default_goldens_exit_zero(self, trace_check):
        code, out = trace_check
        assert code == 0
        assert "stage-edge cross-check OK" in out

    def test_trace_bad_file_exits_one(self, tmp_path):
        path = make_trace_file(
            tmp_path,
            [[
                [1.0, "deliver", "socket", 0],
                [2.0, "exec", "pnic", 0],
            ]],
        )
        code, out, _ = run_cli("check", "--trace", path)
        assert code == 1
        assert "stage-edge cross-check FAILED" in out

    def test_trace_json_format(self):
        code, payload = run_cli_json("check", "--trace")
        assert code == 0
        assert payload["ok"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "stage-edge cross-check",
            "ordering cross-check",
            "sanitizer site cross-check",
        ]
        for entry in payload["checks"]:
            assert entry["ok"] is True and entry["errors"] == []
        stage_edges = payload["checks"][0]
        assert stage_edges["traces_replayed"] > 0

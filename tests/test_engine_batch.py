"""Tests for the JSONL batch protocol, the ordered single-worker serve loop
and the CLI front end."""

import io
import json

import pytest

from repro.engine.server import QueryServer, run_batch_lines, serve_stdio


def serve(stdin, stdout):
    """One request at a time, answered in input order."""
    with QueryServer(workers=1) as server:
        return serve_stdio(stdin, stdout, server, ordered=True)


def record(**fields):
    return json.dumps(fields)


class TestBatchRoundTrip:
    def test_mixed_ops_round_trip(self):
        lines = [
            record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)"),
            record(op="norm", theory="bitvec", term="(flip a)*; a = T"),
            record(op="sat", pred="x > 3; ~(x > 5)"),
            record(op="empty", term="x > 3; ~(x > 3)"),
            record(op="leq", left="inc(x)", right="inc(x) + x > 1"),
        ]
        responses, _ = run_batch_lines(lines)
        assert len(responses) == 5
        assert all(r["ok"] for r in responses)
        assert responses[0]["result"]["equivalent"] is True
        assert responses[1]["result"]["summands"] >= 1
        assert responses[2]["result"]["satisfiable"] is True
        assert responses[3]["result"]["empty"] is True
        assert responses[4]["result"]["leq"] is True

    def test_order_preserved_and_ids_echoed(self):
        lines = [
            record(op="sat", pred="x > 1", id="first"),
            record(op="sat", pred="x > 2"),
            record(op="sat", theory="bitvec", pred="a = T", id=99),
        ]
        responses, _ = run_batch_lines(lines)
        assert [r["id"] for r in responses] == ["first", 1, 99]

    def test_blank_and_comment_lines_skipped(self):
        lines = ["", "   ", "# comment", record(op="sat", pred="x > 1")]
        responses, _ = run_batch_lines(lines)
        assert len(responses) == 1

    def test_inequivalence_carries_counterexample(self):
        responses, _ = run_batch_lines([record(op="equiv", left="x > 1", right="x > 2")])
        assert responses[0]["ok"]
        assert responses[0]["result"]["equivalent"] is False
        assert "distinguishing word" in responses[0]["result"]["counterexample"]


class TestErrorRecords:
    def test_malformed_json_is_an_error_record(self):
        lines = [
            record(op="sat", pred="x > 1"),
            "this is { not json",
            record(op="sat", pred="x > 2"),
        ]
        responses, _ = run_batch_lines(lines)
        assert len(responses) == 3
        assert responses[0]["ok"] and responses[2]["ok"]
        assert responses[1]["ok"] is False
        assert "malformed" in responses[1]["error"]

    def test_unknown_op(self):
        responses, _ = run_batch_lines([record(op="frobnicate", term="inc(x)")])
        assert responses[0]["ok"] is False
        assert "unknown op" in responses[0]["error"]

    def test_missing_field(self):
        responses, _ = run_batch_lines([record(op="equiv", left="inc(x)")])
        assert responses[0]["ok"] is False
        assert "missing field" in responses[0]["error"]

    def test_unknown_theory(self):
        responses, _ = run_batch_lines([record(op="sat", theory="quantum", pred="x > 1")])
        assert responses[0]["ok"] is False
        assert "unknown theory" in responses[0]["error"]

    def test_parse_error_is_per_record(self):
        lines = [
            record(op="sat", pred="x > !!!"),
            record(op="sat", pred="x > 1"),
        ]
        responses, _ = run_batch_lines(lines)
        assert responses[0]["ok"] is False
        assert responses[1]["ok"] is True


class TestSessionAffinityAndCaching:
    def test_duplicate_queries_are_not_renormalized(self):
        base = [
            record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)"),
            record(op="norm", term="inc(x)*; x > 2"),
            record(op="sat", pred="x > 3; ~(x > 5)"),
            record(op="empty", term="x > 3; ~(x > 3)"),
        ]
        lines = base * 30  # 120 queries, heavy duplication
        responses, pool = run_batch_lines(lines)
        assert len(responses) == 120
        assert all(r["ok"] for r in responses)
        stats = pool.session("incnat").stats()
        norm = stats["tables"]["norm"]
        # Every duplicate term hit the normal-form cache instead of pushback.
        assert norm["hits"] > norm["misses"]
        assert stats["tables"]["equiv"]["hits"] > 0

    def test_multi_theory_batch_uses_one_session_each(self):
        lines = [
            record(op="sat", theory="incnat", pred="x > 1"),
            record(op="sat", theory="bitvec", pred="a = T"),
            record(op="sat", theory="incnat", pred="x > 2"),
            record(op="sat", theory="bitvec", pred="a = T; ~(a = T)"),
        ]
        responses, pool = run_batch_lines(lines)
        assert [r["theory"] for r in responses] == ["incnat", "bitvec", "incnat", "bitvec"]
        assert pool.theories() == ["bitvec", "incnat"]

    def test_returned_pool_holds_the_batch_sessions(self):
        line = record(op="norm", term="inc(x)*; x > 1")
        _, pool = run_batch_lines([line, line])
        assert pool.stripes == 1
        assert pool.session("incnat").caches.norm.stats.hits >= 1

    JOBS_LINES = [
        record(op="equiv", theory="incnat", left="inc(x); x > 1", right="x > 0; inc(x)"),
        record(op="equiv", theory="bitvec", left="a := T; a = T", right="a := T"),
        record(op="sat", theory="incnat", pred="x > 5; ~(x > 3)"),
        record(op="equiv", theory="incnat", left="x > 1", right="x > 2"),
        record(op="norm", theory="bitvec", term="(flip a)*; a = T"),
        record(op="equiv", theory="incnat", left="inc(x); x > 1", right="x > 0; inc(x)"),
        record(op="sat", theory="quantum", pred="x > 1"),
    ]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_jobs_setting_does_not_change_results(self, jobs):
        responses, _ = run_batch_lines(self.JOBS_LINES, jobs=jobs)
        assert responses[0]["result"]["equivalent"] is True
        assert responses[1]["result"]["equivalent"] is True
        assert responses[2]["result"]["satisfiable"] is False
        # Byte-identical to the single-worker answer, order included.
        reference, _ = run_batch_lines(self.JOBS_LINES, jobs=1)
        assert responses == reference


class TestControlOps:
    def test_stats_op(self):
        responses, _ = run_batch_lines([record(op="sat", pred="x > 1"), record(op="stats")])
        assert responses[1]["ok"]
        assert "incnat" in responses[1]["result"]
        assert "server" in responses[1]["result"]

    def test_trailing_stats_and_metrics_count_every_earlier_query(self):
        queries = [record(op="sat", pred=f"x > {i}") for i in range(12)]
        queries += [record(op="sat", theory="bitvec", pred="a = T"),
                    record(op="sat", pred="x > !!!")]
        responses, _ = run_batch_lines(
            queries + [record(op="stats"), record(op="metrics")], jobs=4)
        stats, metrics = responses[-2]["result"], responses[-1]["result"]
        assert stats["server"]["requests"]["completed"] == len(queries)
        assert stats["server"]["requests"]["errors"] == {"parse_error": 1}
        assert stats["incnat"]["queries"] == 13
        served = sum(entry["value"] for entry in metrics["counters"]["requests_total"])
        assert served == len(queries)

    def test_control_answers_at_its_input_position(self):
        lines = [record(op="sat", pred=f"x > {i}") for i in range(6)]
        lines.insert(3, record(op="stats", id="mid"))
        responses, _ = run_batch_lines(lines, jobs=4)
        assert [r["id"] for r in responses] == [0, 1, 2, "mid", 4, 5, 6]
        assert responses[3]["result"]["server"]["requests"]["completed"] == 3

    def test_quit_answers_unknown_op_and_the_batch_continues(self):
        responses, _ = run_batch_lines([
            record(op="quit", id="q"),
            record(op="quit"),
            record(op="sat", pred="x > 1"),
        ])
        assert [r["id"] for r in responses] == ["q", 1, 2]
        assert [r["error_code"] for r in responses[:2]] == ["unknown_op"] * 2
        assert "only valid in serve mode" in responses[0]["error"]
        assert responses[2]["result"]["satisfiable"] is True

    def test_deadline_is_honored(self):
        responses, _ = run_batch_lines([
            record(op="sat", pred="x > 1", deadline_ms=60_000),
            record(op="sat", pred="x > 1", deadline_ms=-5),
        ])
        assert responses[0]["ok"] is True
        assert responses[1]["error_code"] == "invalid_request"

    def test_ping_op(self):
        responses, _ = run_batch_lines([record(op="ping")])
        assert responses[0]["result"]["pong"] is True


class TestServeLoop:
    def test_serve_round_trip(self):
        stdin = io.StringIO(
            "\n".join(
                [
                    record(op="sat", pred="x > 1"),
                    record(op="sat", pred="x > 1"),
                    record(op="stats"),
                    record(op="quit"),
                    record(op="sat", pred="x > 2"),  # after quit: never served
                ]
            )
        )
        stdout = io.StringIO()
        served = serve(stdin, stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert served == 3
        assert len(replies) == 3
        by_id = {reply["id"]: reply for reply in replies}
        assert by_id[0]["result"]["satisfiable"] is True
        assert by_id[1]["result"]["satisfiable"] is True
        # ``stats`` is answered inline as an immediate snapshot, so it may
        # overtake the queued queries; it still reports the pool's shape.
        assert by_id[2]["ok"] and "server" in by_id[2]["result"]

    def test_serve_reports_malformed_lines(self):
        stdin = io.StringIO("{bad json\n")
        stdout = io.StringIO()
        serve(stdin, stdout)
        reply = json.loads(stdout.getvalue().splitlines()[0])
        assert reply["ok"] is False


class TestCliIntegration:
    def test_batch_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        batch_file = tmp_path / "queries.jsonl"
        batch_file.write_text(
            "\n".join(
                [
                    record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)"),
                    record(op="sat", theory="bitvec", pred="a = T"),
                ]
            )
        )
        code = main(["batch", str(batch_file), "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        replies = [json.loads(line) for line in captured.out.splitlines()]
        assert len(replies) == 2 and all(r["ok"] for r in replies)
        assert "2 responses (0 errors)" in captured.err
        assert "sat_pred" in captured.err  # --stats dump

    def test_batch_subcommand_error_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        batch_file = tmp_path / "queries.jsonl"
        batch_file.write_text("not json\n")
        assert main(["batch", str(batch_file)]) == 1


class TestServeLineNumberIds:
    """Default ids in serve mode are 0-based stdin line numbers (bugfix: the
    per-line ``run_lines([line])`` calls used to restart the enumeration at 0
    for every request)."""

    def test_default_ids_advance_per_line(self):
        stdin = io.StringIO(
            "\n".join(
                [
                    record(op="sat", pred="x > 1"),      # line 0
                    record(op="sat", pred="x > 2"),      # line 1
                    record(op="sat", pred="x > 3"),      # line 2
                ]
            )
        )
        stdout = io.StringIO()
        serve(stdin, stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in replies] == [0, 1, 2]

    def test_blank_and_comment_lines_occupy_numbers(self):
        stdin = io.StringIO(
            "\n".join(
                [
                    "# a comment",                        # line 0 (no response)
                    record(op="sat", pred="x > 1"),      # line 1
                    "",                                   # line 2 (no response)
                    record(op="sat", pred="x > 2"),      # line 3
                ]
            )
        )
        stdout = io.StringIO()
        serve(stdin, stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in replies] == [1, 3]

    def test_explicit_ids_still_win(self):
        stdin = io.StringIO(
            "\n".join(
                [
                    record(op="sat", pred="x > 1", id="mine"),
                    record(op="sat", pred="x > 2"),
                ]
            )
        )
        stdout = io.StringIO()
        serve(stdin, stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in replies] == ["mine", 1]

    def test_batch_ids_unchanged(self):
        responses, _ = run_batch_lines(
            ["# c", record(op="sat", pred="x > 1"), record(op="sat", pred="x > 2")]
        )
        assert [r["id"] for r in responses] == [1, 2]


class TestPoolStatsSharedTables:
    """No table is shared between sessions, so a pool reports each session's
    tables under its theory and nothing else: no ``"shared"`` block, and no
    derivative table (derivatives are memoized per decision call)."""

    def test_shared_deriv_reported_once(self):
        _, pool = run_batch_lines(
            [
                record(op="equiv", theory="incnat", left="inc(x); x > 1", right="x > 0; inc(x)"),
                record(op="equiv", theory="bitvec", left="a := T; a = T", right="a := T"),
            ],
        )
        stats = pool.stats()
        assert set(stats) == {"incnat", "bitvec"}
        for name in ("incnat", "bitvec"):
            assert "deriv" not in stats[name]["tables"]

    def test_per_session_totals_exclude_shared_table(self):
        _, pool = run_batch_lines(
            [record(op="equiv", theory="incnat", left="inc(x); x > 1", right="x > 0; inc(x)")],
        )
        stats = pool.stats()
        session_stats = pool.session("incnat").stats()
        assert set(stats) == {"incnat"}
        assert session_stats["totals"] == stats["incnat"]["totals"]
        assert set(session_stats["tables"]) == set(stats["incnat"]["tables"])


class TestSignatureFieldsInProtocol:
    def test_equiv_response_reports_signatures(self):
        responses, _ = run_batch_lines(
            [record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)")]
        )
        result = responses[0]["result"]
        assert result["equivalent"] is True
        assert result["signatures_explored"] >= 1

    def test_enumerate_mode_pool(self):
        """The cell enumerator is a test oracle, not a batch option."""
        with pytest.raises(TypeError):
            run_batch_lines([record(op="sat", pred="x > 1")], cell_search="enumerate")


class TestSetAndMapPresets:
    """``sets`` / ``maps`` are reachable from the batch protocol (bugfix:
    the theories existed but ``build_theory`` could not construct them)."""

    def test_sets_preset_round_trip(self):
        lines = [
            record(op="equiv", theory="sets",
                   left="add(X, 3); in(X, 3)", right="add(X, 3)"),
            record(op="sat", theory="sets", pred="in(X, 1); ~(in(X, 1))"),
            record(op="norm", theory="sets", term="add(X, i); in(X, 2)"),
        ]
        responses, _ = run_batch_lines(lines)
        assert all(r["ok"] for r in responses), responses
        assert responses[0]["result"]["equivalent"] is True
        assert responses[0]["result"]["signatures_explored"] >= 1
        assert responses[1]["result"]["satisfiable"] is False
        assert responses[2]["result"]["summands"] >= 1

    def test_maps_preset_round_trip(self):
        lines = [
            record(op="equiv", theory="maps",
                   left="m[1] := T; m[1] = T", right="m[1] := T"),
            record(op="sat", theory="maps", pred="m[1] = T; ~(m[1] = T)"),
        ]
        responses, _ = run_batch_lines(lines)
        assert all(r["ok"] for r in responses), responses
        assert responses[0]["result"]["equivalent"] is True
        assert responses[1]["result"]["satisfiable"] is False

    def test_presets_listed(self):
        from repro.theories import THEORY_PRESET_NAMES, build_theory

        assert "sets" in THEORY_PRESET_NAMES
        assert "maps" in THEORY_PRESET_NAMES
        assert build_theory("sets").describe() == "set(incnat)"
        assert build_theory("maps").describe() == "map(product(incnat, bitvec))"


class TestHostileInput:
    """One request that blows the interpreter stack must not abort the batch."""

    DEEP = "(" * 3000 + "inc(x)" + ")" * 3000

    def test_deep_input_answers_input_too_deep_and_batch_continues(self):
        responses, _ = run_batch_lines([
            record(op="equiv", id="deep", left=self.DEEP, right="inc(x)"),
            record(op="equiv", id="ok", left="inc(x); x > 1", right="x > 0; inc(x)"),
        ])
        assert [r["id"] for r in responses] == ["deep", "ok"]
        assert responses[0]["ok"] is False
        assert responses[0]["error_code"] == "input_too_deep"
        assert responses[1]["ok"] is True
        assert responses[1]["result"]["equivalent"] is True

"""Tests for the static-analysis ops: verify / prog_equiv / dead_code.

Covers the session-level API (`repro.analysis.checks`), the JSONL batch
surface (field validation, error codes), exact dead-code span reporting
against multi-line sources, the Fig. 1 programs from the paper, temporal
(LTLf) postconditions through ``verify``, and a small deterministic
differential run across the batch / thread-server / process-server paths.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis import checks
from repro.engine.server import run_batch_lines
from repro.engine.server import QueryServer, serve_stdio
from repro.engine.session import EngineSession
from repro.theories import build_theory
from repro.theories.incnat import IncNatTheory
from repro.utils import trace as trace_mod

#: Fig. 1a (Pnat) — the paper's counting loop, split into a Hoare triple.
PNAT_PRE = "i < 2"
PNAT_PROGRAM = """\
while (i < 5) {
    i += 1;
    j += 2;
}
"""
PNAT_POST = "j > 5"


def record(**fields):
    return json.dumps(fields)


@pytest.fixture
def session():
    return EngineSession(IncNatTheory(variables=("i", "j")))


class TestVerify:
    def test_fig1_pnat_triple_holds(self, session):
        result = checks.verify(session, PNAT_PRE, PNAT_PROGRAM, PNAT_POST)
        assert result["holds"] is True
        assert result["signatures_explored"] >= 1
        assert "counterexample" not in result

    def test_over_strong_post_fails_with_witness(self, session):
        result = checks.verify(session, PNAT_PRE, PNAT_PROGRAM, "j > 20")
        assert result["holds"] is False
        assert "counterexample" in result
        # The witness trace is the machine-readable action word: a run the
        # program can take that ends in a state violating the post.
        assert isinstance(result["witness_trace"], list)
        assert result["witness_trace"], "expected at least one action"
        assert all(isinstance(step, str) for step in result["witness_trace"])

    def test_trivial_triples(self, session):
        assert checks.verify(session, "false", "inc(i);", "i > 100")["holds"] is True
        assert checks.verify(session, "true", "abort;", "false")["holds"] is True
        assert checks.verify(session, "true", "skip;", "i > 0")["holds"] is False

    def test_pred_objects_accepted(self, session):
        pre = session.parse_pred(PNAT_PRE)
        post = session.parse_pred(PNAT_POST)
        result = checks.verify(session, pre, PNAT_PROGRAM, post)
        assert result["holds"] is True

    def test_fig1_pset_triple(self):
        session = EngineSession(build_theory("sets"))
        program = "while (i < 4) { add(X, i); inc(i); }"
        assert checks.verify(session, "i < 1", program, "in(X, 3)")["holds"] is True
        result = checks.verify(session, "i < 1", program, "in(X, 9)")
        assert result["holds"] is False
        assert "counterexample" in result

    def test_temporal_post_over_ltlf(self):
        # Satellite: temporal verification — LTLf postconditions work through
        # the same op because the preset registry already serves ltlf-*.
        session = EngineSession(build_theory("ltlf-nat"))
        assert checks.verify(session, "true", "inc(x);", "ev(x > 0)")["holds"] is True
        result = checks.verify(session, "true", "skip;", "ev(x > 0)")
        assert result["holds"] is False
        assert "since" in result["counterexample"]

    def test_non_string_program_is_type_error(self, session):
        with pytest.raises(TypeError):
            checks.verify(session, "true", ["not", "text"], "true")


class TestProgEquiv:
    def test_structural_variants_equivalent(self, session):
        result = checks.prog_equiv(session, "skip;",
                                   "if (i > 0) { } else { }")
        assert result["equivalent"] is True

    def test_loop_unrolling_equivalent(self, session):
        once = "while (i < 2) { inc(i); }"
        unrolled = "if (i < 2) { inc(i); while (i < 2) { inc(i); } } else { }"
        assert checks.prog_equiv(session, once, unrolled)["equivalent"] is True

    def test_inequivalent_carries_counterexample(self, session):
        result = checks.prog_equiv(session, "inc(i);", "inc(i); inc(i);")
        assert result["equivalent"] is False
        assert "distinguishing word" in result["counterexample"]


class TestDeadCode:
    def test_live_program_has_no_dead_statements(self, session):
        result = checks.dead_code(session, PNAT_PROGRAM)
        assert result["dead"] == 0
        assert result["total"] >= 3  # while header + two body statements

    def test_unsatisfiable_branch_reports_guard_reason(self, session):
        source = ("assume i > 4;\n"
                  "if (i < 3) {\n"
                  "    i += 1;\n"
                  "}\n")
        result = checks.dead_code(session, source)
        dead = [s for s in result["statements"] if s["dead"]]
        assert [s["text"] for s in dead] == ["i += 1"]
        entry = dead[0]
        # Exact span: the statement text, excluding the trailing ';'.
        start = source.index("i += 1")
        assert entry["span"] == {"start": start, "end": start + len("i += 1"),
                                 "line": 3, "column": 5}
        reason = entry["reason"]
        assert reason["kind"] == "guard"
        assert reason["guard"] == "i < 3"
        assert reason["negated"] is False
        assert reason["span"]["start"] == source.index("i < 3")

    def test_statements_after_abort_are_dead(self, session):
        source = "inc(i);\nabort;\ninc(j);\nskip;\n"
        result = checks.dead_code(session, source)
        texts = {s["text"]: s["dead"] for s in result["statements"]}
        assert texts == {"inc(i)": False, "abort": False,
                         "inc(j)": True, "skip": True}
        dead = [s for s in result["statements"] if s["dead"]]
        assert all(s["reason"]["kind"] == "abort" for s in dead)
        assert result["dead"] == 2

    def test_false_loop_body_is_dead_but_exit_is_live(self, session):
        source = ("assume i > 2;\n"
                  "while (i < 1) {\n"
                  "    inc(j);\n"
                  "}\n"
                  "inc(i);\n")
        result = checks.dead_code(session, source)
        by_text = {s["text"]: s for s in result["statements"]}
        assert by_text["inc(j)"]["dead"] is True
        assert by_text["inc(j)"]["reason"]["kind"] == "guard"
        assert by_text["inc(j)"]["reason"]["guard"] == "i < 1"
        assert by_text["inc(i)"]["dead"] is False

    def test_statements_nested_under_dead_code_are_dead(self, session):
        source = ("abort;\n"
                  "if (i > 0) {\n"
                  "    inc(i);\n"
                  "} else {\n"
                  "    inc(j);\n"
                  "}\n")
        result = checks.dead_code(session, source)
        assert result["dead"] == result["total"] - 1  # everything after abort
        nested = [s for s in result["statements"] if s["text"] in ("inc(i)", "inc(j)")]
        assert len(nested) == 2 and all(s["dead"] for s in nested)

    def test_assume_reason_wins_over_outer_guard(self, session):
        source = ("if (i > 0) {\n"
                  "    assume i > 9;\n"
                  "    assume i < 5;\n"
                  "    inc(i);\n"
                  "}\n")
        result = checks.dead_code(session, source)
        by_text = {s["text"]: s for s in result["statements"]}
        entry = by_text["inc(i)"]
        assert entry["dead"] is True
        # The innermost constraint on the path is the second assume.
        assert entry["reason"]["kind"] == "assume"
        assert entry["reason"]["span"]["start"] == source.index("assume i < 5")

    def test_trace_counters_recorded(self, session):
        trace = trace_mod.Trace()
        trace_mod.activate(trace)
        try:
            checks.dead_code(session, "abort; inc(i);")
        finally:
            trace_mod.deactivate()
        assert trace.counters["statements_analyzed"] == 2
        assert trace.counters["dead_statements"] == 1
        assert trace.phase_counts.get("prog_compile") == 1


class TestCompileCache:
    def test_program_compile_is_memoized(self, session):
        checks.verify(session, PNAT_PRE, PNAT_PROGRAM, PNAT_POST)
        misses = session.caches.prog.stats.misses
        checks.dead_code(session, PNAT_PROGRAM)
        assert session.caches.prog.stats.hits >= 1
        assert session.caches.prog.stats.misses == misses

    def test_repeat_verify_replays_cached_verdict(self, session):
        first = checks.verify(session, PNAT_PRE, PNAT_PROGRAM, PNAT_POST)
        assert "cached" not in first
        second = checks.verify(session, PNAT_PRE, PNAT_PROGRAM, PNAT_POST)
        assert second["cached"] is True
        assert second["holds"] is first["holds"]

    def test_session_methods_delegate(self, session):
        assert session.verify(PNAT_PRE, PNAT_PROGRAM, PNAT_POST)["holds"] is True
        assert session.prog_equiv("skip;", "skip;")["equivalent"] is True
        assert session.dead_code("abort; inc(i);")["dead"] == 1


class TestBatchSurface:
    def test_three_ops_round_trip(self):
        lines = [
            record(op="verify", pre=PNAT_PRE, program=PNAT_PROGRAM, post=PNAT_POST),
            record(op="prog_equiv", left="inc(x);", right="inc(x);"),
            record(op="dead_code", program="abort; inc(x);"),
        ]
        responses, _ = run_batch_lines(lines)
        assert all(r["ok"] for r in responses)
        assert responses[0]["result"]["holds"] is True
        assert responses[1]["result"]["equivalent"] is True
        assert responses[2]["result"]["dead"] == 1

    def test_malformed_program_is_parse_error(self):
        responses, _ = run_batch_lines(
            [record(op="dead_code", program="while (x > 0 { }")])
        assert responses[0]["ok"] is False
        assert responses[0]["error_code"] == "parse_error"
        # The diagnostic carries the precise location and a caret frame.
        assert "line 1" in responses[0]["error"]
        assert "unterminated" in responses[0]["error"]
        assert "^" in responses[0]["error"]

    def test_missing_fields_reported(self):
        responses, _ = run_batch_lines([
            record(op="verify", pre="x > 0", program="inc(x);"),
            record(op="prog_equiv", left="inc(x);"),
            record(op="dead_code"),
        ])
        assert all(r["ok"] is False for r in responses)
        assert all(r["error_code"] == "missing_field" for r in responses)
        assert "post" in responses[0]["error"]
        assert "right" in responses[1]["error"]
        assert "program" in responses[2]["error"]

    def test_non_string_program_is_invalid_request(self):
        responses, _ = run_batch_lines(
            [record(op="dead_code", program=["skip;"])])
        assert responses[0]["ok"] is False
        assert responses[0]["error_code"] == "invalid_request"

    def test_ltlf_theory_selectable_per_record(self):
        responses, _ = run_batch_lines([
            record(op="verify", theory="ltlf-nat", pre="true",
                   program="inc(x);", post="ev(x > 0)"),
        ])
        assert responses[0]["ok"]
        assert responses[0]["result"]["holds"] is True


class TestDifferentialPaths:
    """The same deterministic workload through all three execution paths."""

    WORKLOAD = [
        record(id=1, op="verify", pre=PNAT_PRE, program=PNAT_PROGRAM, post=PNAT_POST),
        record(id=2, op="verify", pre=PNAT_PRE, program=PNAT_PROGRAM, post="j > 20"),
        record(id=3, op="prog_equiv", left="skip;", right="if (x > 0) { } else { }"),
        record(id=4, op="prog_equiv", left="inc(x);", right="inc(x); inc(x);"),
        record(id=5, op="dead_code", program="assume x > 4; if (x < 3) { inc(x); }"),
        record(id=6, op="dead_code", program="while (x > 0 { }"),  # parse error
    ]

    @staticmethod
    def _comparable(response):
        out = {k: v for k, v in response.items() if k not in ("result", "error")}
        result = response.get("result")
        if isinstance(result, dict):
            out["result"] = {k: v for k, v in result.items()
                             if k not in ("cells_explored", "cells_pruned", "cached")}
        return out

    def _run_server(self, backend):
        stdin = io.StringIO("\n".join(self.WORKLOAD) + "\n")
        stdout = io.StringIO()
        with QueryServer(workers=2, backend=backend) as server:
            serve_stdio(stdin, stdout, server)
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        return sorted(lines, key=lambda r: r["id"])

    def test_batch_thread_process_agree(self):
        batch, _ = run_batch_lines(list(self.WORKLOAD))
        batch = sorted(batch, key=lambda r: r["id"])
        thread = self._run_server("thread")
        process = self._run_server("process")
        expected = [self._comparable(r) for r in batch]
        assert [self._comparable(r) for r in thread] == expected
        assert [self._comparable(r) for r in process] == expected
        # Spot-check the verdicts themselves (shared across paths).
        by_id = {r["id"]: r for r in batch}
        assert by_id[1]["result"]["holds"] is True
        assert by_id[2]["result"]["holds"] is False
        assert by_id[3]["result"]["equivalent"] is True
        assert by_id[4]["result"]["equivalent"] is False
        assert by_id[5]["result"]["dead"] == 1
        assert by_id[6]["ok"] is False and by_id[6]["error_code"] == "parse_error"

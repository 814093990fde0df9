"""Tests for the concurrent query server (:mod:`repro.engine.server`).

Covers the serving concerns the batch tests cannot: concurrent multi-client
socket sessions, out-of-order completion with correct ids, deadline expiry
mid-search, backpressure on a full queue, graceful drain on ``quit`` — plus
regression tests for the engine-cache integrity fixes that shipped with the
server (equiv-result aliasing, derivative-cache slot hijack, serve counting
and the ``"cached"`` flag).
"""

import io
import json
import threading
import time

import pytest

from repro.engine.client import SocketClient
from repro.engine.server import (
    QueryServer,
    ResponseSink,
    SocketServer,
    serve_stdio,
)
from repro.engine.session import EngineSession
from repro.theories import build_theory


def serve(stdin, stdout):
    """One request at a time, answered in input order."""
    with QueryServer(workers=1) as server:
        return serve_stdio(stdin, stdout, server, ordered=True)


def record(**fields):
    return json.dumps(fields)


class _OracleDelayTheory:
    """Delegating theory wrapper that sleeps per conjunction-oracle call.

    Models an out-of-process solver (the paper's implementations call Z3 over
    IPC); in tests it simply makes queries take long enough to observe
    overlap, deadlines and backpressure deterministically.
    """

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def satisfiable_conjunction(self, literals):
        time.sleep(self._delay)
        return self._inner.satisfiable_conjunction(literals)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def slow_factory(delay, only=("incnat",)):
    def factory(name):
        theory = build_theory(name)
        if name in only:
            return _OracleDelayTheory(theory, delay)
        return theory

    return factory


class _ListSink(ResponseSink):
    """A sink collecting parsed responses (optionally ordered)."""

    def __init__(self, ordered=False):
        self.responses = []
        super().__init__(lambda line: self.responses.append(json.loads(line)),
                         ordered=ordered)


def _equiv(i, **extra):
    return record(op="equiv", left=f"inc(x); x > {i + 1}", right=f"x > {i}; inc(x)", **extra)


def _fast_line_on_other_worker(server, slow_line, **extra):
    """A fast bitvec request guaranteed to land on a different worker shard.

    Shard routing is a deterministic content hash, so two specific requests
    may well share a worker — out-of-order assertions need one that provably
    does not queue behind the slow request.
    """
    from repro.engine.server import _affinity_stripe

    slow = json.loads(slow_line)
    slow_worker = server._worker_index(
        str(slow.get("theory", "incnat")), _affinity_stripe(slow, server.stripes))
    candidates = ["a = T", "~(a = T)", "a = F", "a = T + a = F", "a = F + a = T", "~(a = F)"]
    for pred in candidates:
        rec = {"op": "sat", "theory": "bitvec", "pred": pred}
        if server._worker_index("bitvec", _affinity_stripe(rec, server.stripes)) != slow_worker:
            return record(op="sat", theory="bitvec", pred=pred, **extra)
    raise AssertionError("no candidate fast query avoids the slow request's worker")


class TestScheduling:
    def test_out_of_order_completion_with_correct_ids(self):
        # One slow incnat query submitted first, one fast bitvec query second:
        # with two workers the fast one must finish (and be emitted) first,
        # and both responses must carry their own ids.
        sink = _ListSink()
        with QueryServer(workers=2, theory_factory=slow_factory(0.15)) as server:
            slow = _equiv(1, id="slow")
            server.submit_line(slow, sink)
            server.submit_line(_fast_line_on_other_worker(server, slow, id="fast"), sink)
            server.wait_idle()
        assert [r["id"] for r in sink.responses] == ["fast", "slow"]
        assert all(r["ok"] for r in sink.responses)
        assert sink.responses[0]["result"]["satisfiable"] is True
        assert sink.responses[1]["result"]["equivalent"] is True

    def test_ordered_mode_restores_submission_order(self):
        sink = _ListSink(ordered=True)
        with QueryServer(workers=2, theory_factory=slow_factory(0.15)) as server:
            slow = _equiv(1, id="slow")
            server.submit_line(slow, sink)
            server.submit_line(_fast_line_on_other_worker(server, slow, id="fast"), sink)
            server.wait_idle()
        assert [r["id"] for r in sink.responses] == ["slow", "fast"]

    def test_many_requests_all_ids_answered_correctly(self):
        # A mixed-theory burst across 4 workers: every request is answered
        # exactly once, under its own id, with the right verdict.
        sink = _ListSink()
        lines = []
        for i in range(10):
            lines.append(record(op="sat", pred=f"x > {i}", id=f"sat-{i}"))
            lines.append(record(op="equiv", theory="bitvec", left="a := T; a = T",
                                right="a := T", id=f"eq-{i}"))
        with QueryServer(workers=4) as server:
            for line in lines:
                server.submit_line(line, sink)
            server.wait_idle()
        by_id = {r["id"]: r for r in sink.responses}
        assert len(by_id) == 20
        for i in range(10):
            assert by_id[f"sat-{i}"]["result"]["satisfiable"] is True
            assert by_id[f"eq-{i}"]["result"]["equivalent"] is True

    def test_default_ids_are_input_line_numbers(self):
        stdin = io.StringIO("\n".join([
            "# comment",                    # line 0, no response
            record(op="sat", pred="x > 1"),  # line 1
            record(op="sat", pred="x > 2"),  # line 2
        ]))
        stdout = io.StringIO()
        with QueryServer(workers=2) as server:
            served = serve_stdio(stdin, stdout, server)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert served == 2
        assert sorted(r["id"] for r in replies) == [1, 2]

    def test_striping_spreads_a_hot_theory(self):
        # 12 distinct incnat queries over 4 stripes: more than one stripe
        # session must end up doing work (content-hash affinity spreads them).
        with QueryServer(workers=4, stripes=4) as server:
            sink = _ListSink()
            for i in range(12):
                server.submit_line(record(op="sat", pred=f"x > {i}"), sink)
            server.wait_idle()
        assert server.pool.stats()["incnat"]["stripes"] > 1

    def test_affinity_repeated_query_hits_cache(self):
        sink = _ListSink()
        with QueryServer(workers=4) as server:
            for _ in range(2):
                server.submit_line(_equiv(3, id="q"), sink)
                server.wait_idle()
        cached = [r["result"].get("cached", False) for r in sink.responses]
        assert cached.count(True) == 1  # the repeat landed on the same warm shard


class TestDeadlines:
    def test_deadline_expires_mid_search(self):
        sink = _ListSink()
        with QueryServer(workers=1, theory_factory=slow_factory(0.2)) as server:
            started = time.monotonic()
            server.submit_line(_equiv(1, id="doomed", deadline_ms=30), sink)
            server.wait_idle()
            elapsed = time.monotonic() - started
        (reply,) = sink.responses
        assert reply["ok"] is False
        assert reply["error_code"] == "deadline_exceeded"
        assert reply["id"] == "doomed"
        # It aborted at a cancellation checkpoint rather than running the
        # whole (multi-second) search to completion.
        assert elapsed < 2.0

    def test_deadline_expires_while_queued(self):
        # One worker, one stripe: the fast-deadline request sits behind a
        # slow one and must be rejected before execution even starts.
        sink = _ListSink()
        with QueryServer(workers=1, stripes=1,
                         theory_factory=slow_factory(0.25)) as server:
            server.submit_line(_equiv(1, id="slow"), sink)
            server.submit_line(record(op="sat", pred="x > 1", id="late", deadline_ms=1), sink)
            server.wait_idle()
        by_id = {r["id"]: r for r in sink.responses}
        assert by_id["late"]["ok"] is False
        assert by_id["late"]["error_code"] == "deadline_exceeded"
        assert "queued" in by_id["late"]["error"]

    def test_session_usable_after_deadline(self):
        # Cancellation must not corrupt the session caches: the same query
        # without a deadline afterwards succeeds with the correct verdict.
        sink = _ListSink()
        with QueryServer(workers=1, theory_factory=slow_factory(0.05)) as server:
            server.submit_line(_equiv(2, id="first", deadline_ms=20), sink)
            server.wait_idle()
            server.submit_line(_equiv(2, id="retry"), sink)
            server.wait_idle()
        by_id = {r["id"]: r for r in sink.responses}
        assert by_id["first"]["error_code"] == "deadline_exceeded"
        assert by_id["retry"]["ok"] is True
        assert by_id["retry"]["result"]["equivalent"] is True

    def test_unknown_op_error_echoes_client_id(self):
        # Out-of-order clients correlate by id, so even protocol-invalid
        # requests must echo the id they carried.
        sink = _ListSink()
        with QueryServer(workers=1) as server:
            outcome = server.submit_line(record(op="frobnicate", id="mine"), sink)
            server.wait_idle()
        assert outcome == "error"
        assert sink.responses[0]["id"] == "mine"
        assert sink.responses[0]["error_code"] == "unknown_op"

    def test_invalid_deadline_rejected(self):
        sink = _ListSink()
        with QueryServer(workers=1) as server:
            outcome = server.submit_line(record(op="sat", pred="x > 1", deadline_ms=-5), sink)
            server.wait_idle()
        assert outcome == "error"
        assert sink.responses[0]["error_code"] == "invalid_request"


class TestBackpressure:
    def test_queue_full_rejects_nonblocking_submit(self):
        sink = _ListSink()
        with QueryServer(workers=1, stripes=1, queue_limit=2,
                         theory_factory=slow_factory(0.2)) as server:
            assert server.submit_line(_equiv(1, id="a"), sink, block=False) == "queued"
            assert server.submit_line(_equiv(2, id="b"), sink, block=False) == "queued"
            outcome = server.submit_line(_equiv(3, id="c"), sink, block=False)
            assert outcome == "rejected"
            server.wait_idle()
        by_id = {r["id"]: r for r in sink.responses}
        assert by_id["c"]["error_code"] == "queue_full"
        assert by_id["a"]["ok"] and by_id["b"]["ok"]
        stats = server.server_stats()
        assert stats["requests"]["errors"]["queue_full"] == 1
        assert stats["queue"]["peak"] <= 2

    def test_blocking_submit_waits_for_capacity(self):
        sink = _ListSink()
        with QueryServer(workers=1, stripes=1, queue_limit=1,
                         theory_factory=slow_factory(0.15)) as server:
            server.submit_line(_equiv(1, id="a"), sink)
            started = time.monotonic()
            # Queue is full: this submission must block until the first
            # request finishes, then still be accepted and answered.
            outcome = server.submit_line(_equiv(2, id="b"), sink)
            blocked_for = time.monotonic() - started
            assert outcome == "queued"
            server.wait_idle()
        assert blocked_for > 0.05
        assert {r["id"] for r in sink.responses} == {"a", "b"}
        assert all(r["ok"] for r in sink.responses)

    def test_control_ops_bypass_the_queue(self):
        sink = _ListSink()
        with QueryServer(workers=1, stripes=1, queue_limit=1,
                         theory_factory=slow_factory(0.2)) as server:
            server.submit_line(_equiv(1, id="busy"), sink)
            # Even with the queue full, ping answers immediately.
            outcome = server.submit_line(record(op="ping", id="p"), sink, block=False)
            assert outcome == "control"
            server.wait_idle()
        assert sink.responses[0]["id"] == "p"

    def test_control_ops_bypass_ordered_buffering(self):
        # Under --ordered, a stats/ping reply must still jump ahead of
        # jammed queries instead of waiting in the reorder heap.
        sink = _ListSink(ordered=True)
        with QueryServer(workers=1, stripes=1,
                         theory_factory=slow_factory(0.2)) as server:
            server.submit_line(_equiv(1, id="busy"), sink)
            server.submit_line(record(op="stats", id="s"), sink, block=False)
            server.wait_idle()
        assert [r["id"] for r in sink.responses] == ["s", "busy"]
        assert sink.responses[0]["result"]["server"]["queue"]["limit"] == 128


class TestDrain:
    def test_drain_on_quit_answers_everything(self):
        lines = [_equiv(i) for i in range(6)] + [record(op="quit")]
        stdin = io.StringIO("\n".join(lines))
        stdout = io.StringIO()
        with QueryServer(workers=3) as server:
            served = serve_stdio(stdin, stdout, server)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert served == 6
        assert len(replies) == 6
        assert sorted(r["id"] for r in replies) == list(range(6))
        assert all(r["ok"] for r in replies)

    def test_submissions_after_shutdown_are_rejected(self):
        sink = _ListSink()
        server = QueryServer(workers=1).start()
        server.shutdown(drain=True)
        outcome = server.submit_line(record(op="sat", pred="x > 1", id="x"), sink)
        assert outcome == "rejected"
        assert sink.responses[0]["error_code"] == "shutting_down"

    def test_stats_op_reports_server_block(self):
        stdin = io.StringIO("\n".join([
            record(op="sat", pred="x > 1"),
            record(op="quit"),
        ]))
        stdout = io.StringIO()
        with QueryServer(workers=2) as server:
            serve_stdio(stdin, stdout, server)
        # Ask a fresh stream for stats after the work drained.
        server = QueryServer(workers=2)
        with server:
            sink = _ListSink()
            server.submit_line(record(op="sat", pred="x > 1", id="q"), sink)
            server.wait_idle()
            server.submit_line(record(op="stats", id="s"), sink)
        stats = next(r for r in sink.responses if r["id"] == "s")["result"]
        assert "incnat" in stats
        assert stats["server"]["queue"]["limit"] == 128
        assert stats["server"]["requests"]["completed"] == 1
        assert stats["server"]["latency_ms"]["p50"] is not None
        assert "shared" not in stats


class TestSocketMode:
    def test_concurrent_multi_client_sessions(self):
        with SocketServer(QueryServer(workers=4), port=0) as srv:
            results = {}

            def client(n):
                with SocketClient("127.0.0.1", srv.port) as conn:
                    results[n] = conn.ask(
                        [{"op": "sat", "pred": f"x > {i}", "id": f"c{n}-{i}"}
                         for i in range(5)])

            threads = [threading.Thread(target=client, args=(n,)) for n in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        for n in range(3):
            replies = results[n]
            # Each client sees exactly its own five responses, ids intact.
            assert sorted(r["id"] for r in replies) == [f"c{n}-{i}" for i in range(5)]
            assert all(r["ok"] for r in replies)

    def test_quit_is_connection_scoped(self):
        with SocketServer(QueryServer(workers=2), port=0) as srv:
            with SocketClient("127.0.0.1", srv.port) as first:
                assert first.ask([]) == []  # quit: drained and closed...

            with SocketClient("127.0.0.1", srv.port) as second:
                replies = second.ask([{"op": "sat", "pred": "x > 1", "id": "later"}])
        assert [r["id"] for r in replies] == ["later"]  # ...but the server lives on

    def test_socket_out_of_order_and_ordered(self):
        for ordered, expected in ((False, ["fast", "slow"]), (True, ["slow", "fast"])):
            query_server = QueryServer(workers=2, theory_factory=slow_factory(0.15))
            with SocketServer(query_server, port=0, ordered=ordered) as srv:
                slow = _equiv(1, id="slow")
                fast = _fast_line_on_other_worker(query_server, slow, id="fast")
                with SocketClient("127.0.0.1", srv.port) as conn:
                    replies = conn.ask([json.loads(slow), json.loads(fast)])
            assert [r["id"] for r in replies] == expected, f"ordered={ordered}"


class TestCliServe:
    def test_serve_subcommand_concurrent(self, monkeypatch, capsys):
        from repro.cli import main

        stdin = io.StringIO("\n".join([
            record(op="sat", pred="x > 1"),
            "garbage",
            record(op="quit"),
        ]))
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["serve", "--workers", "2", "--ordered"])
        captured = capsys.readouterr()
        assert code == 0
        replies = [json.loads(line) for line in captured.out.splitlines()]
        assert len(replies) == 2
        assert "# served 1 requests" in captured.err

    def test_serve_subcommand_legacy(self, capsys):
        """The blocking serve loop is gone: ``--legacy`` is a usage error
        (``serve --ordered --workers 1`` answers strictly in order)."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--legacy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --legacy" in capsys.readouterr().err


class TestEquivResultAliasingRegression:
    """A cached ``EquivalenceResult``/``Counterexample`` used to be mutable:
    one caller writing ``result.counterexample.word = ("TAMPERED",)``
    corrupted every later response for the same query, across threads."""

    def test_results_are_immutable(self):
        session = EngineSession(build_theory("incnat"))
        result = session.check_equivalent("x > 1", "x > 2")
        assert not result.equivalent
        with pytest.raises(AttributeError):
            result.counterexample.word = ("TAMPERED",)
        with pytest.raises(AttributeError):
            result.equivalent = True
        with pytest.raises(AttributeError):
            del result.counterexample.word
        # The replay is untampered.
        replay = session.check_equivalent("x > 1", "x > 2")
        assert replay.cached is True
        assert "TAMPERED" not in replay.counterexample.describe()

    def test_counterexample_fields_are_tuples(self):
        session = EngineSession(build_theory("incnat"))
        cex = session.check_equivalent("x > 1", "x > 2").counterexample
        assert isinstance(cex.cell, tuple)
        assert isinstance(cex.word, tuple)

    def test_cached_flag_only_on_replay(self):
        session = EngineSession(build_theory("incnat"))
        first = session.check_equivalent("inc(x); x > 1", "x > 0; inc(x)")
        second = session.check_equivalent("inc(x); x > 1", "x > 0; inc(x)")
        assert first.cached is False
        assert second.cached is True
        # The cached copy replays the original counters.
        assert second.signatures_explored == first.signatures_explored


class TestServeCountingRegression:
    """The serve loop used to count malformed lines as served requests."""

    def test_malformed_lines_not_counted(self):
        stdin = io.StringIO("this is { not json\n" + record(op="ping") + "\n")
        stdout = io.StringIO()
        served = serve(stdin, stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert served == 1
        assert len(replies) == 2
        assert replies[0]["ok"] is False
        assert replies[0]["error_code"] == "malformed_request"
        assert replies[1]["result"]["pong"] is True

    def test_cached_flag_in_batch_responses(self):
        from repro.engine.server import run_batch_lines

        line = _equiv(1)
        responses, _ = run_batch_lines([line, line])
        assert "cached" not in responses[0]["result"]
        assert responses[1]["result"]["cached"] is True


class TestStreamedBatchInput:
    """``kmt batch -`` must stream stdin line by line, not ``readlines()``."""

    def test_run_lines_accepts_a_pure_iterator(self):
        from repro.engine.server import run_batch_lines

        lines = iter([record(op="sat", pred="x > 1"), record(op="sat", pred="x > 2")])
        responses, _ = run_batch_lines(lines)
        assert [r["ok"] for r in responses] == [True, True]

    def test_cmd_batch_streams_stdin(self, monkeypatch, capsys):
        from repro.cli import main

        class IterOnlyStdin:
            """Iterable but with no ``readlines`` / ``read`` — buffering the
            whole stream would raise instead of silently regressing."""

            def __init__(self, text):
                self._lines = iter(text.splitlines(keepends=True))

            def __iter__(self):
                return self._lines

        monkeypatch.setattr(
            "sys.stdin", IterOnlyStdin(record(op="sat", pred="x > 1") + "\n"))
        code = main(["batch", "-"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out.splitlines()[0])["ok"] is True


class TestProcessWorkerInternalError:
    """A request that crashes inside a worker process used to come back with
    id 0, not the client's id.  The crash here is an oracle raising an error
    no query path classifies: ``time.sleep(inf)`` in the latency wrapper
    raises ``OverflowError``."""

    def test_internal_error_keeps_the_client_id(self, monkeypatch):
        monkeypatch.setenv("KMT_TEST_ORACLE_DELAY_MS", "inf")
        monkeypatch.setenv("KMT_TEST_ORACLE_THEORIES", "bitvec")
        stdin = io.StringIO("\n".join([
            record(op="sat", id="a", theory="bitvec", pred="a = T"),
            record(op="sat", id="b", pred="x > 1"),
        ]) + "\n")
        stdout = io.StringIO()
        with QueryServer(workers=1, backend="process",
                         theory_factory_spec="repro.engine.testing:oracle_latency_factory") \
                as server:
            serve_stdio(stdin, stdout, server, ordered=True)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [(r["id"], r["ok"], r.get("error_code")) for r in replies] == [
            ("a", False, "internal_error"),
            ("b", True, None),
        ]

"""End-to-end observability tests: tracing, metrics and logs through the stack.

Exercises the ``"trace": true`` phase breakdown through the batch front end,
the ordered single-worker serve loop, and the concurrent server under *both*
execution backends
(the process backend round-trips the trace over the worker pipe); the
``metrics`` protocol op; the extended ``stats`` block (uptime, per-op counts,
queue/exec latency split); the slow-query and internal-error logs; the Prometheus scrape endpoint
fed by a live server; and the new CLI flags.
"""

import io
import json
import logging
import re
import urllib.request

import pytest

from repro.cli import main
from repro.engine.batch import run_query
from repro.engine.server import QueryServer, ResponseSink, run_batch_lines, serve_stdio
from repro.engine.session import EngineSession
from repro.engine.telemetry import MetricsExporter, configure_logging
from repro.theories import build_theory


def record(**fields):
    return json.dumps(fields)


def _responses(stdout):
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def _assert_trace_consistent(trace):
    """The acceptance-criteria invariant: phases sum into the exec window."""
    attributed = sum(phase["ms"] for phase in trace["phases"].values())
    assert trace["unattributed_ms"] >= 0.0
    assert attributed <= trace["exec_ms"] + 0.5
    assert attributed + trace["unattributed_ms"] == pytest.approx(
        trace["exec_ms"], abs=0.5)
    for name, start_ms, duration_ms, depth in trace["spans"]:
        assert isinstance(name, str) and depth >= 0
        assert duration_ms >= 0.0


# ---------------------------------------------------------------------------
# run_query / batch front end
# ---------------------------------------------------------------------------


class TestRunQuery:
    def test_untraced_request_pays_nothing(self):
        session = EngineSession(build_theory("incnat"))
        result, trace = run_query(session, {"op": "sat", "pred": "x > 0"})
        assert result["satisfiable"] is True
        assert trace is None

    def test_traced_request_has_phase_breakdown(self):
        session = EngineSession(build_theory("incnat"))
        request = {"op": "equiv", "left": "inc(x); x > 1", "right": "x > 0; inc(x)",
                   "trace": True}
        result, trace = run_query(session, request)
        assert result["equivalent"] is True
        assert "normalize" in trace["phases"]
        assert "signatures" in trace["phases"]
        _assert_trace_consistent(trace)
        # Cold caches: the normalization and equivalence tables record misses.
        assert trace["cache"]["norm"]["misses"] >= 2
        assert trace["cache"]["equiv"]["misses"] >= 1

    def test_warm_cache_trace_shows_hits_not_work(self):
        session = EngineSession(build_theory("incnat"))
        request = {"op": "equiv", "left": "inc(x); x > 1", "right": "x > 0; inc(x)",
                   "trace": True}
        run_query(session, request)
        _, warm = run_query(session, request)
        assert warm["cache"]["equiv"]["hits"] >= 1
        # Memoized verdict: no signature search runs the second time.
        assert "signatures" not in warm["phases"]

    def test_search_work_counters_are_deterministic(self):
        request = {"op": "equiv", "left": "x > 1; inc(y) + x > 3; inc(x)",
                   "right": "x > 2; inc(y) + y > 0; inc(x)", "trace": True}
        counts = []
        for _ in range(2):
            _, trace = run_query(EngineSession(build_theory("incnat")), request)
            counters = trace["counters"]
            counts.append({name: counters[name] for name in
                           ("search_decisions", "search_propagations", "search_oracle_calls")})
        assert counts[0] == counts[1]
        assert counts[0]["search_decisions"] > 0
        assert counts[0]["search_oracle_calls"] >= counts[0]["search_decisions"]

    def test_force_trace_without_flag(self):
        """The slow-query log forces a trace by setting the record's flag;
        the client response still carries none (the scheduler strips it)."""
        stdout = io.StringIO()
        server = QueryServer(workers=1, default_theory="incnat", slow_query_ms=60_000.0)
        forced = []
        execute = server.backend.execute

        def spy(worker_index, request):
            forced.append(request.record.get("trace"))
            return execute(worker_index, request)

        server.backend.execute = spy
        serve_stdio(io.StringIO(record(op="sat", pred="x > 0") + "\n"), stdout, server)
        server.shutdown()
        assert forced == [True]
        (response,) = _responses(stdout)
        assert response["ok"] is True and "trace" not in response

    def test_trace_deactivated_after_error(self):
        from repro.engine.telemetry import current_trace

        session = EngineSession(build_theory("incnat"))
        with pytest.raises(Exception):
            run_query(session, {"op": "sat", "pred": "this ( is not + syntax",
                                "trace": True})
        assert current_trace() is None


class TestBatchRunnerObservability:
    """``run_batch_lines``: the batch front end on the query server."""

    def test_trace_block_in_response(self):
        ((response,), _) = run_batch_lines([
            record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)",
                   trace=True, id="q"),
        ])
        assert response["ok"] is True
        trace = response["trace"]
        assert trace["total_ms"] >= trace["exec_ms"] - 0.001
        _assert_trace_consistent(trace)

    def test_untraced_response_has_no_trace_key(self):
        ((response,), _) = run_batch_lines([record(op="sat", pred="x > 0")])
        assert "trace" not in response

    def test_metrics_op(self):
        responses, _ = run_batch_lines([
            record(op="sat", pred="x > 0", id="a"),
            record(op="metrics", id="m"),
        ])
        by_id = {r["id"]: r for r in responses}
        snapshot = by_id["m"]["result"]
        (entry,) = snapshot["counters"]["requests_total"]
        assert entry["labels"] == {"op": "sat", "outcome": "ok", "theory": "incnat"}
        assert entry["value"] == 1
        (hist,) = snapshot["histograms"]["request_latency_ms"]
        assert hist["count"] == 1

    def test_error_outcome_labelled(self):
        responses, _ = run_batch_lines([
            record(op="sat", pred="x > 0 ) (", id="bad"),
            record(op="metrics", id="m"),
        ])
        by_id = {r["id"]: r for r in responses}
        assert by_id["bad"]["ok"] is False
        outcomes = {e["labels"]["outcome"]
                    for e in by_id["m"]["result"]["counters"]["requests_total"]}
        assert by_id["bad"]["error_code"] in outcomes

    def test_slow_query_log(self, tmp_path, quiet_logging):
        path = tmp_path / "slow.jsonl"
        configure_logging(level="info", log_file=str(path))
        ((response,), _) = run_batch_lines([
            record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)", id="q"),
        ], slow_query_ms=0.0)
        # The client did not ask for a trace, so the response carries none...
        assert "trace" not in response
        events = [json.loads(line) for line in path.read_text().splitlines()]
        slow = [e for e in events if e["event"] == "slow_query"]
        assert len(slow) == 1
        # ...but the log event has the full phase breakdown anyway.
        assert slow[0]["op"] == "equiv"
        assert slow[0]["total_ms"] > 0.0
        assert "normalize" in slow[0]["phases"]
        assert slow[0]["level"] == "warning"

    def test_fast_queries_not_logged(self, tmp_path, quiet_logging):
        path = tmp_path / "slow.jsonl"
        configure_logging(level="info", log_file=str(path))
        run_batch_lines([record(op="sat", pred="x > 0")], slow_query_ms=60_000.0)
        events = [json.loads(line) for line in path.read_text().splitlines()
                  if path.exists()] if path.exists() else []
        assert not [e for e in events if e["event"] == "slow_query"]


class TestOrderedServeObservability:
    """``serve_stdio(ordered=True)`` on one worker: one request at a time."""

    def test_trace_over_ordered_serve(self):
        stdin = io.StringIO(record(op="equiv", left="inc(x); x > 1",
                                   right="x > 0; inc(x)", trace=True, id="q") + "\n")
        stdout = io.StringIO()
        with QueryServer(workers=1, default_theory="incnat") as server:
            serve_stdio(stdin, stdout, server, ordered=True)
        (response,) = _responses(stdout)
        _assert_trace_consistent(response["trace"])

    def test_slow_query_log_over_ordered_serve(self, tmp_path, quiet_logging):
        path = tmp_path / "slow.jsonl"
        configure_logging(level="warning", log_file=str(path))
        stdin = io.StringIO(record(op="sat", pred="x > 0", id="q") + "\n")
        stdout = io.StringIO()
        server = QueryServer(workers=1, default_theory="incnat", slow_query_ms=0.0)
        serve_stdio(stdin, stdout, server, ordered=True)
        server.shutdown(drain=True)
        (response,) = _responses(stdout)
        assert "trace" not in response
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in events if e["event"] == "slow_query"]


# ---------------------------------------------------------------------------
# concurrent server, both backends
# ---------------------------------------------------------------------------


def _serve_requests(server, lines):
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    serve_stdio(stdin, stdout, server)
    return {r.get("id"): r for r in _responses(stdout)}


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestServerObservability:
    def test_trace_roundtrip_and_consistency(self, backend):
        server = QueryServer(workers=2, backend=backend, default_theory="incnat")
        try:
            out = _serve_requests(server, [
                record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)",
                       trace=True, id="traced"),
                record(op="sat", pred="x > 0", id="plain"),
            ])
            trace = out["traced"]["trace"]
            # Scheduler-stamped timings arrive alongside the executor's block —
            # through the worker pipe, for the process backend.
            assert trace["queue_ms"] >= 0.0
            assert trace["total_ms"] >= trace["exec_ms"] - 0.001
            assert "normalize" in trace["phases"]
            _assert_trace_consistent(trace)
            assert "trace" not in out["plain"]
        finally:
            server.shutdown()

    def test_stats_satellites(self, backend):
        server = QueryServer(workers=2, backend=backend, default_theory="incnat")
        try:
            _serve_requests(server, [
                record(op="sat", pred="x > 0", id="a"),
                record(op="equiv", left="x > 0", right="x > 0", id="b"),
                record(op="sat", pred="x > 1", id="c"),
            ])
            stats = server.server_stats()
            assert stats["uptime_s"] >= 0.0
            assert re.match(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$",
                            stats["started_at"])
            assert stats["requests"]["completed"] == 3
            assert stats["requests"]["by_op"] == {"equiv": 1, "sat": 2}
            # The single latency sample is split into queue wait vs execution.
            for window in ("latency_ms", "queue_ms", "exec_ms"):
                block = stats[window]
                assert block["count"] == 3
                for quantile in ("p50", "p90", "p99", "max"):
                    assert block[quantile] >= 0.0
            # queue + exec compose into end-to-end latency (same clock reads).
            assert stats["latency_ms"]["max"] >= stats["exec_ms"]["p50"] - 0.001
        finally:
            server.shutdown()

    def test_metrics_op_over_protocol(self, backend):
        server = QueryServer(workers=2, backend=backend, default_theory="incnat")
        try:
            out = _serve_requests(server, [
                record(op="sat", pred="x > 0", id="a"),
            ])
            assert out["a"]["ok"] is True
            # Ask once the request has completed; the control op itself
            # answers inline from whatever has been recorded so far.
            out = _serve_requests(server, [record(op="metrics", id="m")])
            snapshot = out["m"]["result"]
            entries = snapshot["counters"]["requests_total"]
            sat = [e for e in entries if e["labels"].get("op") == "sat"]
            assert sat and sat[0]["value"] == 1
            assert sat[0]["labels"]["theory"] == "incnat"
            (hist,) = [h for h in snapshot["histograms"]["request_latency_ms"]
                       if h["labels"].get("op") == "sat"]
            assert hist["count"] == 1
            assert sum(hist["counts"]) == hist["count"]
            gauges = snapshot["gauges"]
            assert gauges["workers"] == [{"labels": {}, "value": 2}]
            assert gauges["uptime_seconds"][0]["value"] >= 0.0
        finally:
            server.shutdown()

    def test_slow_query_log_no_client_trace(self, backend, tmp_path, quiet_logging):
        path = tmp_path / "slow.jsonl"
        configure_logging(level="warning", log_file=str(path))
        server = QueryServer(workers=2, backend=backend, default_theory="incnat",
                             slow_query_ms=0.0)
        try:
            out = _serve_requests(server, [
                record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)",
                       id="q"),
            ])
            assert "trace" not in out["q"]
        finally:
            server.shutdown()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        slow = [e for e in events if e["event"] == "slow_query"]
        assert len(slow) == 1
        assert slow[0]["op"] == "equiv"
        assert "normalize" in slow[0]["phases"]
        assert slow[0]["queue_ms"] >= 0.0
        assert slow[0]["total_ms"] >= slow[0]["exec_ms"] - 0.001

    def test_internal_error_is_logged(self, backend, tmp_path, quiet_logging,
                                      monkeypatch):
        path = tmp_path / "errors.jsonl"
        configure_logging(level="error", log_file=str(path))
        # An oracle failing with an error no query path classifies:
        # time.sleep(inf) in the latency wrapper raises OverflowError.
        monkeypatch.setenv("KMT_TEST_ORACLE_DELAY_MS", "inf")
        stdout = io.StringIO()
        with QueryServer(workers=1, backend=backend,
                         theory_factory_spec="repro.engine.testing:oracle_latency_factory") \
                as server:
            serve_stdio(io.StringIO(record(op="equiv", id="a", left="x > 1; inc(x)",
                                           right="inc(x)") + "\n"), stdout, server)
        (response,) = _responses(stdout)
        assert response["error_code"] == "internal_error"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        errors = [e for e in events if e["event"] == "internal_error"]
        assert len(errors) == 1
        assert errors[0]["request_id"] == "a"
        assert errors[0]["op"] == "equiv"
        assert errors[0]["theory"] == "incnat"
        assert "OverflowError" in errors[0]["error"]


class TestCountedBeforeWritten:
    """A response is written only after the request is in ``stats`` and
    ``metrics``: a client that reads its answer and then asks must find it."""

    def test_write_sees_the_request_counted(self):
        server = QueryServer(workers=1, default_theory="incnat")
        seen = []

        def write(line):
            requests = server.server_stats()["requests"]
            counters = server.metrics_snapshot()["counters"]["requests_total"]
            seen.append((requests["completed"], requests["by_op"],
                         sum(entry["value"] for entry in counters)))

        sink = ResponseSink(write)
        with server:
            server.submit_line(record(op="sat", pred="x > 0"), sink)
            server.submit_line(record(op="sat", pred="x > !!!"), sink)
            server.wait_idle(timeout=60)
        assert seen == [(1, {"sat": 1}, 1), (2, {"sat": 2}, 2)]


class TestServerMetricsSnapshot:
    def test_cache_counters_appear(self):
        server = QueryServer(workers=1, backend="thread", default_theory="incnat")
        try:
            _serve_requests(server, [
                record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)",
                       id="q"),
            ])
            snapshot = server.metrics_snapshot()
            misses = snapshot["counters"]["cache_misses_total"]
            tables = {e["labels"]["table"] for e in misses
                      if e["labels"]["theory"] == "incnat"}
            assert "norm" in tables
            # Gauges are sampled at snapshot time, next to the counters.
            assert snapshot["gauges"]["workers"] == [{"labels": {}, "value": 1}]
        finally:
            server.shutdown()

    def test_rejected_counter(self):
        server = QueryServer(workers=1, backend="thread", default_theory="incnat")
        try:
            out = _serve_requests(server, [record(op="launch_missiles", id="bad")])
            assert out["bad"]["ok"] is False
            snapshot = server.metrics_snapshot()
            (entry,) = snapshot["counters"]["rejected_total"]
            assert entry["value"] == 1
        finally:
            server.shutdown()

    def test_untraced_request_costs_one_inc_and_three_observes(self, monkeypatch):
        """The always-on telemetry's whole per-request price, counted: an
        untraced request builds no trace, logs nothing at the default level,
        and touches the registry exactly four times."""
        from repro.utils.trace import Trace

        traces = []
        init = Trace.__init__

        def counting_init(self, *args, **kwargs):
            traces.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Trace, "__init__", counting_init)
        records = []
        # WARNING is the threshold the silent-by-default hierarchy inherits
        # from the root logger; pinning it on the handler keeps the check
        # independent of levels other tests leave on the "kmt" logger.
        handler = logging.Handler(level=logging.WARNING)
        handler.emit = records.append
        server = QueryServer(workers=1, backend="thread", default_theory="incnat")
        updates = []
        for method in ("inc", "observe", "set_gauge"):
            original = getattr(server.metrics, method)

            def spy(*args, _method=method, _original=original, **kwargs):
                updates.append((_method, args[0]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(server.metrics, method, spy)
        logger = logging.getLogger("kmt")
        logger.addHandler(handler)
        try:
            out = _serve_requests(server, [
                record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)", id="q"),
            ])
        finally:
            logger.removeHandler(handler)
            server.shutdown()
        assert out["q"]["ok"] is True and "trace" not in out["q"]
        assert traces == []
        assert records == []
        assert sorted(updates) == [
            ("inc", "requests_total"),
            ("observe", "exec_latency_ms"),
            ("observe", "queue_latency_ms"),
            ("observe", "request_latency_ms"),
        ]


class TestExporterAgainstLiveServer:
    def test_scrape_has_per_theory_histogram_buckets(self):
        server = QueryServer(workers=2, backend="thread", default_theory="incnat")
        try:
            _serve_requests(server, [
                record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)",
                       id="q", theory="incnat"),
            ])
            with MetricsExporter(server.metrics_prometheus) as exporter:
                url = f"http://{exporter.host}:{exporter.port}/metrics"
                with urllib.request.urlopen(url, timeout=5) as response:
                    assert response.status == 200
                    text = response.read().decode("utf-8")
            buckets = re.findall(
                r'kmt_request_latency_ms_bucket\{le="([^"]+)",op="equiv",'
                r'theory="incnat"\} (\d+)', text)
            assert buckets, text
            assert buckets[-1][0] == "+Inf" and int(buckets[-1][1]) == 1
            counts = [int(c) for _, c in buckets]
            assert counts == sorted(counts)
            assert "# TYPE kmt_requests_total counter" in text
        finally:
            server.shutdown()


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


class TestCliObservability:
    def test_batch_slow_query_flags(self, tmp_path, capsys, quiet_logging):
        batch_file = tmp_path / "requests.jsonl"
        batch_file.write_text(
            record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)", id="q")
            + "\n")
        log_file = tmp_path / "events.jsonl"
        code = main(["--theory", "incnat", "batch", str(batch_file),
                     "--slow-query-ms", "0", "--log-file", str(log_file)])
        assert code == 0
        (response,) = [json.loads(line) for line in
                       capsys.readouterr().out.splitlines()]
        assert response["ok"] is True and "trace" not in response
        events = [json.loads(line) for line in log_file.read_text().splitlines()]
        assert [e for e in events if e["event"] == "slow_query"]

    def test_batch_log_level_to_stderr(self, tmp_path, capsys, quiet_logging):
        batch_file = tmp_path / "requests.jsonl"
        batch_file.write_text(record(op="sat", pred="x > 0") + "\n")
        code = main(["--theory", "incnat", "batch", str(batch_file),
                     "--log-level", "debug"])
        assert code == 0

    def test_serve_stdio_with_metrics_endpoint(self, tmp_path, capsys,
                                               monkeypatch, quiet_logging):
        import sys

        lines = [
            record(op="equiv", left="inc(x); x > 1", right="x > 0; inc(x)", id="q"),
            record(op="quit"),
        ]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["--theory", "incnat", "serve", "--workers", "2",
                     "--metrics", "127.0.0.1:0",
                     "--slow-query-ms", "1e9",
                     "--log-file", str(tmp_path / "events.jsonl")])
        captured = capsys.readouterr()
        assert code == 0
        assert "# metrics on http://127.0.0.1:" in captured.err
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert any(r.get("id") == "q" and r.get("ok") for r in responses)

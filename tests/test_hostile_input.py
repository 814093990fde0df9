"""Hostile input gets exactly one well-formed answer, and the stream goes on.

Two shapes of over-deep input are covered on every path a line can take:

* a request line whose JSON nests 200,000 arrays deep — ``json.loads``
  raises ``RecursionError`` on it — answers ``malformed_request`` with the
  client's fallback id (batch, stdio serve, the socket server, the router),
  and ``kmt query`` rejects it as a usage error;
* a well-formed request whose *content* nests too deeply for the parser or
  the normalizer (3,000 parentheses, a 1,000-statement program) answers
  ``input_too_deep`` (batch, thread backend, process backend).

After either, the same connection or session answers the next well-formed
query correctly.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.engine.client import SocketClient
from repro.engine.router import Router
from repro.engine.server import (
    QueryServer,
    ResponseSink,
    SocketServer,
    run_batch_lines,
    serve_stdio,
)

DEEP_JSON = "[" * 200_000 + "]" * 200_000
NEXT = json.dumps({"op": "sat", "pred": "x > 1"})
DEEP_PRED = json.dumps({"op": "sat", "pred": "(" * 3000 + "x > 1" + ")" * 3000})
LONG_PROGRAM = json.dumps({"op": "verify", "pre": "x > 0",
                           "program": "inc(x);\n" * 1000, "post": "x > 1"})


class ListSink(ResponseSink):
    def __init__(self):
        self.responses = []
        super().__init__(lambda line: self.responses.append(json.loads(line)))


def _assert_malformed_then_answered(responses, fallback_id):
    assert len(responses) == 2
    hostile, following = responses
    assert hostile["ok"] is False
    assert hostile["error_code"] == "malformed_request"
    assert hostile["id"] == fallback_id
    assert following["ok"] is True
    assert following["result"] == {"satisfiable": True}


class TestDeeplyNestedJsonLine:
    def test_batch(self):
        responses, _ = run_batch_lines([DEEP_JSON, NEXT])
        _assert_malformed_then_answered(responses, 0)

    def test_batch_cli_exits_with_error_records(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "hostile.jsonl"
        path.write_text(DEEP_JSON + "\n" + NEXT + "\n")
        assert main(["batch", str(path)]) == 1  # one error record, no traceback
        replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        _assert_malformed_then_answered(replies, 0)

    def test_query_cli_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "hostile.json"
        path.write_text(DEEP_JSON)
        # Rejected before any connection is attempted.
        assert main(["query", "--connect", "127.0.0.1:9", f"@{path}"]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_stdio_serve(self):
        stdout = io.StringIO()
        with QueryServer(workers=1) as server:
            serve_stdio(io.StringIO(DEEP_JSON + "\n" + NEXT + "\n"), stdout, server,
                        ordered=True)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        _assert_malformed_then_answered(replies, 0)

    def test_socket_server(self):
        with SocketServer(QueryServer(workers=1), port=0, ordered=True) as server:
            with SocketClient("127.0.0.1", server.port, io_timeout=30.0) as client:
                client.send_line(DEEP_JSON)
                client.send_line(NEXT)
                replies = [client.recv_record(), client.recv_record()]
        _assert_malformed_then_answered(replies, 0)

    def test_router(self):
        with SocketServer(QueryServer(workers=1), port=0) as backend:
            router = Router([("127.0.0.1", backend.port)], probe_interval=60.0)
            router.start()
            try:
                assert router.wait_all_up(timeout=10.0)
                sink = ListSink()
                assert router.submit_line(DEEP_JSON, sink, lineno=0) == "error"
                assert router.submit_line(NEXT, sink, lineno=1) == "queued"
                assert router.wait_idle(timeout=30.0)
            finally:
                router.shutdown(drain=False)
        _assert_malformed_then_answered(sink.responses, 0)


def _assert_too_deep_then_answered(responses):
    assert [r["id"] for r in responses] == [0, 1, 2, 3]
    for too_deep in (responses[0], responses[2]):
        assert too_deep["ok"] is False
        assert too_deep["error_code"] == "input_too_deep"
    for following in (responses[1], responses[3]):
        assert following["ok"] is True
        assert following["result"] == {"satisfiable": True}


class TestInputTooDeep:
    LINES = [DEEP_PRED, NEXT, LONG_PROGRAM, NEXT]

    def test_batch(self):
        responses, pool = run_batch_lines(self.LINES)
        _assert_too_deep_then_answered(responses)
        # One session (one stripe) answered all four lines.
        assert pool.stats()["incnat"]["stripes"] == 1

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_server_backend(self, backend):
        with QueryServer(workers=1, stripes=1, backend=backend) as server:
            assert server.wait_ready(timeout=60)
            sink = ListSink()
            for lineno, line in enumerate(self.LINES):
                server.submit_line(line, sink, lineno=lineno)
            assert server.wait_idle(timeout=60)
        _assert_too_deep_then_answered(sorted(sink.responses, key=lambda r: r["id"]))

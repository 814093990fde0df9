"""A client that stops reading costs the front end nothing but itself.

``kmt serve --socket`` and ``kmt route`` share one per-connection writer:
a response the client's socket can take is written by the thread that
produced it, and the rest waits in a backlog of at most
``_WRITER_QUEUE_LIMIT`` responses.  A client further behind than that has
its sink turned broken, so no worker or router link reader ever blocks on
it, other clients keep getting answers, and ``close()`` returns within its
timeouts.  Once its sink is broken the front end stops reading that
client's requests, so the server stops executing work nobody will read.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.engine import server as server_module
from repro.engine.client import SocketClient
from repro.engine.router import Router
from repro.engine.server import (
    _WRITER_QUEUE_LIMIT,
    QueryServer,
    SocketServer,
    _ConnectionWriter,
)

#: A 1 KB ``norm`` query whose answer (50 × 50 summands) is about 65 KB, so
#: a few hundred of them overflow any socket buffer.
BIG_QUERY = {"op": "norm", "term": "({}); ({})".format(
    " + ".join(f"inc(x{i})" for i in range(50)),
    " + ".join(f"inc(y{i})" for i in range(50)))}

#: More responses than the backlog holds, even after the kernel's buffers.
FLOOD = _WRITER_QUEUE_LIMIT + 150

#: Requests the slow client sends in all: well past what the front end has
#: read when the sink breaks plus what its queues can still hold then.
SENT = 4 * FLOOD


@pytest.fixture
def sinks(monkeypatch):
    """Every response sink the socket front ends create during the test."""
    made = []

    class RecordingSink(server_module.ResponseSink):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(server_module, "ResponseSink", RecordingSink)
    return made


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _send_flood(slow):
    flood = "".join(json.dumps(dict(BIG_QUERY, id=i)) + "\n" for i in range(SENT))
    try:
        slow.sendall(flood.encode("utf-8"))
    except OSError:
        pass  # the front end stopped reading and closed the connection


def _wait_until_settled(completed, quiet=1.0, timeout=60.0):
    """``completed()`` once it has not moved for ``quiet`` seconds."""
    deadline = time.monotonic() + timeout
    last, since = completed(), time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.05)
        now = completed()
        if now != last:
            last, since = now, time.monotonic()
        elif time.monotonic() - since >= quiet:
            return now
    raise AssertionError(f"completed count still growing after {timeout} s")


def _check_slow_reader_is_cut_off(front, sinks, completed):
    """Flood ``front`` from a client that never reads, then check that the
    server stops executing its requests, that a second client is still
    answered and that ``close()`` is prompt.  ``completed`` reads the count
    of requests the executing server has finished."""
    slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    slow.settimeout(30.0)  # a front end that stops reading fails, not hangs
    sender = threading.Thread(target=_send_flood, args=(slow,), daemon=True)
    closed = False
    try:
        slow.connect(("127.0.0.1", front.port))
        sender.start()
        _wait_for(lambda: any(sink.broken for sink in sinks),
                  message="the slow client's sink to go broken")
        settled = _wait_until_settled(completed)
        assert settled < SENT, "the server kept executing a broken client's requests"

        with SocketClient("127.0.0.1", front.port, io_timeout=30.0) as fast:
            for i in range(5):
                response = fast.request({"op": "equiv", "id": f"fast{i}",
                                         "left": f"inc(x); x > {i + 1}",
                                         "right": f"x > {i}; inc(x)"})
                assert response["ok"] is True
                assert response["result"]["equivalent"] is True
        assert sum(sink.broken for sink in sinks) == 1  # only the slow client's

        started = time.monotonic()
        closed = True
        front.close()
        assert time.monotonic() - started < 10.0  # no writer waited out its timeout
    finally:
        slow.close()
        sender.join(timeout=30.0)
        if not closed:
            front.close(drain=False)


def _completed(query_server):
    return lambda: query_server.server_stats()["requests"]["completed"]


def test_serve_socket_cuts_off_only_the_slow_reader(sinks):
    server = QueryServer(workers=2)
    _check_slow_reader_is_cut_off(
        SocketServer(server, port=0).start(), sinks, _completed(server))


def test_route_cuts_off_only_the_slow_reader(sinks):
    server = QueryServer(workers=2)
    backend = SocketServer(server, port=0).start()
    try:
        router = Router([("127.0.0.1", backend.port)], probe_interval=60.0)
        front = SocketServer(router, port=0).start()
        assert router.wait_all_up(timeout=10.0)
        _check_slow_reader_is_cut_off(front, sinks, _completed(server))
    finally:
        backend.close(drain=False)


def test_concurrent_writers_keep_every_line_whole_and_in_order():
    """Inline sends and the backlog interleave without losing, splitting or
    reordering a line: each emitter's lines arrive whole, in its order."""
    ours, theirs = socket.socketpair()
    writer = _ConnectionWriter(ours)
    emitters, per_emitter = 8, _WRITER_QUEUE_LIMIT // 8  # never overflows
    lock = threading.Lock()  # stands in for the response sink's lock
    received = []

    def read():
        buffer = b""
        while True:
            chunk = theirs.recv(16384)
            if not chunk:
                break
            buffer += chunk
            time.sleep(0.005)  # slower than the emitters: a backlog forms and drains
        received.extend(buffer.decode("utf-8").splitlines())

    def emit(index):
        for n in range(per_emitter):
            with lock:
                writer.write_line(json.dumps({"emitter": index, "n": n,
                                              "pad": "x" * 2000}))
            if n % 8 == 7:
                time.sleep(0.05)  # pause: the backlog drains, inline sends resume

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        threads = [threading.Thread(target=emit, args=(i,), daemon=True)
                   for i in range(emitters)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        writer.close(timeout=30.0)
        ours.shutdown(socket.SHUT_WR)
        reader.join(timeout=30.0)
        assert not reader.is_alive()
    finally:
        sys.setswitchinterval(interval)
        ours.close()
        theirs.close()
    records = [json.loads(line) for line in received]
    for index in range(emitters):
        assert [r["n"] for r in records if r["emitter"] == index] == \
            list(range(per_emitter))

"""Cluster router tests: the consistent-hash ring's contracts, admission
control, and the full failover story over live (and scripted) backends.

The ring properties are the load-bearing ones — *stable assignment* and
*minimal remapping* are what make the router's cache-affinity claims true —
so they are pinned with Hypothesis over key sets and ring sizes, plus an
explicit check that the router and the in-server stripe picker agree on the
routing key for every query op.
"""

import json
import socket
import sys
import threading
import time

import pytest

from hypothesis import given, settings, strategies as st

from repro.engine.batch import (
    ERROR_BACKEND_DOWN,
    ERROR_INVALID,
    ERROR_QUEUE_FULL,
    ERROR_RATE_LIMITED,
    ERROR_SHUTDOWN,
    QUERY_OPS,
)
from repro.engine.router import (
    ConsistentHashRing,
    Router,
    TokenBucket,
    parse_backends,
)
from repro.engine.server import (
    QueryServer,
    ResponseSink,
    SocketServer,
    _affinity_stripe,
    affinity_hash,
)
from repro.utils.errors import KmtError


class ListSink(ResponseSink):
    def __init__(self, ordered=False):
        self.responses = []
        super().__init__(lambda line: self.responses.append(json.loads(line)),
                         ordered=ordered)


def record(**fields):
    return json.dumps(fields)


def equiv_line(i, **extra):
    return record(op="equiv", left=f"inc(x); x > {i + 1}",
                  right=f"x > {i}; inc(x)", **extra)


# ---------------------------------------------------------------------------
# consistent-hash ring properties
# ---------------------------------------------------------------------------

_nodes = st.sets(
    st.integers(min_value=0, max_value=99).map(lambda i: f"10.0.0.{i}:7000"),
    min_size=1, max_size=8)
_keys = st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                 min_size=1, max_size=64)


class TestConsistentHashRing:
    @settings(max_examples=50, deadline=None)
    @given(nodes=_nodes, keys=_keys)
    def test_assignment_is_stable_and_order_independent(self, nodes, keys):
        """Same membership -> same owners, however the ring was assembled."""
        ordered = sorted(nodes)
        forward = ConsistentHashRing(ordered, replicas=16)
        backward = ConsistentHashRing(reversed(ordered), replicas=16)
        rebuilt = ConsistentHashRing(replicas=16)
        for node in ordered:
            rebuilt.add(node)
        for key in keys:
            owner = forward.lookup(key)
            assert owner in nodes
            assert backward.lookup(key) == owner
            assert rebuilt.lookup(key) == owner

    @settings(max_examples=50, deadline=None)
    @given(nodes=_nodes, keys=_keys, data=st.data())
    def test_leave_remaps_only_the_leavers_keys(self, nodes, keys, data):
        ring = ConsistentHashRing(nodes, replicas=16)
        leaver = data.draw(st.sampled_from(sorted(nodes)))
        before = {key: ring.lookup(key) for key in keys}
        ring.remove(leaver)
        for key in keys:
            after = ring.lookup(key)
            if before[key] != leaver:
                assert after == before[key]
            elif len(nodes) > 1:
                assert after is not None and after != leaver
            else:
                assert after is None

    @settings(max_examples=50, deadline=None)
    @given(nodes=_nodes, keys=_keys)
    def test_join_steals_keys_only_for_itself(self, nodes, keys):
        ring = ConsistentHashRing(nodes, replicas=16)
        before = {key: ring.lookup(key) for key in keys}
        joiner = "joiner.example:7999"
        ring.add(joiner)
        for key in keys:
            assert ring.lookup(key) in (before[key], joiner)

    @settings(max_examples=50, deadline=None)
    @given(nodes=_nodes, keys=_keys)
    def test_preference_is_the_failover_order(self, nodes, keys):
        """preference()[1] is exactly where a key lands when its owner dies."""
        ring = ConsistentHashRing(nodes, replicas=16)
        for key in keys:
            order = ring.preference(key)
            assert order[0] == ring.lookup(key)
            assert sorted(order) == sorted(nodes)  # distinct, exhaustive
            if len(nodes) > 1:
                survivor = ConsistentHashRing(nodes, replicas=16)
                survivor.remove(order[0])
                assert survivor.lookup(key) == order[1]

    def test_membership_bookkeeping(self):
        ring = ConsistentHashRing(["a:1", "b:2"], replicas=8)
        assert len(ring) == 2 and "a:1" in ring and "c:3" not in ring
        ring.add("a:1")  # idempotent
        assert len(ring) == 2
        ring.remove("c:3")  # absent: no-op
        ring.remove("a:1")
        ring.remove("b:2")
        assert ring.lookup(123) is None and ring.preference(123) == []
        with pytest.raises(ValueError):
            ConsistentHashRing(replicas=0)


# ---------------------------------------------------------------------------
# router / server routing-key agreement
# ---------------------------------------------------------------------------

_SAMPLE_QUERIES = {
    "equiv": {"op": "equiv", "left": "inc(x); x > 1", "right": "x > 0; inc(x)"},
    "leq": {"op": "leq", "left": "x > 1", "right": "x > 0"},
    "inclusion": {"op": "inclusion", "left": "x > 1", "right": "x > 0"},
    "member": {"op": "member", "term": "inc(x)*", "word": ["inc(x)"],
               "pred": "x > 0"},
    "norm": {"op": "norm", "term": "inc(x); x > 1"},
    "sat": {"op": "sat", "pred": "x > 3"},
    "empty": {"op": "empty", "term": "x > 1; x < 1"},
    "verify": {"op": "verify", "pre": "x > 0", "program": "inc(x)",
               "post": "x > 1"},
    "prog_equiv": {"op": "prog_equiv", "left": "inc(x)", "right": "inc(x)"},
    "dead_code": {"op": "dead_code", "program": "if x > 0 { inc(x) }"},
}


class TestRoutingKeyAgreement:
    def test_every_query_op_has_a_sample(self):
        assert sorted(_SAMPLE_QUERIES) == sorted(QUERY_OPS)

    @pytest.mark.parametrize("op", sorted(QUERY_OPS))
    def test_ring_key_and_stripe_share_one_hash(self, op):
        """The server's stripe picker is the router's ring key mod stripes —
        same backend, same warm stripe, through the router or direct."""
        base = dict(_SAMPLE_QUERIES[op])
        for stripes in (1, 2, 4, 7):
            assert _affinity_stripe(base, stripes) == affinity_hash(base) % stripes

    @pytest.mark.parametrize("op", sorted(QUERY_OPS))
    def test_affinity_ignores_identity_fields(self, op):
        """id/priority never shift routing: repeats stay on warm caches."""
        base = dict(_SAMPLE_QUERIES[op])
        decorated = dict(base, id="q999", priority=7)
        assert affinity_hash(decorated) == affinity_hash(base)
        assert _affinity_stripe(decorated, 4) == _affinity_stripe(base, 4)

    def test_content_changes_the_key(self):
        a = {"op": "sat", "pred": "x > 3"}
        b = {"op": "sat", "pred": "x > 4"}
        assert affinity_hash(a) != affinity_hash(b)


# ---------------------------------------------------------------------------
# admission control primitives
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3)
        # Synthetic clock: anchored after construction (the bucket's refill
        # baseline is the real monotonic clock at __init__).
        t0 = time.monotonic() + 100.0
        assert [bucket.allow(t0) for _ in range(3)] == [True, True, True]
        assert bucket.allow(t0) is False
        assert bucket.allow(t0 + 0.05) is False  # half a token: still short
        assert bucket.allow(t0 + 0.15) is True   # 1.5 tokens banked
        assert bucket.allow(t0 + 0.15) is False

    def test_bank_is_capped_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        t0 = time.monotonic() + 100.0
        bucket.allow(t0)
        results = [bucket.allow(t0 + 60.0) for _ in range(3)]
        assert results == [True, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestParseBackends:
    def test_parses_and_orders(self):
        assert parse_backends(["127.0.0.1:7001", "h2:7002"]) == \
            [("127.0.0.1", 7001), ("h2", 7002)]

    @pytest.mark.parametrize("specs", [[], ["no-port"], ["host:"], [":7001"],
                                       ["h:70x1"], ["h:1", "h:1"]])
    def test_rejects_bad_specs(self, specs):
        with pytest.raises(KmtError):
            parse_backends(specs)


# ---------------------------------------------------------------------------
# router unit behaviour (no live backends needed)
# ---------------------------------------------------------------------------

class TestRouterIntake:
    def test_priority_must_be_a_number(self):
        router = Router(["127.0.0.1:1"])
        sink = ListSink()
        outcome = router.submit_line(
            record(op="sat", pred="x > 0", id="q0", priority="high"), sink)
        assert outcome == "error"
        (response,) = sink.responses
        assert response["ok"] is False
        assert response["error_code"] == ERROR_INVALID
        assert response["id"] == "q0"

    def test_rate_limit_rejects_after_burst(self):
        router = Router(["127.0.0.1:1"], rate_limit=1000.0, rate_burst=1)
        sink = ListSink()
        first = router.submit_line(record(op="sat", pred="x > 0", id="q0"), sink)
        second = router.submit_line(record(op="sat", pred="x > 1", id="q1"), sink)
        assert (first, second) == ("queued", "rejected")
        by_id = {r["id"]: r for r in sink.responses}
        # q0 was admitted (and, with no live backend, answered backend_down);
        # q1 hit the empty bucket before costing anything.
        assert by_id["q0"]["error_code"] == ERROR_BACKEND_DOWN
        assert by_id["q1"]["error_code"] == ERROR_RATE_LIMITED
        assert "rate_limited" in router.router_stats()["requests"]["errors"]

    @pytest.mark.parametrize("burst", [0, -1.5])
    def test_non_positive_rate_burst_rejected_up_front(self, burst):
        # A zero bucket would otherwise raise inside the connection thread on
        # the client's first request, which then never gets an answer.
        with pytest.raises(ValueError, match="rate_burst"):
            Router(["127.0.0.1:1"], rate_limit=5.0, rate_burst=burst)

    def test_empty_ring_answers_backend_down(self):
        router = Router([("127.0.0.1", 1)])  # never started: ring stays empty
        sink = ListSink()
        assert router.submit_line(record(op="sat", pred="x > 0", id="q0"),
                                  sink) == "queued"
        (response,) = sink.responses
        assert response["ok"] is False
        assert response["error_code"] == ERROR_BACKEND_DOWN
        assert "retries" not in response  # nothing was ever dispatched
        assert router.wait_idle(timeout=1.0)  # capacity fully released

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Router(["127.0.0.1:1"], queue_limit=0)
        with pytest.raises(ValueError):
            Router(["127.0.0.1:1"], rate_limit=-1)


# ---------------------------------------------------------------------------
# scripted backends: deterministic failure modes
# ---------------------------------------------------------------------------

class ScriptedBackend:
    """A protocol-fluent fake backend with a scripted failure mode.

    Always answers ``ping`` (so the router's revive probe admits it to the
    ring); queries are handled per ``mode``:

    * ``"flaky"`` — drop the connection on the first query (the in-band
      EOF/reset failure signal), forcing a failover retry;
    * ``"blackhole"`` — swallow queries silently (accepted but never
      answered), holding router capacity forever;
    * ``"jam"`` — stop reading after the revive ping, so the router's sends
      block once the socket buffers fill; :meth:`release` resumes reading,
      after which queries are swallowed as in ``"blackhole"``.
    """

    def __init__(self, mode):
        self.mode = mode
        self.queries_seen = []
        self._released = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self.key = f"{self.host}:{self.port}"
        self._closing = False
        self._conns = []
        self._lock = threading.Lock()
        self._accept = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept.start()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                if self._closing:
                    return
                continue
            except OSError:
                return
            conn.settimeout(None)
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._conns.append(conn)
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True).start()

    def _serve_conn(self, conn):
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        try:
            for raw in reader:
                request = json.loads(raw)
                if request.get("op") == "ping":
                    reply = {"id": request.get("id"), "op": "ping", "ok": True,
                             "result": {"pong": True}}
                    conn.sendall((json.dumps(reply) + "\n").encode("utf-8"))
                    if self.mode == "jam":
                        self._released.wait()
                    continue
                with self._lock:
                    self.queries_seen.append(request)
                if self.mode == "flaky":
                    conn.shutdown(socket.SHUT_RDWR)
                    return
                # blackhole: accepted, never answered
        except (OSError, ValueError, json.JSONDecodeError):
            pass

    def release(self):
        self._released.set()

    def close(self):
        with self._lock:
            self._closing = True
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._listener.close()
        self.release()  # a jammed reader wakes up to EOF and exits


def _keyed_lines(router, owner_key, count, start=0):
    """Query lines whose affinity key the ring assigns to ``owner_key``."""
    lines = []
    i = start
    while len(lines) < count:
        line = equiv_line(i, id=f"q{i}")
        if router.ring.lookup(affinity_hash(json.loads(line))) == owner_key:
            lines.append(line)
        i += 1
        assert i < start + 10_000, "no keys map to this backend?!"
    return lines


def _wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _block_link_sender(router, owner_key, sink, stop):
    """Start a thread submitting 512 KB queries owned by ``owner_key`` until
    one of its sends blocks on that backend's full socket buffers; return
    the thread and the ids it submits (each listed before its submission).

    The thread stops at its next submission once ``stop`` is set or the
    router refuses a query.
    """
    pad = " " * (512 * 1024)
    submitted = []

    def fill():
        i = 0
        while not stop.is_set() and len(submitted) < 64:
            fields = {"op": "sat", "pred": f"x > {i}{pad}", "id": f"fill{i}"}
            i += 1
            if router.ring.lookup(affinity_hash(fields)) != owner_key:
                continue
            submitted.append(fields["id"])
            if router.submit_line(json.dumps(fields), sink) != "queued":
                return

    thread = threading.Thread(target=fill, daemon=True)
    thread.start()
    # Blocked: alive, yet no new submission for a whole second.
    seen = -1
    while seen != len(submitted):
        seen = len(submitted)
        time.sleep(1.0)
        assert thread.is_alive() and len(submitted) < 64, \
            "the filler never blocked on the backend's socket"
    return thread, submitted


# ---------------------------------------------------------------------------
# live integration: routing, affinity, fan-out, failover
# ---------------------------------------------------------------------------

@pytest.fixture
def two_backends():
    with SocketServer(QueryServer(workers=2), port=0) as a, \
            SocketServer(QueryServer(workers=2), port=0) as b:
        router = Router([("127.0.0.1", a.port), ("127.0.0.1", b.port)],
                        probe_interval=60.0)
        router.start()
        assert router.wait_all_up(timeout=10.0)
        try:
            yield router, a, b
        finally:
            router.shutdown(drain=False)


class TestRouterIntegration:
    def test_routes_answers_and_restores_ids(self, two_backends):
        router, _, _ = two_backends
        sink = ListSink()
        total = 16
        for i in range(total):
            assert router.submit_line(equiv_line(i, id=f"q{i}"), sink) == "queued"
        assert router.wait_idle(timeout=30.0)
        assert sorted(r["id"] for r in sink.responses) == \
            sorted(f"q{i}" for i in range(total))
        for response in sink.responses:
            assert response["ok"] is True
            assert response["result"]["equivalent"] is True
            assert "retries" not in response  # healthy cluster: zero retries
        stats = router.router_stats()
        assert stats["requests"]["completed"] == total
        assert stats["requests"]["retried"] == 0
        routed = [info["routed"] for info in stats["backends"].values()]
        assert sum(routed) == total
        assert all(info["state"] == "up" for info in stats["backends"].values())

    def test_affinity_is_sticky(self, two_backends):
        """Identical content always routes to the ring owner — the backend
        whose stripe caches are warm for it."""
        router, _, _ = two_backends
        line = equiv_line(3)
        owner = router.ring.lookup(affinity_hash(json.loads(line)))
        before = {k: link.routed for k, link in router._links.items()}
        sink = ListSink()
        for i in range(6):
            router.submit_line(equiv_line(3, id=f"r{i}"), sink)
        assert router.wait_idle(timeout=30.0)
        for key, link in router._links.items():
            expected = 6 if key == owner else 0
            assert link.routed - before[key] == expected

    def test_missing_id_uses_line_number_fallback(self, two_backends):
        router, _, _ = two_backends
        sink = ListSink()
        router.submit_line(equiv_line(0), sink, lineno=41)
        assert router.wait_idle(timeout=30.0)
        (response,) = sink.responses
        assert response["id"] == 41

    def test_stats_and_metrics_fan_out(self, two_backends):
        router, _, _ = two_backends
        sink = ListSink()
        for i in range(4):
            router.submit_line(equiv_line(i, id=f"q{i}"), sink)
        assert router.wait_idle(timeout=30.0)

        assert router.submit_line(record(op="stats", id="s1"), sink) == "control"
        stats = next(r for r in sink.responses if r["id"] == "s1")
        assert stats["ok"] is True
        merged = stats["result"]
        assert "incnat" in merged  # merged per-theory pool blocks
        block = merged["router"]
        assert sorted(block["ring"]["nodes"]) == sorted(router._links)
        assert block["queue"]["limit"] == router.queue_limit
        assert block["requests"]["completed"] == 4
        assert sorted(block["backend_servers"]) == sorted(router._links)

        assert router.submit_line(record(op="metrics", id="m1"), sink) == "control"
        metrics = next(r for r in sink.responses if r["id"] == "m1")
        counters = metrics["result"]["counters"]
        assert "router_requests_total" in counters   # the router's own
        assert "requests_total" in counters          # merged from backends
        routed_total = sum(entry["value"]
                           for entry in counters["router_requests_total"])
        assert routed_total == 4

    def test_ping_is_local_and_lists_membership(self, two_backends):
        router, _, _ = two_backends
        sink = ListSink()
        assert router.submit_line(record(op="ping", id="p1"), sink) == "control"
        (response,) = sink.responses
        assert response["ok"] is True
        assert response["result"]["router"] is True
        assert sorted(response["result"]["backends_up"]) == sorted(router._links)
        assert response["result"]["backends_down"] == []

    def test_failover_retries_on_next_replica(self):
        """A backend dropping mid-flight costs a retry, never an id."""
        flaky = ScriptedBackend("flaky")
        with SocketServer(QueryServer(workers=2), port=0) as real:
            router = Router([("127.0.0.1", real.port), (flaky.host, flaky.port)],
                            probe_interval=60.0)
            router.start()
            try:
                assert router.wait_all_up(timeout=10.0)
                flaky_lines = _keyed_lines(router, flaky.key, 3)
                real_key = f"127.0.0.1:{real.port}"
                real_lines = _keyed_lines(router, real_key, 3, start=10_000)
                sink = ListSink()
                for line in flaky_lines + real_lines:
                    router.submit_line(line, sink)
                assert router.wait_idle(timeout=30.0)

                wanted = sorted(json.loads(line)["id"]
                                for line in flaky_lines + real_lines)
                assert sorted(r["id"] for r in sink.responses) == wanted  # no loss, no dups
                for response in sink.responses:
                    assert response["ok"] is True
                    assert response["result"]["equivalent"] is True
                retried = [r for r in sink.responses if r.get("retries")]
                assert retried, "no response records a failover retry"
                assert all(r["retries"] >= 1 for r in retried)

                stats = router.router_stats()
                assert stats["backends"][flaky.key]["state"] == "down"
                assert stats["backends"][flaky.key]["ejections"] >= 1
                assert stats["requests"]["retried"] >= 1
                assert stats["requests"]["errors"] == {}
            finally:
                router.shutdown(drain=False)
        flaky.close()

    def test_all_backends_down_is_a_structured_error(self):
        flaky = ScriptedBackend("flaky")
        router = Router([(flaky.host, flaky.port)],
                        probe_interval=60.0, max_retries=2)
        router.start()
        try:
            assert router.wait_all_up(timeout=10.0)
            sink = ListSink()
            router.submit_line(record(op="sat", pred="x > 0", id="q0"), sink)
            assert router.wait_idle(timeout=10.0)
            (response,) = sink.responses
            assert response["ok"] is False
            assert response["error_code"] == ERROR_BACKEND_DOWN
            assert response["id"] == "q0"
            assert response["retries"] == 1  # dispatched once, retried into nothing

            # The ring is empty now: rejection is immediate, with no retries.
            router.submit_line(record(op="sat", pred="x > 1", id="q1"), sink)
            assert router.wait_idle(timeout=10.0)
            late = next(r for r in sink.responses if r["id"] == "q1")
            assert late["error_code"] == ERROR_BACKEND_DOWN
            assert "retries" not in late
        finally:
            router.shutdown(drain=False)
        flaky.close()

    def test_queue_full_then_shutdown_answers_everything(self):
        blackhole = ScriptedBackend("blackhole")
        router = Router([(blackhole.host, blackhole.port)],
                        queue_limit=1, probe_interval=60.0)
        router.start()
        try:
            assert router.wait_all_up(timeout=10.0)
            sink = ListSink()
            assert router.submit_line(record(op="sat", pred="x > 0", id="held"),
                                      sink) == "queued"
            _wait_for(lambda: blackhole.queries_seen, message="query to arrive")
            outcome = router.submit_line(
                record(op="sat", pred="x > 1", id="over"), sink, block=False)
            assert outcome == "rejected"
            over = next(r for r in sink.responses if r["id"] == "over")
            assert over["error_code"] == ERROR_QUEUE_FULL
        finally:
            router.shutdown(drain=False)
        held = next(r for r in sink.responses if r["id"] == "held")
        assert held["error_code"] == ERROR_SHUTDOWN  # answered, not leaked
        assert router.wait_idle(timeout=1.0)
        blackhole.close()

    def test_concurrent_submitters_answer_every_id_once(self, two_backends):
        """Many threads contend for the links' sending roles: every id is
        answered exactly once, and every link ends idle with its role free."""
        router, _, _ = two_backends
        sink = ListSink()
        submitters, per_submitter = 8, 25

        def submit(index):
            for n in range(per_submitter):
                router.submit_line(record(op="sat", pred=f"x > {n}",
                                          id=f"t{index}-{n}"), sink)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit, args=(i,), daemon=True)
                       for i in range(submitters)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert router.wait_idle(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(r["id"] for r in sink.responses) == sorted(
            f"t{i}-{n}" for i in range(submitters) for n in range(per_submitter))
        assert all(r["ok"] for r in sink.responses)
        for link in router._links.values():
            assert not link._sending and not link._heap

    def test_queued_entries_leave_highest_priority_first(self):
        """Entries queued behind a send blocked on a jammed backend leave
        by priority, FIFO within a priority."""
        jam = ScriptedBackend("jam")
        router = Router([(jam.host, jam.port)], probe_interval=60.0)
        router.start()
        stop = threading.Event()
        sink = ListSink()
        try:
            assert router.wait_all_up(timeout=10.0)
            filler, _ = _block_link_sender(router, jam.key, sink, stop)
            names = ("bulk-a", "urgent", "bulk-b", "mid")
            for name, priority in zip(names, (0, 5, 0, 2)):
                assert router.submit_line(record(op="sat", pred=name, id=name,
                                                 priority=priority), sink) == "queued"
            stop.set()
            jam.release()

            def arrived():
                with jam._lock:
                    return [q["pred"] for q in jam.queries_seen if q["pred"] in names]

            _wait_for(lambda: len(arrived()) == 4, message="queued entries to arrive")
            assert arrived() == ["urgent", "mid", "bulk-a", "bulk-b"]
            filler.join(timeout=5.0)
            assert not filler.is_alive()
        finally:
            router.shutdown(drain=False)
            jam.close()

    def test_jammed_backend_blocks_only_its_sender(self):
        """A backend that stops reading blocks the one thread sending to it:
        other submitters return at once, keys owned by a healthy backend
        keep answering, and shutdown answers every id exactly once."""
        jam = ScriptedBackend("jam")
        stop = threading.Event()
        sink = ListSink()
        with SocketServer(QueryServer(workers=2), port=0) as real:
            router = Router([("127.0.0.1", real.port), (jam.host, jam.port)],
                            probe_interval=60.0)
            router.start()
            try:
                assert router.wait_all_up(timeout=10.0)
                filler, filled = _block_link_sender(router, jam.key, sink, stop)
                jammed_lines = _keyed_lines(router, jam.key, 4)
                started = time.monotonic()
                for line in jammed_lines:
                    assert router.submit_line(line, sink) == "queued"
                assert time.monotonic() - started < 0.5
                real_key = f"127.0.0.1:{real.port}"
                healthy_lines = _keyed_lines(router, real_key, 4, start=10_000)
                healthy = {json.loads(line)["id"] for line in healthy_lines}
                for line in healthy_lines:
                    assert router.submit_line(line, sink) == "queued"

                def answered():
                    return [r for r in list(sink.responses) if r["id"] in healthy]

                _wait_for(lambda: len(answered()) == len(healthy),
                          message="the healthy backend's answers")
                assert all(r["ok"] and r["result"]["equivalent"] for r in answered())
                assert filler.is_alive()  # still blocked in sendall
            finally:
                router.shutdown(drain=False)
        filler.join(timeout=5.0)
        assert not filler.is_alive()
        _wait_for(lambda: not [t for t in threading.enumerate()
                               if t.name.endswith(jam.key)],
                  message="the jammed link's threads to exit")
        jam.close()

        ids = [r["id"] for r in sink.responses]
        assert len(ids) == len(set(ids))  # nothing answered twice
        jammed = set(filled) | {json.loads(line)["id"] for line in jammed_lines}
        assert set(ids) == jammed | healthy  # nothing lost
        for response in sink.responses:
            if response["id"] in jammed:
                assert response["error_code"] == ERROR_SHUTDOWN
        assert router.wait_idle(timeout=1.0)

    def test_rejects_queries_after_drain_begins(self, two_backends):
        router, _, _ = two_backends
        router.drain()
        sink = ListSink()
        assert router.submit_line(record(op="sat", pred="x > 0", id="q0"),
                                  sink) == "rejected"
        (response,) = sink.responses
        assert response["error_code"] == ERROR_SHUTDOWN

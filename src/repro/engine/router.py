"""A consistent-hash router over ``kmt serve --socket`` backends.

The distributed tier on top of :mod:`repro.engine.server`: a standalone
process speaking the *same* JSONL protocol to clients, forwarding each query
to one of N backend servers over a pooled, reconnecting, multiplexed
connection per backend.

* **Sticky routing that preserves cache warmth** — the ring key is
  :func:`repro.engine.server.affinity_hash`, the *same* content hash every
  backend uses to pick a session stripe.  A query therefore lands on the
  same backend (and, inside it, the same warm stripe) whether it enters
  through the router or hits that backend's socket directly; repeats keep
  hitting warm caches across the extra hop.  :class:`ConsistentHashRing`
  places ``replicas`` virtual nodes per backend, so removing one backend
  remaps only the keys that backend owned (≈1/N of traffic) and leaves every
  other key's assignment — and cache affinity — untouched.

* **Health and failover** — a dead backend is detected in-band (EOF/reset on
  its connection, reusing the same broken-pipe signals as the process
  backend's ``worker_crashed`` machinery) or by periodic lightweight pings;
  it is ejected from the ring, its in-flight requests are retried on the
  next distinct replica for their key (successful retried responses carry a
  ``"retries": n`` field) or answered with a structured ``backend_down``
  error when no replica is left, and a recovered backend rejoins the ring
  after answering a probe.  No request id is ever lost or answered twice.

* **Admission control** — an optional per-client token bucket
  (``rate_limit`` queries/s with ``rate_burst`` headroom) refuses excess
  traffic with a ``rate_limited`` error before it costs a backend anything,
  and an integer ``"priority"`` request field (default 0, higher first)
  lets interactive queries overtake queued bulk traffic: the entries queued
  behind a busy backend link (one whose socket is still taking an earlier
  send) leave highest-priority-first, while the backend's own bounded
  intake queue provides the backpressure that makes the ordering matter.
  The router's global in-flight bound (``queue_limit``) turns into blocking
  intake exactly like a single server's.

* **Observability** — ``stats`` and ``metrics`` fan out to every live
  backend and merge (:func:`repro.engine.session.merge_pool_stats` /
  :func:`repro.engine.telemetry.merge_metrics`) so the cluster answers them
  with single-server response shapes, extended with a ``"router"`` block:
  ring membership, per-backend routed/retried/ejection counters and link
  states.  The router's own :class:`~repro.engine.telemetry.MetricsRegistry`
  tracks the same plus per-backend round-trip latency histograms.

The router reuses :class:`repro.engine.server.SocketServer` as its TCP front
end by implementing the same scheduler interface (``start`` /
``submit_line`` / ``wait_idle`` / ``shutdown``), so per-connection reader
threads, bounded writer backlogs, ordered mode and connection-scoped ``quit``
all behave exactly as on a single server.
"""

from __future__ import annotations

import bisect
import heapq
import json
import logging
import threading
import time
import weakref
import zlib

from repro.engine.batch import (
    ERROR_BACKEND_DOWN,
    ERROR_INVALID,
    ERROR_QUEUE_FULL,
    ERROR_RATE_LIMITED,
    ERROR_SHUTDOWN,
    error_response,
    parse_request_line,
)
from repro.engine.client import SocketClient
from repro.engine.server import affinity_hash
from repro.engine.session import merge_pool_stats
from repro.engine.telemetry import (
    MetricsRegistry,
    empty_snapshot,
    log_event,
    merge_metrics,
    render_prometheus,
)

_log = logging.getLogger("kmt.router")

__all__ = ["ConsistentHashRing", "TokenBucket", "Router", "parse_backends"]


# ---------------------------------------------------------------------------
# consistent-hash ring
# ---------------------------------------------------------------------------


class ConsistentHashRing:
    """Classic consistent hashing with virtual nodes.

    Each node owns ``replicas`` points on a 32-bit circle (crc32 of
    ``"{node}#{i}"`` — stable across processes, like the affinity hash
    itself); a key belongs to the first node point at or clockwise of the
    key's hash.  Adding a node steals only the arcs its points intercept;
    removing one hands its arcs to the next surviving points — every other
    key keeps its owner (the minimal-remapping property the tests pin down).

    Not thread-safe; the router guards membership changes with its own lock.
    """

    def __init__(self, nodes=(), replicas=64):
        if replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {replicas}")
        self.replicas = replicas
        self._nodes = set()
        self._points = []  # sorted hash points
        self._owners = []  # owner node per point, aligned with _points
        for node in nodes:
            self.add(node)

    def __contains__(self, node):
        return node in self._nodes

    def __len__(self):
        return len(self._nodes)

    @property
    def nodes(self):
        return sorted(self._nodes)

    def _vnode_points(self, node):
        return [zlib.crc32(f"{node}#{index}".encode("utf-8"))
                for index in range(self.replicas)]

    def add(self, node):
        if node in self._nodes:
            return
        self._nodes.add(node)
        for point in self._vnode_points(node):
            # Ties on a point are broken by node name so membership changes
            # stay order-independent (same ring however you got there).
            index = bisect.bisect_left(list(zip(self._points, self._owners)),
                                       (point, node))
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node):
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def lookup(self, key_hash, skip=()):
        """The first node at or clockwise of ``key_hash`` that is not in
        ``skip`` — the owner when ``skip`` is empty; ``None`` when no node
        is left."""
        if self._nodes.issubset(skip):
            return None
        start = bisect.bisect_left(self._points, key_hash & 0xFFFFFFFF)
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in skip:
                return owner

    def preference(self, key_hash, limit=None):
        """Distinct nodes in clockwise order from ``key_hash``.

        The first entry is :meth:`lookup`'s answer; the rest are the failover
        order — the node a key remaps to when the ones before it leave.
        """
        nodes = []
        while limit is None or len(nodes) < limit:
            node = self.lookup(key_hash, skip=nodes)
            if node is None:
                break
            nodes.append(node)
        return nodes


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TokenBucket:
    """Token bucket: ``rate`` tokens/second, at most ``burst`` banked."""

    def __init__(self, rate, burst):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def allow(self, now=None):
        """Consume one token if available; ``False`` means rate-limited."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


# ---------------------------------------------------------------------------
# routed work items
# ---------------------------------------------------------------------------

#: Probes and stats fan-outs jump every queue: they must work (and report)
#: exactly when the queues are jammed.
_CONTROL_PRIORITY = 1 << 30


class _RoutedQuery:
    """One client query in flight through the router."""

    __slots__ = ("record", "line", "internal_id", "client_id", "has_client_id",
                 "sink", "seq", "fallback_id", "theory", "key_hash", "priority",
                 "tried", "retries", "submitted", "dispatched", "done", "lock")

    is_control = False

    def __init__(self, record, internal_id, sink, seq, fallback_id, theory,
                 key_hash, priority):
        self.record = record
        self.internal_id = internal_id
        self.has_client_id = "id" in record
        self.client_id = record.get("id")
        self.sink = sink
        self.seq = seq
        self.fallback_id = fallback_id
        self.theory = theory
        self.key_hash = key_hash
        self.priority = priority
        self.tried = set()
        self.retries = 0
        self.submitted = time.monotonic()
        self.dispatched = self.submitted
        self.done = False
        self.lock = threading.Lock()
        # The forwarded line carries the router-internal id; the client's id
        # (or its absence) is restored on the way back.
        wire = dict(record)
        wire["id"] = internal_id
        wire.pop("priority", None)  # router-level concern; backends don't know it
        self.line = json.dumps(wire, sort_keys=True)

    def finish(self):
        """Claim completion; only the first caller gets ``True``.

        Failure handling and a late response can race on one entry; this is
        what guarantees every id is answered exactly once.
        """
        with self.lock:
            if self.done:
                return False
            self.done = True
            return True


class _ControlCall:
    """A router-internal request to one backend (probe or stats fan-out)."""

    __slots__ = ("record", "line", "internal_id", "priority", "done", "lock",
                 "event", "response", "dispatched")

    is_control = True

    def __init__(self, record, internal_id):
        self.record = record
        self.internal_id = internal_id
        self.priority = _CONTROL_PRIORITY
        self.done = False
        self.lock = threading.Lock()
        self.event = threading.Event()
        self.response = None
        self.dispatched = time.monotonic()
        wire = dict(record)
        wire["id"] = internal_id
        self.line = json.dumps(wire, sort_keys=True)

    def finish(self):
        with self.lock:
            if self.done:
                return False
            self.done = True
            return True


# ---------------------------------------------------------------------------
# backend link
# ---------------------------------------------------------------------------


class _BackendLink:
    """The router's connection to one backend: a priority heap of entries
    waiting to be sent, one multiplexed socket, a reader thread matching
    responses to in-flight entries by router-internal id, and a probe thread
    that detects silent death and drives rejoin.

    There is no sender thread: a thread that submits to an idle link takes
    its *sending role* and drains the heap, highest priority first, while
    one that finds the role taken only pushes its entry and returns — so
    entries queued behind a ``sendall`` blocked on a busy backend still
    leave in priority order, and one thread at a time sends on the socket.

    Ownership discipline: an entry is owned by whichever thread *pops* it,
    from the heap (the sending-role holder, or :meth:`stop`) or from
    ``pending`` (the reader on normal completion; :meth:`fail` on link
    death, which re-dispatches every pending entry or answers it
    ``backend_down``; or the role holder when its send fails).  Popping is
    atomic under ``_lock``, so an entry is completed exactly once even when
    a late response races a failure.
    """

    def __init__(self, router, host, port):
        self.router = router
        self.host = host
        self.port = port
        self.key = f"{host}:{port}"
        self.state = "down"
        self.generation = 0
        self.routed = 0
        self.ejections = 0
        self.last_error = None
        self.pending = {}
        self._client = None
        self._lock = threading.Lock()
        self._heap = []  # (-priority, seq, entry): FIFO within a priority
        self._queue_seq = 0
        self._sending = False
        self._stop = threading.Event()
        self._probe = None

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        self.try_revive()  # synchronous first dial: healthy backends serve at once
        self._probe = threading.Thread(
            target=self._probe_loop, name=f"kmt-route-probe-{self.key}", daemon=True)
        self._probe.start()

    def stop(self):
        self._stop.set()
        with self._lock:
            client = self._client
            self._client = None
            self.state = "down"
            self.generation += 1
            # Entries still on the heap were never registered in ``pending``;
            # without this sweep they would hold capacity forever.
            pending = list(self.pending.values()) + [item[2] for item in self._heap]
            self.pending.clear()
            self._heap.clear()
        if client is not None:
            client.close()  # a send blocked on a jammed backend raises now
        for entry in pending:
            self.router._entry_failed(entry, self, "router is shutting down")

    # -- dispatch -----------------------------------------------------------

    def submit(self, entry):
        with self._lock:
            self._queue_seq += 1
            heapq.heappush(self._heap, (-entry.priority, self._queue_seq, entry))
            if self._sending:
                return  # the holder of the sending role will send it
            self._sending = True
        while True:
            with self._lock:
                if not self._heap:
                    self._sending = False
                    return
                entry = heapq.heappop(self._heap)[2]
                if entry.done:
                    continue
                up = self.state == "up" and not self._stop.is_set()
                if up:
                    self.pending[entry.internal_id] = entry
                    client = self._client
                    generation = self.generation
            if not up:
                self.router._entry_failed(entry, self, self.last_error or "backend down")
                continue
            entry.dispatched = time.monotonic()
            try:
                client.send_line(entry.line)
            except (ConnectionError, TimeoutError) as error:
                self.fail(generation, f"send failed: {error}")
                reclaimed = self._reclaim(entry.internal_id)
                if reclaimed is not None:
                    self.router._entry_failed(reclaimed, self, str(error))

    def _reclaim(self, internal_id):
        with self._lock:
            return self.pending.pop(internal_id, None)

    def _reader_loop(self, client, generation):
        while True:
            try:
                response = client.recv_record()
            except (ConnectionError, TimeoutError, ValueError) as error:
                self.fail(generation, f"connection lost: {error}")
                return
            if response is None:
                self.fail(generation, "backend closed the connection")
                return
            entry = self._reclaim(response.get("id"))
            if entry is None:
                continue  # answered elsewhere already (late after a failover)
            self.router._entry_answered(entry, response, self)

    # -- failure / recovery -------------------------------------------------

    def fail(self, generation, reason):
        """Take the link down (idempotent per generation) and hand every
        pending entry back to the router for retry-or-error."""
        with self._lock:
            if generation != self.generation or self.state == "down":
                return
            self.state = "down"
            self.generation += 1
            self.last_error = reason
            self.ejections += 1
            client = self._client
            self._client = None
            pending = list(self.pending.values())
            self.pending.clear()
        if client is not None:
            client.close()  # unblocks the reader and any in-flight send
        self.router._on_backend_down(self, reason)
        for entry in pending:
            self.router._entry_failed(entry, self, reason)

    def try_revive(self):
        """One connect-and-ping attempt; on success the link rejoins."""
        if self._stop.is_set():
            return False
        client = SocketClient(self.host, self.port,
                              connect_timeout=self.router.connect_timeout)
        try:
            client.connect()
            response = client.request({"op": "ping", "id": "__kmt_router_probe__"},
                                      timeout=self.router.probe_timeout)
        except (ConnectionError, TimeoutError, ValueError):
            client.close()
            return False
        if not response.get("ok"):
            client.close()
            return False
        with self._lock:
            if self._stop.is_set() or self.state == "up":
                client.close()
                return self.state == "up"
            self._client = client
            self.state = "up"
            self.generation += 1
            generation = self.generation
        reader = threading.Thread(
            target=self._reader_loop, args=(client, generation),
            name=f"kmt-route-read-{self.key}", daemon=True)
        reader.start()
        self.router._on_backend_up(self)
        return True

    def _probe_loop(self):
        while not self._stop.wait(self.router.probe_interval):
            with self._lock:
                state = self.state
                generation = self.generation
                idle = not self.pending
            if state == "down":
                self.try_revive()
            elif idle:
                # In-band liveness check, but only on an idle link: when
                # traffic is flowing, responses (or a broken pipe) are the
                # health signal, and a ping queued behind a saturated send
                # buffer must not get a healthy backend ejected.
                call = _ControlCall({"op": "ping"}, self.router._next_internal_id())
                self.submit(call)
                if not call.event.wait(self.router.probe_timeout):
                    if call.finish():  # claim it so a late pong is ignored
                        self._reclaim(call.internal_id)
                        self.fail(generation, "health probe timed out")

    def control_request(self, record, timeout):
        """Send one router-internal request; the parsed response or ``None``."""
        with self._lock:
            if self.state != "up":
                return None
        call = _ControlCall(record, self.router._next_internal_id())
        self.submit(call)
        if call.event.wait(timeout):
            return call.response
        if call.finish():
            self._reclaim(call.internal_id)
        return None

    def info(self):
        with self._lock:
            return {
                "state": self.state,
                "routed": self.routed,
                "pending": len(self.pending),
                "ejections": self.ejections,
                "last_error": self.last_error,
            }


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------


def parse_backends(specs):
    """``["host:port", ...]`` → ``[(host, port), ...]`` with validation."""
    from repro.utils.errors import KmtError

    backends = []
    seen = set()
    for spec in specs:
        host, _, port_text = str(spec).strip().rpartition(":")
        if not host or not port_text.isdigit():
            raise KmtError(f"backend must be HOST:PORT, got {spec!r}")
        address = (host, int(port_text))
        if address in seen:
            raise KmtError(f"duplicate backend {spec!r}")
        seen.add(address)
        backends.append(address)
    if not backends:
        raise KmtError("at least one backend is required")
    return backends


class Router:
    """Scheduler-shaped façade over N backend links (see module docstring).

    Implements the interface :class:`repro.engine.server.SocketServer`
    expects from a :class:`~repro.engine.server.QueryServer` — ``start()``,
    ``submit_line()``, ``wait_idle()``, ``shutdown()`` — so the same TCP
    front end serves both.
    """

    def __init__(self, backends, queue_limit=256, ring_replicas=64, max_retries=2,
                 probe_interval=1.0, probe_timeout=5.0, connect_timeout=3.0,
                 rate_limit=None, rate_burst=None, control_timeout=15.0):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be at least 1, got {queue_limit}")
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be positive, got {rate_limit}")
        if rate_burst is not None and rate_burst <= 0:
            raise ValueError(f"rate_burst must be positive, got {rate_burst}")
        self.queue_limit = queue_limit
        self.max_retries = max_retries
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.connect_timeout = connect_timeout
        self.control_timeout = control_timeout
        self.rate_limit = rate_limit
        self.rate_burst = rate_burst if rate_burst is not None else \
            (max(1, int(2 * rate_limit)) if rate_limit is not None else None)
        self.metrics = MetricsRegistry()
        addresses = list(backends)
        if not addresses or not isinstance(addresses[0], tuple):
            addresses = parse_backends(addresses)
        self._links = {}
        for host, port in addresses:
            link = _BackendLink(self, host, port)
            self._links[link.key] = link
        self.ring = ConsistentHashRing(replicas=ring_replicas)
        self._ring_lock = threading.Lock()
        self._capacity = threading.Semaphore(queue_limit)
        self._state = threading.Condition()
        self._accepting = True
        self._in_flight = 0
        self._completed = 0
        self._retried = 0
        self._rejected = 0
        self._error_counts = {}
        self._id_lock = threading.Lock()
        self._id_counter = 0
        self._buckets = weakref.WeakKeyDictionary()
        self._buckets_lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._started = False
        self._stopping = False

    # -- identities ----------------------------------------------------------

    def _next_internal_id(self):
        with self._id_lock:
            self._id_counter += 1
            return f"__kmt_r{self._id_counter}__"

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        if self._started:
            return self
        self._started = True
        self._started_monotonic = time.monotonic()
        for link in self._links.values():
            link.start()
        return self

    def wait_ready(self, timeout=None):
        """Block until at least one backend is in the ring."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._ring_lock:
                if len(self.ring):
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    def wait_all_up(self, timeout=None):
        """Block until every configured backend is in the ring."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._ring_lock:
                if len(self.ring) == len(self._links):
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    def wait_idle(self, timeout=None):
        with self._state:
            return self._state.wait_for(lambda: self._in_flight == 0, timeout=timeout)

    def drain(self):
        with self._state:
            self._accepting = False
        self.wait_idle()

    def shutdown(self, drain=True):
        with self._state:
            self._accepting = False
        if drain:
            self.wait_idle(timeout=60.0)
        # From here, failed entries answer ``shutting_down`` instead of
        # retrying onto a link that is being stopped.
        self._stopping = True
        for link in self._links.values():
            link.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.shutdown()

    # -- intake (same contract as QueryServer.submit_line) -------------------

    def submit_line(self, raw, sink, lineno=None, block=True, timeout=None):
        kind, payload = parse_request_line(raw)
        if kind == "skip":
            return "skip"
        if kind == "quit":
            return "quit"
        if kind == "control":
            record = payload
            fallback_id = lineno if lineno is not None else record.get("id")
            sink.emit_now(lambda: self._control_response(record, fallback_id))
            return "control"
        seq = sink.next_seq()
        fallback_id = lineno if lineno is not None else seq
        if kind == "error":
            message, code, request = payload
            self._count_error(code)
            sink.emit(seq, error_response(request, fallback_id, None, message, code))
            return "error"
        record = payload
        theory = record.get("theory")
        theory = str(theory).lower() if theory is not None else None
        priority, priority_error = self._parse_priority(record)
        if priority_error is not None:
            self._count_error(ERROR_INVALID)
            sink.emit(seq, error_response(record, fallback_id, theory,
                                          priority_error, ERROR_INVALID))
            return "error"
        if self.rate_limit is not None and not self._bucket_for(sink).allow():
            self._count_error(ERROR_RATE_LIMITED)
            self.metrics.inc("router_rejected_total", (("reason", "rate_limited"),))
            sink.emit(seq, error_response(
                record, fallback_id, theory,
                f"client exceeds {self.rate_limit:g} requests/s "
                f"(burst {self.rate_burst:g})", ERROR_RATE_LIMITED))
            return "rejected"
        with self._state:
            accepting = self._accepting
        if not accepting:
            self._count_error(ERROR_SHUTDOWN)
            sink.emit(seq, error_response(
                record, fallback_id, theory, "router is shutting down", ERROR_SHUTDOWN))
            return "rejected"
        if not self._capacity.acquire(blocking=block, timeout=timeout):
            self._count_error(ERROR_QUEUE_FULL)
            self.metrics.inc("router_rejected_total", (("reason", "queue_full"),))
            sink.emit(seq, error_response(
                record, fallback_id, theory,
                f"router queue is full (limit {self.queue_limit})", ERROR_QUEUE_FULL))
            return "rejected"
        entry = _RoutedQuery(record, self._next_internal_id(), sink, seq,
                             fallback_id, theory, affinity_hash(record), priority)
        with self._state:
            self._in_flight += 1
        self.metrics.set_gauge("router_queue_depth", self._in_flight)
        self._dispatch(entry)
        return "queued"

    @staticmethod
    def _parse_priority(record):
        priority = record.get("priority")
        if priority is None:
            return 0, None
        if isinstance(priority, bool) or not isinstance(priority, (int, float)):
            return None, f"priority must be a number, got {priority!r}"
        return priority, None

    def _bucket_for(self, sink):
        with self._buckets_lock:
            bucket = self._buckets.get(sink)
            if bucket is None:
                bucket = TokenBucket(self.rate_limit, self.rate_burst)
                self._buckets[sink] = bucket
            return bucket

    # -- routing -------------------------------------------------------------

    def _dispatch(self, entry):
        with self._ring_lock:
            target = self.ring.lookup(entry.key_hash, skip=entry.tried)
            live = len(self.ring)
        if target is None:
            self._finish_with_error(
                entry, "no live backend for this request "
                f"({len(self._links) - live} of {len(self._links)} down, "
                f"{entry.retries} retries used)", ERROR_BACKEND_DOWN)
            return
        entry.tried.add(target)
        link = self._links[target]
        with link._lock:
            link.routed += 1
        link.submit(entry)

    def _entry_failed(self, entry, link, reason):
        """A link could not answer ``entry``: retry on the next replica for
        its key, or answer ``backend_down``."""
        if entry.is_control:
            if entry.finish():
                entry.event.set()  # response stays None
            return
        if entry.done:
            return
        if self._stopping:
            self._finish_with_error(entry, "router is shutting down", ERROR_SHUTDOWN)
            return
        if entry.retries >= self.max_retries:
            self._finish_with_error(
                entry, f"backend {link.key} failed ({reason}) and the retry "
                f"budget ({self.max_retries}) is spent", ERROR_BACKEND_DOWN)
            return
        entry.retries += 1
        with self._state:
            self._retried += 1
        self.metrics.inc("router_retries_total", (("backend", link.key),))
        self._dispatch(entry)

    def _entry_answered(self, entry, response, link):
        if entry.is_control:
            if entry.finish():
                entry.response = response
                entry.event.set()
            return
        if not entry.finish():
            return  # a concurrent failure path already answered this id
        latency_ms = (time.monotonic() - entry.dispatched) * 1000.0
        self.metrics.observe("router_backend_latency_ms", latency_ms,
                             (("backend", link.key),))
        # Restore the client's view of the id: their own, or the protocol's
        # 0-based line-number fallback when they sent none.
        response["id"] = entry.client_id if entry.has_client_id else entry.fallback_id
        if entry.retries:
            response["retries"] = entry.retries
        self.metrics.inc("router_requests_total", (
            ("backend", link.key),
            ("outcome", response.get("error_code") or "ok"),
        ))
        self._emit_and_release(entry, response)

    def _finish_with_error(self, entry, message, code):
        if not entry.finish():
            return
        response = error_response(entry.record, entry.fallback_id, entry.theory,
                                  message, code)
        if entry.retries:
            response["retries"] = entry.retries
        self._count_error(code)
        self.metrics.inc("router_requests_total", (
            ("backend", "none"), ("outcome", code)))
        self._emit_and_release(entry, response)

    def _emit_and_release(self, entry, response):
        entry.sink.emit(entry.seq, response)
        self._capacity.release()
        with self._state:
            self._in_flight -= 1
            self._completed += 1
            code = response.get("error_code")
            if code is not None:
                self._error_counts[code] = self._error_counts.get(code, 0) + 1
            if self._in_flight == 0:
                self._state.notify_all()
        self.metrics.set_gauge("router_queue_depth", self._in_flight)

    def _count_error(self, code):
        with self._state:
            self._error_counts[code] = self._error_counts.get(code, 0) + 1

    # -- membership callbacks ------------------------------------------------

    def _on_backend_up(self, link):
        with self._ring_lock:
            already = link.key in self.ring
            self.ring.add(link.key)
        if not already:
            self.metrics.inc("router_rejoins_total", (("backend", link.key),))
            self._refresh_membership_gauges()
            log_event(_log, logging.INFO, "backend_joined", backend=link.key)

    def _on_backend_down(self, link, reason):
        with self._ring_lock:
            present = link.key in self.ring
            self.ring.remove(link.key)
        if present:
            self.metrics.inc("router_ejections_total", (("backend", link.key),))
            self._refresh_membership_gauges()
            log_event(_log, logging.WARNING, "backend_ejected",
                      backend=link.key, error=reason)

    def _refresh_membership_gauges(self):
        with self._ring_lock:
            up = len(self.ring)
        self.metrics.set_gauge("router_backends_up", up)
        self.metrics.set_gauge("router_backends_down", len(self._links) - up)

    # -- control ops ---------------------------------------------------------

    def router_stats(self):
        with self._state:
            completed = self._completed
            retried = self._retried
            errors = dict(self._error_counts)
            in_flight = self._in_flight
        with self._ring_lock:
            ring_nodes = self.ring.nodes
        return {
            "backends": {key: link.info() for key, link in sorted(self._links.items())},
            "ring": {"nodes": ring_nodes, "replicas": self.ring.replicas},
            "queue": {"limit": self.queue_limit, "in_flight": in_flight},
            "requests": {"completed": completed, "retried": retried,
                         "errors": errors},
            "rate_limit": self.rate_limit,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
        }

    def _fan_out(self, op):
        """Ask every live backend ``op``; ``{backend_key: response_or_None}``."""
        links = list(self._links.values())
        results = {}
        threads = []

        def ask(link):
            results[link.key] = link.control_request({"op": op}, self.control_timeout)

        for link in links:
            thread = threading.Thread(target=ask, args=(link,), daemon=True,
                                      name=f"kmt-route-fan-{link.key}")
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=self.control_timeout + 1.0)
        return results

    def _control_response(self, record, fallback_id):
        response = {"id": record.get("id", fallback_id), "op": record["op"], "ok": True}
        if record["op"] == "stats":
            fanned = self._fan_out("stats")
            pool_blocks = []
            backend_servers = {}
            for key, reply in sorted(fanned.items()):
                if reply is None or not reply.get("ok"):
                    backend_servers[key] = None
                    continue
                result = dict(reply.get("result") or {})
                backend_servers[key] = result.pop("server", None)
                result.pop("snapshot", None)
                pool_blocks.append(result)
            merged = merge_pool_stats(pool_blocks)
            merged["router"] = self.router_stats()
            merged["router"]["backend_servers"] = backend_servers
            response["result"] = merged
        elif record["op"] == "metrics":
            fanned = self._fan_out("metrics")
            snapshots = [self.metrics.snapshot()]
            for reply in fanned.values():
                if reply is not None and reply.get("ok") and reply.get("result"):
                    snapshots.append(reply["result"])
            response["result"] = merge_metrics(snapshots)
        else:  # ping — answered locally so liveness never depends on backends
            with self._ring_lock:
                up = self.ring.nodes
            response["result"] = {
                "pong": True,
                "router": True,
                "backends_up": up,
                "backends_down": sorted(set(self._links) - set(up)),
            }
        return response

    def metrics_snapshot(self):
        """The router's own registry (no fan-out — that is the ``metrics``
        op), topped up with live gauges."""
        merged = merge_metrics([self.metrics.snapshot(), empty_snapshot()])
        with self._state:
            in_flight = self._in_flight
        with self._ring_lock:
            up = len(self.ring)
        for name, value in (("router_queue_depth", in_flight),
                            ("router_backends_up", up),
                            ("router_backends_down", len(self._links) - up),
                            ("queue_limit", self.queue_limit),
                            ("uptime_seconds",
                             round(time.monotonic() - self._started_monotonic, 3))):
            merged["gauges"][name] = [{"labels": {}, "value": value}]
        return merged

    def metrics_prometheus(self):
        return render_prometheus(self.metrics_snapshot())

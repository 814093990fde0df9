"""The query scheduler and its front ends: ``kmt serve`` and ``kmt batch``.

Every query takes one path, :func:`execute_record`.  A front end feeds raw
JSONL lines (the protocol of :mod:`repro.engine.batch`) to
:meth:`QueryServer.submit_line`, the scheduler routes the record to a shard,
and a backend runs it through :func:`execute_record`; the CLI's one-shot
verbs (``kmt equiv``, ``kmt verify``, ...) call it directly with one record
on a one-stripe pool.  The front ends differ only in how they feed lines and
write responses — :func:`serve_stdio` and :class:`SocketServer` serve a live
stream on a :class:`QueryServer` their caller built, :func:`run_batch_lines`
builds its own and answers a file in input order.  The scheduler supplies
the serving concerns:

* **Bounded intake queue with backpressure** — at most ``queue_limit``
  requests are in flight; a submitter either blocks (stdin / per-connection
  reader threads, which turns into pipe/TCP backpressure on the client) or
  receives a structured ``queue_full`` error (``block=False``).

* **Shard affinity with session striping** — every query is routed to a
  *shard*: a ``(theory, stripe)`` pair owning one persistent
  :class:`~repro.engine.session.EngineSession`.  The stripe is chosen by
  hashing the query *content*, so identical queries always land on the same
  warm session (cache affinity) while distinct queries for one hot theory
  spread over ``stripes`` sessions instead of serializing on a single
  session.  Each shard is pinned to exactly one worker thread, so sessions
  are never contended.

* **Out-of-order completion with correct ids** — responses are emitted as
  soon as their worker finishes; every response carries the request's ``id``
  (defaulting to the client's 0-based input line number).  ``ordered=True``
  buffers completions per client and releases them in submission order.

* **Per-request deadlines** — ``"deadline_ms": N`` bounds a request's life
  from submission (queue wait included).  Expiry is checked before execution
  and cooperatively *during* normalization, signature enumeration and
  automata comparison (see the ``cancel`` plumbing in
  :mod:`repro.core.pushback` / :mod:`repro.smt.dpll` /
  :mod:`repro.core.automata`); an expired request answers with error code
  ``deadline_exceeded``.  Cancellation never corrupts session caches —
  memo tables are only written on completion.

* **Graceful drain** — ``{"op": "quit"}`` (and SIGTERM in the CLI) stops
  intake, waits for every in-flight request to answer, then shuts the
  workers down.  In socket mode ``quit`` is connection-scoped: that client
  is drained and closed while the server keeps serving others.

* **Observability** — the ``stats`` op reports, on top of the per-theory
  cache accounting, a ``server`` block with queue depth/peak/limit,
  completed/error counts per error code, and latency percentiles.  Control
  ops (``stats``/``ping``) are answered inline by the submitting thread —
  they bypass the bounded queue *and* ordered-mode buffering so
  observability keeps working when the queue is jammed — which makes
  ``stats`` an *immediate snapshot*: it does not wait for queries submitted
  earlier on the same stream (wait for their responses first if you want
  post-work numbers).  The batch front end is the exception: its sink holds
  a control line until every earlier query has answered, so a trailing
  ``stats`` counts the whole batch.

* **Pluggable execution backends** — one scheduler (intake, shard routing,
  deadlines, ordering, drain) drives either of two execution backends.  The
  default ``thread`` backend executes on a :class:`ShardedSessionPool` inside
  this process: worker threads overlap wherever the GIL is released — client
  I/O, and theory oracles that call out of process (the paper's
  implementations use Z3 over IPC) — but pure in-process compute on CPython
  still serializes.  The ``process`` backend pins each shard's worker to a
  *worker process* (``multiprocessing``, spawn-safe) holding its own warm
  sessions and caches, so CPU-bound queries genuinely parallelize across
  cores.  Request and response records cross the process pipe as the plain
  dicts they are (both ends are the same build, spawned by the same
  supervisor), deadlines are re-anchored in the worker's clock and cancelled
  cooperatively there, per-worker cache stats are merged into the ``stats``
  response, and a supervisor detects a crashed worker, respawns it, and
  answers the in-flight request with a structured ``worker_crashed`` error —
  no id is ever lost or duplicated.  ``tests/test_server_backends.py``
  gates both backends' speedups (thread workers under simulated solver
  latency, processes over threads on CPU-bound work).
"""

from __future__ import annotations

import heapq
import importlib
import json
import logging
import multiprocessing
import os
import socket
import threading
import time
import zlib
from collections import deque
from queue import Queue

from repro.core.pushback import DEFAULT_BUDGET
from repro.engine.batch import (
    CONTROL_OPS,
    DEFAULT_THEORY,
    ERROR_DEADLINE,
    ERROR_INTERNAL,
    ERROR_INVALID,
    ERROR_QUEUE_FULL,
    ERROR_SHUTDOWN,
    ERROR_UNKNOWN_OP,
    ERROR_UNKNOWN_THEORY,
    ERROR_WORKER_CRASHED,
    QUERY_OPS,
    classify_query_error,
    error_response,
    parse_request_line,
    run_query,
)
from repro.engine.session import ShardedSessionPool, merge_pool_stats
from repro.engine.telemetry import (
    MetricsRegistry,
    configure_logging,
    log_event,
    logging_target,
    merge_metrics,
    render_prometheus,
)
from repro.theories import build_theory
from repro.utils.errors import DeadlineExceeded, KmtError, WorkerCrashed

_log = logging.getLogger("kmt.server")

_STOP = object()

#: Shard-affinity fields: the request content that determines which stripe
#: (and therefore which warm session) a query lands on.  ``word`` is a
#: ``member`` request's action word (a JSON list; ``str`` of it is stable).
#: ``pre``/``program``/``post`` are the program-analysis ops' While source —
#: hashing the program text keeps an edit-recheck loop pinned to the stripe
#: whose ``prog``/norm/aut caches are already warm for that program.
_AFFINITY_FIELDS = ("op", "left", "right", "term", "pred", "word",
                    "pre", "program", "post")

#: How many recent request latencies back the percentile report.
_LATENCY_WINDOW = 4096


def affinity_hash(record):
    """Stable content hash of a query's shard-affinity fields.

    crc32 (not ``hash``) keeps the value stable across processes and
    ``PYTHONHASHSEED``.  This is the *shared* routing key: the server maps it
    onto ``range(stripes)`` to pick a warm session, and the cluster router
    (:mod:`repro.engine.router`) feeds the same value into its consistent-hash
    ring — so a query lands on the same warm stripe whether it enters through
    the router or hits a backend socket directly.
    """
    payload = "\x1f".join(str(record.get(field)) for field in _AFFINITY_FIELDS)
    return zlib.crc32(payload.encode("utf-8", "backslashreplace"))


def _affinity_stripe(record, stripes):
    """Stable content hash of a query onto ``range(stripes)``.

    Identical queries must map to the same stripe so repeats hit that
    session's caches.
    """
    return affinity_hash(record) % stripes


def execute_record(pool, record, default_theory, fallback_id, cancel=None,
                   theory=None, stripe=None):
    """Execute one parsed query record on a sharded pool; returns the response.

    The single execution codepath shared by the thread backend (worker
    threads in this process), the process backend (inside each worker
    process) and the CLI's one-shot verbs: session lookup, query execution
    and error classification all happen here, so no entry point can drift
    apart from the others on semantics.
    ``theory``/``stripe`` accept the scheduler's already-computed routing (the
    thread backend passes them to avoid re-hashing the request content); when
    absent they are derived from the record — identically, since the process
    worker only receives the record itself.
    """
    if theory is None:
        theory = str(record.get("theory", default_theory)).lower()
    if stripe is None:
        stripe = _affinity_stripe(record, pool.stripes)
    try:
        session = pool.session(theory, stripe)
    except KmtError as error:
        return error_response(record, fallback_id, theory, str(error), ERROR_UNKNOWN_THEORY)
    base = {
        "id": record.get("id", fallback_id),
        "op": record["op"],
        "theory": theory,
    }
    try:
        with session.lock:
            base["ok"] = True
            # ``"trace": true`` requests get their phase breakdown attached
            # here — under the session lock, so the cache deltas in the trace
            # belong to this request alone.  Inside a worker process this is
            # where the trace block enters the response; it crosses the pipe
            # with the rest of the record, and the scheduler re-anchors
            # queue/total timings in its own clock domain.
            base["result"], trace_payload = run_query(session, record, cancel=cancel)
            if trace_payload is not None:
                base["trace"] = trace_payload
    except (KmtError, KeyError, TypeError, ValueError, RecursionError) as error:
        message, code = classify_query_error(error)
        return error_response(record, fallback_id, theory, message, code)
    return base


def resolve_theory_factory(spec):
    """Resolve a ``"module:attribute"`` spec to a theory-factory callable.

    The process backend cannot ship an arbitrary in-process callable to its
    workers, so factory injection crosses the boundary *by name*: the spec is
    plain data, and each worker imports and resolves it after spawning
    (``None`` resolves to :func:`repro.theories.build_theory`).
    """
    if spec is None:
        return build_theory
    module_name, _, attribute = spec.partition(":")
    if not module_name or not attribute:
        raise ValueError(f"theory factory spec must look like 'module:attribute', got {spec!r}")
    module = importlib.import_module(module_name)
    factory = module
    for part in attribute.split("."):
        factory = getattr(factory, part)
    if not callable(factory):
        raise ValueError(f"theory factory spec {spec!r} resolved to a non-callable")
    return factory


class ThreadExecutionBackend:
    """Execute queries on a :class:`ShardedSessionPool` in this process."""

    name = "thread"

    def __init__(self, pool, default_theory):
        self.pool = pool
        self.default_theory = default_theory

    def start(self):
        pass

    def wait_ready(self, timeout=None):
        return True

    def execute(self, worker_index, request):
        cancel = None
        if request.deadline is not None:
            deadline, deadline_ms = request.deadline, request.deadline_ms

            def cancel():
                if time.monotonic() >= deadline:
                    raise DeadlineExceeded(deadline_ms)
        return execute_record(self.pool, request.record, self.default_theory,
                              request.fallback_id, cancel,
                              theory=request.theory, stripe=request.stripe)

    def pool_stats(self):
        return self.pool.stats()

    def theories(self):
        return self.pool.theories()

    def worker_info(self):
        return None

    def worker_metrics(self):
        # Thread-backend execution happens in the scheduler's own process;
        # everything is already in the server-side registry.
        return None

    def export_snapshot(self):
        return self.pool.export_snapshot()

    def import_snapshot(self, payload):
        return self.pool.import_snapshot(payload)

    def shutdown(self):
        pass


#: Every Nth response (after the first few) carries a fresh cache-stats
#: snapshot from the worker process; between snapshots the supervisor serves
#: the last one it saw.
_STATS_SNAPSHOT_PERIOD = 16


def _process_worker_main(conn, config):
    """Entry point of one worker process (spawn-safe: module-level, plain-data
    config).  Builds a private warm session pool, then answers ``exec``
    messages from the supervisor until ``stop`` or EOF; a request never kills
    the worker — execution failures become error responses."""
    import signal

    # The parent owns lifecycle (SIGTERM drain in the CLI, KeyboardInterrupt
    # in a terminal); a stray SIGINT to the process group must not corrupt
    # the pipe conversation mid-message.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # not the main thread, exotic platform
        pass
    if config["log"] is not None:
        # A spawned worker starts with logging unconfigured; repeat the
        # parent's setup so worker-side events land in the same log.
        configure_logging(*config["log"])
    pool = ShardedSessionPool(
        stripes=config["stripes"],
        budget=config["budget"],
        theory_factory=resolve_theory_factory(config["theory_factory_spec"]),
    )
    default_theory = config["default_theory"]
    worker_label = str(config.get("worker_index", ""))
    metrics = MetricsRegistry()
    served = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # supervisor went away
        tag = message[0]
        if tag == "stop":
            return
        # Replies echo the supervisor's sequence number: a ping the
        # supervisor gave up waiting for (wait_ready timeout) must not have
        # its late pong mistaken for the next request's reply.
        if tag == "ping":
            conn.send(("pong", message[1], os.getpid()))
            continue
        # Snapshot traffic shares the pipe with queries (same seq-echo
        # discipline).  Import is how a respawned worker comes back warm —
        # the supervisor hands it the latest payload right after spawn —
        # and export is how checkpoints collect this worker's tables.
        if tag == "snapshot_import":
            _, seq, payload = message
            try:
                counts = pool.import_snapshot(payload)
            except Exception as error:  # noqa: BLE001 — a bad snapshot must not kill the worker
                conn.send(("snapshot_err", seq, str(error)))
            else:
                conn.send(("snapshot_ok", seq, counts))
            continue
        if tag == "snapshot_export":
            seq = message[1]
            try:
                payload = pool.export_snapshot()
            except Exception as error:  # noqa: BLE001
                conn.send(("snapshot_err", seq, str(error)))
            else:
                conn.send(("snapshot_ok", seq, payload))
            continue
        _, seq, record, fallback_id, remaining_ms, deadline_ms = message
        exec_started = time.monotonic()
        try:
            cancel = None
            if remaining_ms is not None:
                # Deadlines are re-anchored in this process's clock: the
                # supervisor sends the time *remaining* at dispatch (queue
                # wait already charged), so clock domains never mix.
                local_deadline = time.monotonic() + remaining_ms / 1000.0

                def cancel():
                    if time.monotonic() >= local_deadline:
                        raise DeadlineExceeded(deadline_ms)
            response = execute_record(pool, record, default_theory, fallback_id, cancel)
        except Exception as error:  # noqa: BLE001 — a worker must never die on one request
            theory = str(record.get("theory", default_theory)).lower()
            log_event(_log, logging.ERROR, "internal_error",
                      request_id=record.get("id", fallback_id), op=record.get("op"),
                      theory=theory, error=repr(error))
            response = error_response(record, fallback_id, theory,
                                      f"worker internal error: {error}", ERROR_INTERNAL)
        served += 1
        metrics.inc("worker_requests_total", (
            ("worker", worker_label),
            ("theory", str(response.get("theory", ""))),
            ("op", str(response.get("op", ""))),
            ("outcome", response.get("error_code") or "ok"),
        ))
        metrics.observe(
            "worker_exec_latency_ms", (time.monotonic() - exec_started) * 1000.0,
            (("worker", worker_label),
             ("theory", str(response.get("theory", ""))),
             ("op", str(response.get("op", "")))))
        # Computing and pickling the stats tables on every response would tax
        # the hot path stats are not on; snapshots piggyback on the first few
        # responses (new sessions appear during warmup) and every
        # _STATS_SNAPSHOT_PERIOD-th after that — bounded staleness, zero
        # extra IPC — and the parent keeps the latest per worker.  The worker
        # metrics registry rides along on the same cadence and is merged in
        # the parent by ``merge_metrics``, like ``merge_pool_stats``.
        snapshot = {"pool": pool.stats(), "metrics": metrics.snapshot()} \
            if served <= 4 or served % _STATS_SNAPSHOT_PERIOD == 0 else None
        conn.send(("done", seq, response, snapshot))


class _WorkerHandle:
    """Supervisor-side handle for one worker process.

    Only the owning dispatcher thread calls :meth:`call`, so the pipe needs
    no locking; :meth:`respawn` replaces a dead worker in place (fresh
    process, cold caches) and the shard→worker pinning is untouched, so
    affinity keeps working across crashes.
    """

    def __init__(self, index, config, ctx):
        self.index = index
        self.restarts = 0
        self.requests = 0
        self.generation = 0
        self._config = config
        self._ctx = ctx
        self._seq = 0
        # Serializes pipe conversations: the dispatcher thread owns normal
        # traffic, but wait_ready() pings arrive from other threads and two
        # concurrent recv()s on one Connection steal/corrupt replies.
        self._lock = threading.Lock()
        self.process = None
        self.conn = None
        self._spawn()

    def _spawn(self):
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        config = dict(self._config, worker_index=self.index, log=logging_target())
        process = self._ctx.Process(
            target=_process_worker_main, args=(child_conn, config),
            name=f"kmt-server-proc-{self.index}", daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds the only other end now
        self.process = process
        self.conn = parent_conn

    @property
    def pid(self):
        return self.process.pid if self.process is not None else None

    def call(self, tag, *payload, timeout=None):
        """One request/response round trip; raises ``WorkerCrashed`` on a
        broken pipe (the worker died — killed, OOMed, or segfaulted).

        Every message carries a sequence number the worker echoes in its
        reply; replies bearing an older sequence are discarded.  That keeps
        the pipe usable after a *timed-out* call (``timeout`` in seconds,
        ``None`` returned on expiry): a ping the supervisor stopped waiting
        for — e.g. ``wait_ready`` against a worker still importing — answers
        late, and without the sequence check that stale pong would be read as
        the next request's reply, desyncing the conversation for good.
        Queries run unbounded (deadlines are the cooperative, in-worker
        mechanism); the timeout exists for liveness probes.

        Calls are serialized per handle: a bounded call that cannot take the
        pipe within its timeout (a query is mid-flight on the dispatcher)
        reports not-ready rather than recv-racing the dispatcher for its
        reply.
        """
        if timeout is None:
            self._lock.acquire()
        elif not self._lock.acquire(timeout=timeout):
            return None
        try:
            pid = self.pid
            self._seq += 1
            seq = self._seq
            deadline = None if timeout is None else time.monotonic() + timeout
            try:
                self.conn.send((tag, seq) + payload)
                while True:
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not self.conn.poll(remaining):
                            return None
                    reply = self.conn.recv()
                    if reply[1] == seq:
                        return reply
                    # Stale reply to an abandoned earlier call: drop, re-wait.
            except (EOFError, OSError) as error:
                detail = f": {error}" if str(error) else ""
                raise WorkerCrashed(
                    f"worker process {self.index} (pid {pid}) died mid-request{detail}"
                ) from error
        finally:
            self._lock.release()

    def respawn(self, observed_generation=None):
        """Replace a dead worker; a no-op if another observer already did.

        Two threads can see the same crash (a dispatcher's exec and a
        ``wait_ready`` ping both hitting the dead pipe); ``observed_generation``
        — captured before the failed call — makes the second respawn
        recognize that the worker it saw die is already replaced, instead of
        tearing down the healthy replacement.
        """
        with self._lock:
            if observed_generation is not None and observed_generation != self.generation:
                return
            try:
                self.conn.close()
            except OSError:
                pass
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # crashed pipe but wedged process
                self.process.kill()
                self.process.join(timeout=5.0)
            self.restarts += 1
            self.generation += 1
            self._spawn()

    def stop(self, timeout=5.0):
        with self._lock:
            try:
                self.conn.send(("stop",))
            except (EOFError, OSError):
                pass  # already dead
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=timeout)
            try:
                self.conn.close()
            except OSError:
                pass


class ProcessExecutionBackend:
    """Execute queries in per-worker *processes* (true CPU parallelism).

    Each of ``workers`` processes holds its own :class:`ShardedSessionPool`,
    and no cache is shared between processes; the scheduler's shard→worker
    pinning means a given ``(theory, stripe)`` shard always executes in the
    same process, so cache affinity works exactly as in the thread backend.
    Request and response records cross the pipe as plain dicts; theory
    injection crosses by ``theory_factory_spec`` (``"module:attribute"``,
    resolved inside each worker).  A crashed worker is respawned by its
    dispatcher thread and the in-flight request answered with a structured
    ``worker_crashed`` error — requests queued behind it are executed by the
    respawned worker, so no id is lost or duplicated.
    """

    name = "process"

    def __init__(self, workers, stripes, budget=DEFAULT_BUDGET, default_theory=DEFAULT_THEORY,
                 theory_factory_spec=None):
        if theory_factory_spec is not None:
            # Fail fast in the parent on a bad spec instead of crash-looping
            # every worker at spawn.
            resolve_theory_factory(theory_factory_spec)
        self.workers = workers
        self._config = {
            "stripes": stripes,
            "budget": budget,
            "default_theory": default_theory,
            "theory_factory_spec": theory_factory_spec,
        }
        # Spawn, never fork: the supervisor runs threads, and a forked child
        # would inherit their locks mid-operation.
        self._ctx = multiprocessing.get_context("spawn")
        self._handles = []
        self._stats_lock = threading.Lock()
        self._last_pool_stats = {}  # worker index -> latest cache-stats snapshot
        self._last_metrics = {}     # worker index -> latest metrics snapshot
        # Latest known-good snapshot payload: installed at boot by
        # ``import_snapshot`` and refreshed by every ``export_snapshot``
        # (checkpoint).  A respawned worker is warmed from it over the pipe,
        # so a SIGKILL'd worker comes back with its caches instead of cold.
        self._warm_lock = threading.Lock()
        self._warm_payload = None
        self.warm_restores = 0
        self.warm_restore_errors = 0

    def start(self):
        if not self._handles:
            self._handles = [
                _WorkerHandle(index, self._config, self._ctx)
                for index in range(self.workers)
            ]

    def wait_ready(self, timeout=None):
        """Block until every worker process answers a ping (imports done).

        Useful to keep interpreter spawn/import cost out of latency-sensitive
        paths (timed callers warm up explicitly; serving just absorbs it).
        ``False`` when the timeout elapses (including a worker that spawned
        but wedged without answering) or a worker crashed at spawn.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self._handles:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            generation = handle.generation
            try:
                reply = handle.call("ping", timeout=remaining)
            except WorkerCrashed:
                handle.respawn(generation)
                self._warm_respawned(handle)
                return False
            if reply is None or reply[0] != "pong":
                return False
        return True

    def _warm_respawned(self, handle):
        """Hand the latest snapshot payload to a freshly respawned worker.

        Best-effort: a worker that cannot be warmed (snapshot decode failure,
        another crash, timeout) serves cold — warm restarts are an
        optimization, never a liveness dependency.
        """
        with self._warm_lock:
            payload = self._warm_payload
        if payload is None:
            return
        try:
            reply = handle.call("snapshot_import", payload, timeout=120.0)
        except WorkerCrashed as crash:
            reply = ("snapshot_err", None, str(crash))
        if reply is not None and reply[0] == "snapshot_ok":
            self.warm_restores += 1
            log_event(_log, logging.INFO, "worker_warm_restored",
                      worker=handle.index, pid=handle.pid, counts=reply[2])
        else:
            self.warm_restore_errors += 1
            detail = "timed out" if reply is None else reply[2]
            log_event(_log, logging.WARNING, "worker_warm_restore_failed",
                      worker=handle.index, pid=handle.pid, error=detail)

    def execute(self, worker_index, request):
        handle = self._handles[worker_index]
        record = request.record
        remaining_ms = None
        if request.deadline is not None:
            # The queued-too-long case was already answered by the scheduler;
            # anything left is the execution budget, re-anchored worker-side.
            remaining_ms = max(0.001, (request.deadline - time.monotonic()) * 1000.0)
        generation = handle.generation
        try:
            reply = handle.call("exec", record, request.fallback_id, remaining_ms,
                                request.deadline_ms)
            if reply[0] != "done":
                raise WorkerCrashed(
                    f"worker process {handle.index} (pid {handle.pid}) broke protocol "
                    f"(sent {reply[0]!r})")
            _, _, response, snapshot = reply
        except WorkerCrashed as crash:
            crashed_pid = handle.pid
            handle.respawn(generation)
            log_event(_log, logging.WARNING, "worker_respawned",
                      worker=handle.index, crashed_pid=crashed_pid,
                      new_pid=handle.pid, restarts=handle.restarts,
                      error=str(crash))
            self._warm_respawned(handle)
            return error_response(
                record, request.fallback_id, request.theory,
                f"{crash}; worker respawned as pid {handle.pid} (the request was "
                "not retried)", ERROR_WORKER_CRASHED)
        handle.requests += 1
        if snapshot is not None:
            with self._stats_lock:
                self._last_pool_stats[handle.index] = snapshot["pool"]
                self._last_metrics[handle.index] = snapshot["metrics"]
        return response

    def pool_stats(self):
        """Merged per-worker cache stats (latest periodic snapshot each).

        Workers piggyback snapshots every :data:`_STATS_SNAPSHOT_PERIOD`
        responses, so the merge can trail the most recent requests slightly —
        a deliberate trade against taxing every response with stats traffic.
        """
        with self._stats_lock:
            blocks = list(self._last_pool_stats.values())
        return merge_pool_stats(blocks)

    def theories(self):
        with self._stats_lock:
            blocks = list(self._last_pool_stats.values())
        return sorted({name for block in blocks for name in block})

    def worker_metrics(self):
        """Merged per-worker metrics (same snapshot cadence as pool stats)."""
        with self._stats_lock:
            snapshots = list(self._last_metrics.values())
        if not snapshots:
            return None
        return merge_metrics(snapshots)

    def import_snapshot(self, payload):
        """Broadcast a snapshot payload to every worker (and remember it).

        Raises :class:`~repro.utils.errors.SnapshotError` if any worker
        rejects the payload or cannot be reached; workers stage the decode
        before installing, so a rejecting worker's caches are untouched.
        Returns the per-theory entry counts reported by the first worker
        (every worker imports the identical payload).
        """
        from repro.engine import persist
        from repro.utils.errors import SnapshotError

        persist.check_payload(payload)
        counts = {}
        failures = []
        for handle in self._handles:
            try:
                reply = handle.call("snapshot_import", payload, timeout=300.0)
            except WorkerCrashed as crash:
                failures.append(f"worker {handle.index}: {crash}")
                continue
            if reply is None:
                failures.append(f"worker {handle.index}: snapshot import timed out")
            elif reply[0] != "snapshot_ok":
                failures.append(f"worker {handle.index}: {reply[2]}")
            elif not counts:
                counts = reply[2]
        if failures:
            raise SnapshotError("; ".join(failures))
        with self._warm_lock:
            self._warm_payload = payload
        return counts

    def export_snapshot(self):
        """Merged snapshot payload collected from every reachable worker.

        Busy or just-crashed workers are skipped (their tables ride the next
        checkpoint); raises :class:`~repro.utils.errors.SnapshotError` only
        when *no* worker could contribute, so a checkpoint never replaces a
        good on-disk snapshot with an empty one.
        """
        from repro.engine import persist
        from repro.utils.errors import SnapshotError

        payloads = []
        for handle in self._handles:
            generation = handle.generation
            try:
                reply = handle.call("snapshot_export", timeout=60.0)
            except WorkerCrashed:
                handle.respawn(generation)
                self._warm_respawned(handle)
                continue
            if reply is None:
                continue  # worker busy with a long query; skip this round
            if reply[0] != "snapshot_ok":
                log_event(_log, logging.WARNING, "snapshot_export_worker_failed",
                          worker=handle.index, error=reply[2])
                continue
            payloads.append(reply[2])
        if not payloads:
            raise SnapshotError("no worker could export a snapshot")
        merged = persist.merge_payloads(payloads)
        with self._warm_lock:
            self._warm_payload = merged
        return merged

    def worker_info(self):
        return [
            {
                "index": handle.index,
                "pid": handle.pid,
                "alive": handle.process.is_alive() if handle.process is not None else False,
                "requests": handle.requests,
                "restarts": handle.restarts,
            }
            for handle in self._handles
        ]

    def shutdown(self):
        for handle in self._handles:
            handle.stop()
        self._handles = []


class ResponseSink:
    """Thread-safe response writer for one client (stdout or a socket).

    Assigns per-client sequence numbers at submission time; ``ordered=True``
    buffers out-of-order completions in a heap and releases them in
    submission order.  A write failure (client went away) marks the sink
    broken and silently drops the remaining responses — workers must never
    die because a client hung up.
    """

    def __init__(self, write_line, ordered=False):
        self._write_line = write_line
        self.ordered = ordered
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._next_seq = 0   # next sequence number to assign
        self._next_emit = 0  # (ordered) next sequence to release
        self._written = 0    # responses actually written (or dropped as broken)
        self._pending = []   # (ordered) heap of (seq, serialized line)
        self.broken = False

    def next_seq(self):
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    def _write(self, line):
        if not self.broken:
            try:
                self._write_line(line)
            except (OSError, ValueError):
                self.broken = True
        self._written += 1
        self._drained.notify_all()

    def emit(self, seq, response):
        line = json.dumps(response, sort_keys=True)
        with self._lock:
            if not self.ordered:
                self._write(line)
                return
            heapq.heappush(self._pending, (seq, line))
            while self._pending and self._pending[0][0] == self._next_emit:
                _, ready = heapq.heappop(self._pending)
                self._next_emit += 1
                self._write(ready)

    def emit_now(self, build):
        """Write ``build()`` immediately, outside the sequence stream.

        Control responses (``stats``/``ping``/``metrics``) jump the line even
        under ordered mode — observability must not wait behind jammed
        queries — so they carry no sequence number and do not count toward
        :meth:`wait_drained`.  The response is built here rather than by the
        caller so a sink that holds controls back (the batch sink) reports
        the state after the queries it waited for.
        """
        line = json.dumps(build(), sort_keys=True)
        with self._lock:
            if not self.broken:
                try:
                    self._write_line(line)
                except (OSError, ValueError):
                    self.broken = True

    def wait_drained(self, timeout=None):
        """Block until every assigned sequence number has been written."""
        with self._lock:
            return self._drained.wait_for(
                lambda: self._written >= self._next_seq, timeout=timeout
            )


class _Request:
    __slots__ = ("record", "theory", "stripe", "sink", "seq", "fallback_id",
                 "submitted", "deadline", "deadline_ms", "dispatched", "wants_trace")

    def __init__(self, record, theory, stripe, sink, seq, fallback_id, submitted,
                 deadline, deadline_ms):
        self.record = record
        self.theory = theory
        self.stripe = stripe
        self.sink = sink
        self.seq = seq
        self.fallback_id = fallback_id
        self.submitted = submitted
        self.deadline = deadline
        self.deadline_ms = deadline_ms
        self.dispatched = None            # set by the worker loop
        self.wants_trace = bool(record.get("trace"))


class QueryServer:
    """The scheduler: bounded intake, shard-affine dispatch, worker threads.

    Front ends (:func:`serve_stdio`, :class:`SocketServer`) feed raw protocol
    lines to :meth:`submit_line` together with the client's
    :class:`ResponseSink`; everything after that — validation, backpressure,
    shard routing, deadline handling, emission — happens here.  Usable as a
    context manager (``with QueryServer() as server: ...``), which drains on
    exit.
    """

    def __init__(self, workers=4, stripes=None, queue_limit=128, default_theory=DEFAULT_THEORY,
                 budget=DEFAULT_BUDGET, theory_factory=None, backend="thread",
                 theory_factory_spec=None, slow_query_ms=None):
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be at least 1, got {queue_limit}")
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
        if stripes is not None and stripes < 1:
            # Validated here for both backends: the process backend only
            # builds its (stripe-validating) pools inside the spawned
            # workers, far too late for a clean startup error.
            raise ValueError(f"stripes must be at least 1, got {stripes}")
        self.workers = workers
        self.stripes = workers if stripes is None else stripes
        self.queue_limit = queue_limit
        self.default_theory = default_theory
        self.backend_name = backend
        if backend == "process":
            if theory_factory is not None:
                raise ValueError("theory_factory is in-process only; pass "
                                 "theory_factory_spec='module:attribute' for the "
                                 "process backend")
            self.pool = None
            self.backend = ProcessExecutionBackend(
                workers=workers, stripes=self.stripes, budget=budget,
                default_theory=default_theory, theory_factory_spec=theory_factory_spec,
            )
        else:
            if theory_factory is not None and theory_factory_spec is not None:
                raise ValueError("pass either theory_factory or theory_factory_spec, "
                                 "not both")
            if theory_factory_spec is not None:
                theory_factory = resolve_theory_factory(theory_factory_spec)
            self.pool = ShardedSessionPool(
                stripes=self.stripes, budget=budget, theory_factory=theory_factory,
            )
            self.backend = ThreadExecutionBackend(self.pool, default_theory)
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ValueError(f"slow_query_ms must be non-negative, got {slow_query_ms}")
        self.slow_query_ms = slow_query_ms
        self.metrics = MetricsRegistry()
        self._queues = [Queue() for _ in range(workers)]
        self._threads = []
        self._capacity = threading.Semaphore(queue_limit)
        self._state = threading.Lock()
        self._idle = threading.Condition(self._state)
        self._in_flight = 0       # queued or executing
        self._queued = 0          # queued, not yet picked up by a worker
        self._peak_queued = 0
        self._completed = 0
        self._op_counts = {}      # op -> completed count (satellite: stats by_op)
        self._error_counts = {}
        self._latencies = deque(maxlen=_LATENCY_WINDOW)
        self._queue_latencies = deque(maxlen=_LATENCY_WINDOW)
        self._exec_latencies = deque(maxlen=_LATENCY_WINDOW)
        self._accepting = True
        self._started = False
        self._started_monotonic = time.monotonic()
        self._started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        # Attached by the CLI when serving with ``--snapshot``; surfaced in
        # ``stats`` responses so operators can watch checkpoint health.
        self.snapshot_manager = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return self
        self._started = True
        self._started_monotonic = time.monotonic()
        self._started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        with self._state:
            # A stopped server may be started again (shutdown() tears the
            # workers down but leaves the object reusable); intake must
            # reopen with it or every request gets `shutting_down`.
            self._accepting = True
        log_event(_log, logging.INFO, "server_start",
                  backend=self.backend_name, workers=self.workers,
                  stripes=self.stripes, queue_limit=self.queue_limit,
                  slow_query_ms=self.slow_query_ms)
        self.backend.start()
        for index, queue in enumerate(self._queues):
            thread = threading.Thread(
                target=self._worker_loop, args=(queue, index),
                name=f"kmt-server-worker-{index}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def wait_ready(self, timeout=None):
        """Block until the execution backend is warm (worker processes up)."""
        return self.backend.wait_ready(timeout=timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.shutdown(drain=exc_type is None)

    def drain(self):
        """Stop accepting new queries and wait for all in-flight to answer."""
        with self._state:
            self._accepting = False
            self._idle.wait_for(lambda: self._in_flight == 0)

    def wait_idle(self, timeout=None):
        """Wait for in-flight work to finish without stopping intake."""
        with self._state:
            return self._idle.wait_for(lambda: self._in_flight == 0, timeout=timeout)

    def shutdown(self, drain=True):
        """Drain (optionally) and stop the worker threads."""
        if drain:
            self.drain()
        else:
            with self._state:
                self._accepting = False
        if self._started:
            for queue in self._queues:
                queue.put(_STOP)
            for thread in self._threads:
                thread.join()
            self._threads = []
            self._started = False
            with self._state:
                completed, errors = self._completed, dict(self._error_counts)
            log_event(_log, logging.INFO, "server_stop",
                      backend=self.backend_name, completed=completed, errors=errors)
        self.backend.shutdown()

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit_line(self, raw, sink, lineno=None, block=True, timeout=None):
        """Parse and dispatch one raw protocol line for a client.

        Returns the line's disposition: ``"skip"``, ``"quit"``, ``"control"``,
        ``"queued"``, ``"error"`` (protocol-invalid line) or ``"rejected"``
        (valid query refused by backpressure/shutdown — the client got a
        structured error response).  ``block=False`` turns a full queue into
        an immediate ``queue_full`` rejection instead of blocking the caller.
        """
        kind, payload = parse_request_line(raw)
        if kind == "skip":
            return "skip"
        if kind == "quit":
            return "quit"
        if kind == "control":
            # Answered inline and emitted out-of-band (no sequence number):
            # control ops bypass both the bounded queue and ordered-mode
            # buffering so observability works while the queue is jammed.
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
        theory = str(record.get("theory", self.default_theory)).lower()
        deadline, deadline_ms, deadline_error = self._parse_deadline(record)
        if deadline_error is not None:
            self._count_error(ERROR_INVALID)
            sink.emit(seq, error_response(record, fallback_id, theory, deadline_error,
                                          ERROR_INVALID))
            return "error"
        with self._state:
            accepting = self._accepting
        if not accepting:
            self._count_error(ERROR_SHUTDOWN)
            sink.emit(seq, error_response(
                record, fallback_id, theory, "server is shutting down", ERROR_SHUTDOWN))
            return "rejected"
        if not self._capacity.acquire(blocking=block, timeout=timeout):
            self._count_error(ERROR_QUEUE_FULL)
            sink.emit(seq, error_response(
                record, fallback_id, theory,
                f"request queue is full (limit {self.queue_limit})", ERROR_QUEUE_FULL))
            return "rejected"
        stripe = _affinity_stripe(record, self.stripes)
        request = _Request(record, theory, stripe, sink, seq, fallback_id,
                           time.monotonic(), deadline, deadline_ms)
        with self._state:
            if not self._accepting:
                # Raced with drain()/shutdown(): refuse rather than wedge it.
                self._capacity.release()
                self._count_error_locked(ERROR_SHUTDOWN)
                rejected = True
            else:
                self._in_flight += 1
                self._queued += 1
                self._peak_queued = max(self._peak_queued, self._queued)
                # Enqueue under the state lock: shutdown() flips _accepting
                # under the same lock before posting _STOP sentinels, so a
                # request can never land behind a sentinel and silently vanish
                # (worker queues are unbounded — this put cannot block).
                self._queues[self._worker_index(theory, stripe)].put(request)
                rejected = False
        if rejected:
            sink.emit(seq, error_response(
                record, fallback_id, theory, "server is shutting down", ERROR_SHUTDOWN))
            return "rejected"
        return "queued"

    @staticmethod
    def _parse_deadline(record):
        """Extract ``deadline_ms``; returns ``(deadline, ms, error_message)``."""
        deadline_ms = record.get("deadline_ms")
        if deadline_ms is None:
            return None, None, None
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)) \
                or deadline_ms <= 0:
            return None, None, f"deadline_ms must be a positive number, got {deadline_ms!r}"
        return time.monotonic() + deadline_ms / 1000.0, deadline_ms, None

    def _worker_index(self, theory, stripe):
        # Pin each (theory, stripe) shard to one worker so its session is
        # never touched by two threads; offsetting by a theory hash keeps a
        # hot theory's stripes covering all workers.
        return (zlib.crc32(theory.encode("utf-8", "backslashreplace")) + stripe) % self.workers

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker_loop(self, queue, worker_index):
        while True:
            request = queue.get()
            if request is _STOP:
                return
            request.dispatched = time.monotonic()
            with self._state:
                self._queued -= 1
            op = request.record.get("op", "unknown")
            try:
                response = self._execute(worker_index, request)
            except Exception as error:  # noqa: BLE001 — a lost seq wedges ordered sinks
                log_event(_log, logging.ERROR, "internal_error",
                          request_id=request.record.get("id", request.fallback_id),
                          op=op, theory=request.theory, error=repr(error))
                response = error_response(request.record, request.fallback_id,
                                          request.theory, str(error), ERROR_INTERNAL)
            # One clock read covers the latency sample, its queue/exec split
            # and the trace's re-anchored totals, so they can never disagree.
            done = time.monotonic()
            latency = done - request.submitted
            queue_s = request.dispatched - request.submitted
            exec_s = done - request.dispatched
            trace_block = response.get("trace")
            if trace_block is not None:
                if not request.wants_trace:
                    # Force-traced for the slow-query log only: the client did
                    # not ask for a trace and must not receive one.
                    del response["trace"]
                else:
                    # Re-anchor in the scheduler's clock domain: exec_ms was
                    # measured next to the query (possibly in another
                    # process); queue wait and the end-to-end total are the
                    # scheduler's to report, the same split the deadline
                    # plumbing uses.
                    trace_block["queue_ms"] = round(queue_s * 1000.0, 3)
                    trace_block["total_ms"] = round(latency * 1000.0, 3)
            # Count the request before its response is written: a client
            # that reads the answer and then asks for ``stats``/``metrics``
            # must find it counted (the batch front end relies on this).
            code = response.get("error_code")
            with self._state:
                self._completed += 1
                self._op_counts[op] = self._op_counts.get(op, 0) + 1
                self._latencies.append(latency)
                self._queue_latencies.append(queue_s)
                self._exec_latencies.append(exec_s)
                if code is not None:
                    self._error_counts[code] = self._error_counts.get(code, 0) + 1
            labels = (("theory", request.theory), ("op", op))
            self.metrics.inc("requests_total", labels + (("outcome", code or "ok"),))
            self.metrics.observe("request_latency_ms", latency * 1000.0, labels)
            self.metrics.observe("queue_latency_ms", queue_s * 1000.0, labels)
            self.metrics.observe("exec_latency_ms", exec_s * 1000.0, labels)
            request.sink.emit(request.seq, response)
            self._capacity.release()
            with self._state:
                self._in_flight -= 1
                if self._in_flight == 0:
                    self._idle.notify_all()
            if self.slow_query_ms is not None and latency * 1000.0 >= self.slow_query_ms:
                log_event(_log, logging.WARNING, "slow_query",
                          request_id=response.get("id"), op=op,
                          theory=request.theory, outcome=code or "ok",
                          total_ms=round(latency * 1000.0, 3),
                          queue_ms=round(queue_s * 1000.0, 3),
                          exec_ms=round(exec_s * 1000.0, 3),
                          phases=(trace_block or {}).get("phases"),
                          cache=(trace_block or {}).get("cache"))

    def _execute(self, worker_index, request):
        # The queued-too-long check lives in the scheduler (one clock, one
        # owner for queue time); everything past here is the backend's.
        if request.deadline is not None and time.monotonic() >= request.deadline:
            return error_response(
                request.record, request.fallback_id, request.theory,
                f"deadline of {request.deadline_ms} ms expired while queued",
                ERROR_DEADLINE)
        if self.slow_query_ms is not None and not request.wants_trace:
            # Force a trace so a slow offender can be logged with its full
            # phase breakdown; the worker loop strips it from the client
            # response.  The flag crosses the process pipe with the record.
            request.record["trace"] = True
        return self.backend.execute(worker_index, request)

    # ------------------------------------------------------------------
    # control / observability
    # ------------------------------------------------------------------
    def _count_error(self, code):
        with self._state:
            self._count_error_locked(code)

    def _count_error_locked(self, code):
        self._error_counts[code] = self._error_counts.get(code, 0) + 1
        # A leaf lock under self._state — the registry never takes
        # scheduler locks, so the ordering is safe.
        self.metrics.inc("rejected_total", (("code", code),))

    @staticmethod
    def _percentile_block(samples_sorted):
        """Percentiles over a sorted window of second-valued samples."""
        def percentile(fraction):
            if not samples_sorted:
                return None
            index = min(len(samples_sorted) - 1, int(fraction * len(samples_sorted)))
            return round(samples_sorted[index] * 1000.0, 3)

        return {
            "count": len(samples_sorted),
            "p50": percentile(0.50),
            "p90": percentile(0.90),
            "p99": percentile(0.99),
            "max": round(samples_sorted[-1] * 1000.0, 3) if samples_sorted else None,
        }

    def server_stats(self):
        """Scheduler-level counters: queue gauges and latency percentiles.

        ``latency_ms`` is end-to-end (submission to response); ``queue_ms``
        and ``exec_ms`` split the same window at worker dispatch, so an
        operator can tell backpressure from slow compute at a glance.
        """
        with self._state:
            latencies = sorted(self._latencies)
            queue_latencies = sorted(self._queue_latencies)
            exec_latencies = sorted(self._exec_latencies)
            queued = self._queued
            peak = self._peak_queued
            in_flight = self._in_flight
            completed = self._completed
            by_op = dict(sorted(self._op_counts.items()))
            errors = dict(self._error_counts)

        out = {
            "backend": self.backend_name,
            "workers": self.workers,
            "stripes": self.stripes,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "started_at": self._started_at,
            "queue": {
                "depth": queued,
                "peak": peak,
                "limit": self.queue_limit,
                "in_flight": in_flight,
            },
            "requests": {"completed": completed, "errors": errors, "by_op": by_op},
            "latency_ms": self._percentile_block(latencies),
            "queue_ms": self._percentile_block(queue_latencies),
            "exec_ms": self._percentile_block(exec_latencies),
        }
        worker_info = self.backend.worker_info()
        if worker_info is not None:
            out["process_workers"] = worker_info
            out["warm_restores"] = getattr(self.backend, "warm_restores", 0)
            out["warm_restore_errors"] = getattr(self.backend, "warm_restore_errors", 0)
        if self.snapshot_manager is not None:
            out["snapshot"] = self.snapshot_manager.stats()
        return out

    # ------------------------------------------------------------------
    # snapshot save / load (see repro.engine.persist)
    # ------------------------------------------------------------------
    def export_snapshot(self):
        """Snapshot payload of the live cache state (all workers merged)."""
        return self.backend.export_snapshot()

    def import_snapshot(self, payload):
        """Warm every worker from a snapshot payload; returns entry counts."""
        return self.backend.import_snapshot(payload)

    def metrics_snapshot(self):
        """The aggregated metrics: scheduler registry + merged worker blocks.

        Parent-side counters/histograms, the process workers' merged
        registries (when that backend is active — same piggyback cadence as
        their cache stats), live scheduler gauges, and the pool's cache
        tables re-expressed as ``cache_*_total`` counters labeled by theory
        and table.
        """
        snapshots = [self.metrics.snapshot()]
        worker = self.backend.worker_metrics()
        if worker is not None:
            snapshots.append(worker)
        merged = merge_metrics(snapshots)
        with self._state:
            gauge_values = {
                "queue_depth": self._queued,
                "queue_peak": self._peak_queued,
                "queue_limit": self.queue_limit,
                "in_flight": self._in_flight,
            }
        gauge_values.update({
            "workers": self.workers,
            "stripes": self.stripes,
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
        })
        for name, value in gauge_values.items():
            merged["gauges"][name] = [{"labels": {}, "value": value}]
        counters = merged["counters"]
        for theory, block in self.backend.pool_stats().items():
            for table, stats in block.get("tables", {}).items():
                labels = {"theory": theory, "table": table}
                for counter, metric in (("hits", "cache_hits_total"),
                                        ("misses", "cache_misses_total"),
                                        ("evictions", "cache_evictions_total")):
                    value = stats.get(counter, 0)
                    if value:
                        counters.setdefault(metric, []).append(
                            {"labels": labels, "value": value})
        return merged

    def metrics_prometheus(self):
        """The metrics snapshot in Prometheus text exposition format."""
        return render_prometheus(self.metrics_snapshot())

    def _control_response(self, record, fallback_id):
        response = {"id": record.get("id", fallback_id), "op": record["op"], "ok": True}
        if record["op"] == "stats":
            result = self.backend.pool_stats()
            result["server"] = self.server_stats()
            if self.snapshot_manager is not None:
                result["snapshot"] = self.snapshot_manager.stats()
            response["result"] = result
        elif record["op"] == "metrics":
            response["result"] = self.metrics_snapshot()
        else:
            response["result"] = {"pong": True, "theories": self.backend.theories()}
        return response


# ---------------------------------------------------------------------------
# front ends
# ---------------------------------------------------------------------------


def serve_stdio(stdin, stdout, server, ordered=False):
    """Serve the JSONL protocol from ``stdin`` to ``stdout`` on ``server``.

    Same protocol and default-``id`` semantics (0-based input line number)
    as ``kmt batch``; requests overlap across the server's worker shards and
    completions are emitted out-of-order unless ``ordered=True`` (on a
    one-worker server that answers strictly one request at a time, in input
    order).  Starts ``server`` if it is not running, reads until EOF or
    ``{"op": "quit"}``, waits for this stream's in-flight requests to answer,
    and returns the number of protocol-valid requests accepted (malformed
    lines are answered with error records but not counted).  The server
    stays up: shutting it down is the caller's job.
    """
    server.start()
    sink = ResponseSink(
        lambda line: (stdout.write(line + "\n"), stdout.flush()), ordered=ordered)
    served = 0
    try:
        for lineno, raw in enumerate(stdin):
            outcome = server.submit_line(raw, sink, lineno=lineno)
            if outcome == "quit":
                break
            if outcome in ("queued", "control"):
                served += 1
    finally:
        # Wait for this stream's work without flipping the server to
        # non-accepting: it may still serve other clients.
        server.wait_idle()
        sink.wait_drained(timeout=5.0)
    return served


class _BatchSink(ResponseSink):
    """Ordered sink collecting a batch's response lines.

    A control line waits until every query before it has answered, so it
    lands at its input position and reports the state after them.
    """

    def __init__(self):
        self.lines = []
        super().__init__(self.lines.append, ordered=True)

    def emit_now(self, build):
        self.wait_drained()
        super().emit_now(build)


def run_batch_lines(lines, default_theory=DEFAULT_THEORY, budget=DEFAULT_BUDGET, jobs=4,
                    slow_query_ms=None):
    """Answer a JSONL batch in input order; returns ``(responses, pool)``.

    The lines go through the same :class:`QueryServer` as ``kmt serve``
    (thread backend, ``jobs`` workers) with one stripe, so each theory's
    queries share one warm session; ``pool`` is that server's
    :class:`ShardedSessionPool`, returned for its stats and sessions.
    ``lines`` is consumed lazily, one line at a time.  Blank lines and ``#``
    comments get no response; a record without an ``id`` gets its 0-based
    input line number.  ``quit`` is answered ``unknown_op`` (it only means
    something to ``serve``) and the batch goes on.
    """
    server = QueryServer(workers=jobs, stripes=1, default_theory=default_theory,
                         budget=budget, slow_query_ms=slow_query_ms)
    sink = _BatchSink()
    server.start()
    try:
        for lineno, raw in enumerate(lines):
            if server.submit_line(raw, sink, lineno=lineno) == "quit":
                _, record = parse_request_line(raw)
                server._count_error(ERROR_UNKNOWN_OP)
                sink.emit(sink.next_seq(), error_response(
                    record, lineno, None,
                    "op 'quit' is only valid in serve mode; expected one of "
                    f"{', '.join(QUERY_OPS + CONTROL_OPS)}", ERROR_UNKNOWN_OP))
    finally:
        server.shutdown(drain=True)
    return [json.loads(line) for line in sink.lines], server.pool


#: Per-connection bound on responses waiting for a slow client to read them.
#: A client further behind than this is treated as gone: its sink goes broken
#: and later responses for it are dropped, so one reader that stalls can never
#: wedge the workers (and with them every other client).
_WRITER_QUEUE_LIMIT = 256


class _ConnectionWriter:
    """Writes one client's responses without ever blocking the emitter.

    Workers (and the router's link readers) must never block on a slow
    client's TCP send buffer while holding global queue capacity.
    ``write_line`` therefore sends inline with ``MSG_DONTWAIT`` when nothing
    is queued ahead of it, so the thread that produced a response writes it;
    only what the socket cannot take goes to a bounded backlog, which a
    writer thread drains with blocking ``sendall``.  A client more than
    :data:`_WRITER_QUEUE_LIMIT` responses behind makes ``write_line`` raise
    ``OSError`` (which flips the sink to broken) and loses its backlog.
    """

    def __init__(self, conn):
        self._conn = conn
        self._ready = threading.Condition()
        self._backlog = deque()  # its head is the write in flight, if any
        self._closed = False
        self._broken = False
        self._thread = threading.Thread(target=self._loop, name="kmt-server-writer",
                                        daemon=True)
        self._thread.start()

    def write_line(self, line):
        data = (line + "\n").encode("utf-8")
        with self._ready:
            if self._broken:
                raise OSError("client connection is broken")
            if not self._backlog:
                try:
                    data = data[self._conn.send(data, socket.MSG_DONTWAIT):]
                except BlockingIOError:
                    pass
                if not data:
                    return
            if len(self._backlog) >= _WRITER_QUEUE_LIMIT:
                self._broken = True
                self._backlog.clear()
                raise OSError(
                    f"client is more than {_WRITER_QUEUE_LIMIT} responses behind")
            self._backlog.append(data)
            self._ready.notify()

    def _loop(self):
        while True:
            with self._ready:
                self._ready.wait_for(lambda: self._backlog or self._closed)
                if not self._backlog:
                    return
                data = self._backlog[0]
            try:
                self._conn.sendall(data)
            except OSError:
                self._broken = True
                return
            with self._ready:
                if self._backlog:  # an overflow may have dropped it meanwhile
                    self._backlog.popleft()

    def close(self, force_close=None, timeout=10.0):
        """Flush the backlog and stop the writer thread.

        ``force_close`` (a callable shutting the socket) makes a blocked
        ``sendall`` raise so the thread can exit: it is invoked at once for
        a client already given up on, else if the backlog has not drained
        within ``timeout``.
        """
        with self._ready:
            self._closed = True
            broken = self._broken
            self._ready.notify()
        if broken and force_close is not None:
            force_close()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive() and force_close is not None:
            force_close()
            self._thread.join(timeout=timeout)


class SocketServer:
    """TCP front end: one JSONL protocol conversation per connection.

    ``server`` is the built :class:`QueryServer` (or the cluster
    :class:`~repro.engine.router.Router`) that answers every connection's
    lines; :meth:`start` starts it and :meth:`close` shuts it down.  Each
    accepted connection gets a reader thread and its own
    :class:`ResponseSink` (so ids, ordering and backpressure blocking are all
    per-client).  ``{"op": "quit"}`` is connection-scoped — that client is
    drained and closed while the server keeps running; stop the whole server
    with :meth:`close` (the CLI wires SIGTERM to it).

    ``port=0`` binds an ephemeral port; the actual one is in ``self.port``
    after :meth:`start`.
    """

    def __init__(self, server, host="127.0.0.1", port=0, ordered=False):
        self.host = host
        self.requested_port = port
        self.port = None
        self.ordered = ordered
        self.server = server
        self._listener = None
        self._accept_thread = None
        self._conn_threads = []
        self._conns = set()
        self._conn_lock = threading.Lock()
        self._closing = False

    def start(self):
        self.server.start()
        self._listener = socket.create_server((self.host, self.requested_port))
        # A thread blocked in accept() is not reliably woken by closing the
        # listener from another thread; poll with a short timeout instead so
        # close() completes promptly.
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="kmt-server-accept", daemon=True)
        self._accept_thread.start()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close(drain=exc_type is None)

    def _accept_loop(self):
        while True:
            try:
                conn, _addr = self._listener.accept()
            except TimeoutError:
                with self._conn_lock:
                    if self._closing:
                        return
                continue
            except OSError:
                return  # listener closed
            conn.settimeout(None)  # inherited accept timeout must not apply to I/O
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name="kmt-server-conn", daemon=True)
            with self._conn_lock:
                if self._closing:
                    conn.close()
                    return
                self._conn_threads.append(thread)
                self._conns.add(conn)
            thread.start()

    @staticmethod
    def _force_close(conn):
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _handle_connection(self, conn):
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        writer = _ConnectionWriter(conn)
        sink = ResponseSink(writer.write_line, ordered=self.ordered)
        try:
            for lineno, raw in enumerate(reader):
                outcome = self.server.submit_line(raw, sink, lineno=lineno)
                # A broken sink drops every answer: executing more of this
                # client's requests would be work for nobody.
                if outcome == "quit" or sink.broken:
                    break
        except (OSError, ValueError):
            pass  # client went away mid-read; drain whatever was accepted
        finally:
            # Connection-scoped drain: every accepted request is handed to the
            # writer before the socket closes (unless the client is gone).
            sink.wait_drained(timeout=30.0)
            writer.close(force_close=lambda: self._force_close(conn))
            try:
                reader.close()
            except OSError:
                pass
            self._force_close(conn)
            with self._conn_lock:
                self._conns.discard(conn)
                try:
                    self._conn_threads.remove(threading.current_thread())
                except ValueError:
                    pass  # close() already snapshotted the list

    def close(self, drain=True):
        """Stop accepting, optionally drain in-flight work, stop the workers."""
        with self._conn_lock:
            self._closing = True
            threads = list(self._conn_threads)
            conns = list(self._conns)
        if self._listener is not None:
            self._listener.close()
        # Stop intake FIRST: shutting the read side unblocks (and EOFs) every
        # connection reader, so no client can keep streaming new requests
        # while we wait — otherwise a chatty client could hold the drain open
        # forever.  Handlers still flush responses for already-accepted
        # requests before closing their sockets.
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        if drain:
            self.server.wait_idle()
        for thread in threads:
            thread.join(timeout=30.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self.server.shutdown(drain=drain)

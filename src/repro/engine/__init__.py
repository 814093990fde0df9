"""The query engine: batching, serving and snapshots over the ``KMT`` facade.

The core (:mod:`repro.core`) reproduces the paper's pipeline —
``Normalizer`` → ``EquivalenceChecker`` — behind one
:class:`~repro.core.kmt.KMT` facade that owns the memo tables, the
persistent normalizer and every query entry point.  The engine keeps such
facades alive and feeds them requests:

* :mod:`repro.engine.cache` — bounded, thread-safe LRU memo tables with
  hit/miss accounting, bundled per concern (normalization, satisfiability,
  equivalence verdicts, compiled automata) and keyed on the hash-consed terms,
  predicates and normal forms themselves;
* :mod:`repro.engine.session` — :class:`ShardedSessionPool`, which keeps one
  long-lived ``KMT`` per ``(theory, stripe)``, and ``EngineSession``, the
  engine's name for :class:`~repro.core.kmt.KMT`;
* :mod:`repro.engine.batch` — the JSONL protocol: request classification,
  stable error codes, and execution of one query record on a session;
* :mod:`repro.engine.server` — ``execute_record``, the one function that
  runs a query record for every worker and every one-shot CLI verb, and the
  one scheduler every served query goes through: bounded intake queue with backpressure, per-``(theory, stripe)`` session
  shards pinned to workers (threads in-process, or worker *processes* for
  true CPU parallelism — crashed workers are respawned by a supervisor),
  per-request deadlines with cooperative cancellation, out-of-order or
  ordered emission, and the stdio/TCP (``kmt serve``) and batch
  (``kmt batch``) front ends;
* :mod:`repro.engine.telemetry` — per-request span tracing (``"trace": true``
  phase breakdowns), the counters/gauges/histogram metrics registry with
  Prometheus exposition, and the JSON-lines structured event log.
"""

from repro.engine.cache import CacheStats, EngineCaches, LRUCache
from repro.engine.telemetry import (
    JsonLinesFormatter,
    MetricsExporter,
    MetricsRegistry,
    Trace,
    configure_logging,
    current_trace,
    log_event,
    merge_metrics,
    render_prometheus,
)
from repro.engine.session import EngineSession, ShardedSessionPool
from repro.engine.batch import run_query
from repro.engine.server import (
    ProcessExecutionBackend,
    QueryServer,
    ResponseSink,
    SocketServer,
    ThreadExecutionBackend,
    run_batch_lines,
    serve_stdio,
)

__all__ = [
    "CacheStats",
    "EngineCaches",
    "EngineSession",
    "JsonLinesFormatter",
    "LRUCache",
    "MetricsExporter",
    "MetricsRegistry",
    "ProcessExecutionBackend",
    "QueryServer",
    "ResponseSink",
    "ShardedSessionPool",
    "SocketServer",
    "ThreadExecutionBackend",
    "Trace",
    "configure_logging",
    "current_trace",
    "log_event",
    "merge_metrics",
    "render_prometheus",
    "run_batch_lines",
    "run_query",
    "serve_stdio",
]

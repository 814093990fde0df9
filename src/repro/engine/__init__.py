"""The query engine: a persistent, reusable layer over the one-shot core.

The core (:mod:`repro.core`) faithfully reproduces the paper's pipeline —
``KMT`` facade → ``Normalizer`` → ``EquivalenceChecker`` — but every query
re-normalizes and re-derives automata from scratch.  The engine amortizes
that work across queries:

* :mod:`repro.engine.cache` — bounded, thread-safe LRU memo tables with
  hit/miss accounting, bundled per concern (normalization, derivatives,
  satisfiability, equivalence verdicts) and keyed on the hash-consed terms,
  predicates and normal forms themselves;
* :mod:`repro.engine.session` — :class:`EngineSession`, a long-lived wrapper
  around :class:`~repro.core.kmt.KMT` that threads the caches through the
  normalizer, the signature search and the automata module, and
  :class:`ShardedSessionPool`, which keeps one session per
  ``(theory, stripe)``;
* :mod:`repro.engine.batch` — the JSONL protocol: request classification,
  stable error codes, and execution of one query record on a session;
* :mod:`repro.engine.server` — the one scheduler every query goes through:
  bounded intake queue with backpressure, per-``(theory, stripe)`` session
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

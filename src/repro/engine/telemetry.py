"""Telemetry for the KMT engine: tracing, metrics, structured logging.

Three layers, one module:

1. **Per-request tracing** — the span recorder itself lives in
   :mod:`repro.utils.trace` (so :mod:`repro.core` can be instrumented without
   importing the engine package); this module re-exports it.  A request
   carrying ``"trace": true`` gets a ``trace`` block in its response with the
   per-phase self-time breakdown (``normalize`` / ``signatures`` / ``compile``
   / ``compare`` / ``minimize`` / ``kernel``), the individual spans,
   per-table cache hit/miss deltas, and — from the query server —
   ``queue_ms`` and ``total_ms`` stamped by the scheduler.  The ``kernel``
   phase covers the language comparisons and batched membership of
   :mod:`repro.core.kernels`, which also tally free-form ``counters`` in the
   trace block: ``kernel_fastpath_hits`` (decided by canonical-table
   equality), ``kernel_walk_fallbacks`` (a product walk ran) and
   ``kernel_batch_words`` (words judged by batched membership).  See
   :func:`repro.engine.batch.run_query` for activation and
   :class:`repro.engine.server.QueryServer` for the scheduler half.

2. **Aggregated metrics** — :class:`MetricsRegistry`: thread-safe counters,
   gauges and fixed-bucket log2 latency histograms keyed by arbitrary label
   sets (in practice ``theory`` × request ``op``).  Registries are plain
   data once snapshotted: worker processes piggyback their snapshots over the
   existing stats pipe and the parent folds them with :func:`merge_metrics`,
   exactly as :func:`repro.engine.session.merge_pool_stats` folds cache
   tables.  :func:`render_prometheus` turns a snapshot into Prometheus text
   exposition format (version 0.0.4); :class:`MetricsExporter` serves it over
   HTTP for ``kmt serve --metrics HOST:PORT``.

3. **Structured logging** — JSON-lines event log on the ``kmt.*`` logger
   hierarchy (:class:`JsonLinesFormatter`, :func:`configure_logging`,
   :func:`log_event`).  Silent by default: a ``NullHandler`` is installed on
   the ``"kmt"`` root so nothing is emitted until a CLI flag (or an embedding
   application) configures a handler.  The query server uses
   :func:`log_event` for lifecycle events (start/stop, worker crash/respawn)
   and the slow-query log (``--slow-query-ms``).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
from bisect import bisect_left
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.utils.trace import (  # noqa: F401 — the tracing half of this subsystem
    DEFAULT_MAX_SPANS,
    Trace,
    activate,
    current_trace,
    deactivate,
)

__all__ = [
    "Trace", "current_trace", "activate", "deactivate", "DEFAULT_MAX_SPANS",
    "HISTOGRAM_BUCKETS_MS", "MetricsRegistry", "empty_snapshot", "merge_metrics",
    "render_prometheus", "MetricsExporter",
    "JsonLinesFormatter", "configure_logging", "log_event", "next_request_id",
]

#: Histogram bucket upper bounds (milliseconds): log2 ladder from 0.25 ms to
#: 8192 ms, plus an implicit +Inf overflow bucket.  Fixed — every registry in
#: every worker uses the same ladder, so merging is element-wise addition.
HISTOGRAM_BUCKETS_MS = tuple(float(2 ** exponent) for exponent in range(-2, 14))


def _label_key(labels):
    """Canonicalize a label set (dict or pair iterable) to a sorted tuple."""
    if isinstance(labels, dict):
        return tuple(sorted(labels.items()))
    return tuple(sorted(labels))


class _Histogram:
    __slots__ = ("counts", "total", "sum_ms")

    def __init__(self):
        self.counts = [0] * (len(HISTOGRAM_BUCKETS_MS) + 1)
        self.total = 0
        self.sum_ms = 0.0

    def observe(self, value_ms):
        self.counts[bisect_left(HISTOGRAM_BUCKETS_MS, value_ms)] += 1
        self.total += 1
        self.sum_ms += value_ms


class MetricsRegistry:
    """Thread-safe counters, gauges and log2 latency histograms.

    Everything is keyed by ``(metric name, label set)``; label sets are small
    dicts (or pair tuples) like ``{"theory": "incnat", "op": "equiv"}``.
    Metrics spring into existence on first touch — there is no separate
    declaration step, so instrumentation points stay one-liners.
    :meth:`snapshot` returns a plain JSON-able dict (the wire/merge/render
    currency); the registry itself never crosses a process boundary.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}    # name -> {label_key: int}
        self._gauges = {}      # name -> {label_key: number}
        self._histograms = {}  # name -> {label_key: _Histogram}

    def inc(self, name, labels=(), value=1):
        key = _label_key(labels)
        with self._lock:
            table = self._counters.setdefault(name, {})
            table[key] = table.get(key, 0) + value

    def set_gauge(self, name, value, labels=()):
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = value

    def observe(self, name, value_ms, labels=()):
        key = _label_key(labels)
        with self._lock:
            table = self._histograms.setdefault(name, {})
            histogram = table.get(key)
            if histogram is None:
                histogram = table[key] = _Histogram()
            histogram.observe(value_ms)

    def snapshot(self):
        """A JSON-able copy of every metric (see :func:`empty_snapshot`)."""
        with self._lock:
            counters = {
                name: [{"labels": dict(key), "value": value}
                       for key, value in sorted(table.items())]
                for name, table in sorted(self._counters.items())
            }
            gauges = {
                name: [{"labels": dict(key), "value": value}
                       for key, value in sorted(table.items())]
                for name, table in sorted(self._gauges.items())
            }
            histograms = {
                name: [
                    {
                        "labels": dict(key),
                        "buckets_ms": list(HISTOGRAM_BUCKETS_MS),
                        "counts": list(histogram.counts),
                        "count": histogram.total,
                        "sum_ms": histogram.sum_ms,
                    }
                    for key, histogram in sorted(table.items())
                ]
                for name, table in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


def empty_snapshot():
    """The zero element of :func:`merge_metrics`."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_metrics(snapshots):
    """Fold registry snapshots (e.g. one per worker process) into one.

    Counters and histogram bucket counts add element-wise; gauges add too
    (the per-worker gauges in this codebase are all extensive quantities —
    live sessions, resident cache entries — where summing is the meaningful
    fold).  Histograms must share the bucket ladder; mixed ladders raise
    ``ValueError`` rather than merging nonsense.
    """
    counters = {}
    gauges = {}
    histograms = {}

    def _fold_scalars(into, table_name, entries):
        table = into.setdefault(table_name, {})
        for entry in entries:
            key = _label_key(entry["labels"])
            table[key] = table.get(key, 0) + entry["value"]

    for snapshot in snapshots:
        for name, entries in snapshot.get("counters", {}).items():
            _fold_scalars(counters, name, entries)
        for name, entries in snapshot.get("gauges", {}).items():
            _fold_scalars(gauges, name, entries)
        for name, entries in snapshot.get("histograms", {}).items():
            table = histograms.setdefault(name, {})
            for entry in entries:
                key = _label_key(entry["labels"])
                merged = table.get(key)
                if merged is None:
                    table[key] = {
                        "labels": dict(key),
                        "buckets_ms": list(entry["buckets_ms"]),
                        "counts": list(entry["counts"]),
                        "count": entry["count"],
                        "sum_ms": entry["sum_ms"],
                    }
                    continue
                if merged["buckets_ms"] != list(entry["buckets_ms"]):
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket ladders differ")
                merged["counts"] = [a + b for a, b in zip(merged["counts"], entry["counts"])]
                merged["count"] += entry["count"]
                merged["sum_ms"] += entry["sum_ms"]

    def _render_scalars(table):
        return {
            name: [{"labels": dict(key), "value": value}
                   for key, value in sorted(entries.items())]
            for name, entries in sorted(table.items())
        }

    return {
        "counters": _render_scalars(counters),
        "gauges": _render_scalars(gauges),
        "histograms": {
            name: [entries[key] for key in sorted(entries)]
            for name, entries in sorted(histograms.items())
        },
    }


# ---------------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)
# ---------------------------------------------------------------------------

_HELP = {
    "requests_total": "Requests completed by the scheduler, by theory/op/outcome.",
    "rejected_total": "Requests refused before execution (backpressure, shutdown, invalid).",
    "request_latency_ms": "End-to-end request latency (queue wait + execution).",
    "queue_latency_ms": "Time from submission to worker dispatch.",
    "exec_latency_ms": "Time from worker dispatch to response.",
    "worker_requests_total": "Requests executed inside worker processes.",
    "worker_exec_latency_ms": "In-worker execution latency (process backend).",
    "cache_hits_total": "Cache table hits, by theory and table.",
    "cache_misses_total": "Cache table misses, by theory and table.",
    "cache_evictions_total": "Cache table evictions, by theory and table.",
    "uptime_seconds": "Seconds since the server started.",
    "queue_depth": "Requests queued, not yet picked up by a worker.",
    "queue_peak": "High-water mark of the queue depth.",
    "queue_limit": "Bounded-intake capacity.",
    "in_flight": "Requests queued or executing.",
    "workers": "Scheduler worker count.",
    "stripes": "Session stripes per theory.",
    "router_requests_total": "Requests forwarded by the cluster router, by backend/outcome.",
    "router_rejected_total": "Requests the router refused at admission (rate limit, queue full, shutdown).",
    "router_retries_total": "Requests re-dispatched to another replica after a backend failure.",
    "router_ejections_total": "Backends ejected from the hash ring after a failed probe or broken connection.",
    "router_rejoins_total": "Backends readmitted to the hash ring after a successful probe.",
    "router_backend_latency_ms": "Router-observed per-backend round-trip latency (send to response).",
    "router_backends_up": "Backends currently in the hash ring.",
    "router_backends_down": "Configured backends currently ejected.",
    "router_queue_depth": "Requests admitted by the router, not yet answered.",
}


def _escape_label(value):
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels, extra=None):
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"'
                    for name, value in sorted(items.items()))
    return "{" + body + "}"


def _number_text(value):
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot, prefix="kmt_"):
    """Render a metrics snapshot as Prometheus text exposition format.

    Histogram bucket counts are cumulative in the output (per the format),
    with the mandatory ``le="+Inf"`` bucket equal to ``_count``; internal
    snapshots keep them per-bucket for mergeability.
    """
    lines = []

    def _head(name, kind):
        full = prefix + name
        help_text = _HELP.get(name)
        if help_text:
            lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        return full

    for name, entries in snapshot.get("counters", {}).items():
        full = _head(name, "counter")
        for entry in entries:
            lines.append(f"{full}{_label_text(entry['labels'])} "
                         f"{_number_text(entry['value'])}")
    for name, entries in snapshot.get("gauges", {}).items():
        full = _head(name, "gauge")
        for entry in entries:
            lines.append(f"{full}{_label_text(entry['labels'])} "
                         f"{_number_text(entry['value'])}")
    for name, entries in snapshot.get("histograms", {}).items():
        full = _head(name, "histogram")
        for entry in entries:
            labels = entry["labels"]
            cumulative = 0
            for bound, count in zip(entry["buckets_ms"], entry["counts"]):
                cumulative += count
                lines.append(f"{full}_bucket{_label_text(labels, {'le': f'{bound:g}'})} "
                             f"{cumulative}")
            lines.append(f"{full}_bucket{_label_text(labels, {'le': '+Inf'})} "
                         f"{entry['count']}")
            lines.append(f"{full}_sum{_label_text(labels)} {_number_text(entry['sum_ms'])}")
            lines.append(f"{full}_count{_label_text(labels)} {entry['count']}")
    return "\n".join(lines) + "\n"


class MetricsExporter:
    """Prometheus scrape endpoint: ``GET /metrics`` on a daemon HTTP thread.

    ``render`` is a zero-argument callable returning the exposition text
    (typically ``QueryServer.metrics_prometheus``), evaluated per scrape so
    the endpoint always reports live numbers.  ``port=0`` binds an ephemeral
    port, published on ``self.port`` after construction.
    """

    def __init__(self, render, host="127.0.0.1", port=0):
        exporter = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 — BaseHTTPRequestHandler API
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404, "only /metrics is served here")
                    return
                try:
                    body = exporter._render().encode("utf-8")
                except Exception as error:  # noqa: BLE001 — a scrape must not kill the thread
                    self.send_error(500, f"metrics render failed: {error}")
                    return
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002 — stdlib signature
                logging.getLogger("kmt.metrics").debug(
                    "scrape %s", format % args if args else format)

        self._render = render
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[0], self._httpd.server_address[1]
        self._thread = None

    def start(self):
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="kmt-metrics-exporter",
                daemon=True)
            self._thread.start()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def close(self):
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------

#: Fields the formatter owns; event fields colliding with them are prefixed
#: rather than clobbering the envelope.
_ENVELOPE_FIELDS = frozenset({"ts", "level", "logger", "event"})


class JsonLinesFormatter(logging.Formatter):
    """One JSON object per log record (sorted keys, ISO-8601 UTC timestamps).

    Records emitted through :func:`log_event` carry their event name and
    structured fields; plain ``logger.info("...")`` calls from other code
    degrade gracefully (the formatted message becomes the ``event``).
    """

    def format(self, record):
        payload = {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(record.created))
                  + f".{int(record.msecs):03d}Z",
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": getattr(record, "kmt_event", None) or record.getMessage(),
        }
        fields = getattr(record, "kmt_fields", None)
        if fields:
            for name, value in fields.items():
                payload[f"field_{name}" if name in _ENVELOPE_FIELDS else name] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


# Silent unless configured: library code must not spam stderr (the stdio
# protocol front ends share the process's streams with the protocol itself).
logging.getLogger("kmt").addHandler(logging.NullHandler())


def configure_logging(level="info", log_file=None, stream=None):
    """Point the ``kmt`` logger hierarchy at a JSON-lines handler.

    ``log_file`` wins over ``stream`` (default ``sys.stderr`` — never stdout,
    which carries protocol responses).  Reconfiguration replaces the previous
    handler, so repeated CLI invocations in one process do not double-log.
    Returns the configured root ``kmt`` logger.
    """
    import sys

    logger = logging.getLogger("kmt")
    numeric = getattr(logging, str(level).upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    if log_file is not None:
        handler = logging.FileHandler(log_file, encoding="utf-8")
    else:
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLinesFormatter())
    for old in list(logger.handlers):
        if not isinstance(old, logging.NullHandler):
            logger.removeHandler(old)
            old.close()
    logger.addHandler(handler)
    logger.setLevel(numeric)
    logger.propagate = False
    return logger


def logging_target():
    """The configured ``kmt`` log as plain data, for a spawned process.

    ``(level, log_file)`` — ``log_file`` is ``None`` for a stream handler,
    which the child re-creates on its own stderr — or ``None`` when logging
    is off.  ``configure_logging(*logging_target())`` repeats the setup.
    """
    logger = logging.getLogger("kmt")
    for handler in logger.handlers:
        if isinstance(handler, logging.NullHandler):
            continue
        log_file = handler.baseFilename if isinstance(handler, logging.FileHandler) else None
        return logging.getLevelName(logger.level), log_file
    return None


def log_event(logger, level, event, **fields):
    """Emit one structured event (a no-op when ``level`` is not enabled)."""
    if logger.isEnabledFor(level):
        logger.log(level, event, extra={"kmt_event": event, "kmt_fields": fields})


_REQUEST_COUNTER = itertools.count(1)


def next_request_id():
    """A process-unique request/trace id (``"<pid>-<counter>"``)."""
    return f"{os.getpid()}-{next(_REQUEST_COUNTER)}"

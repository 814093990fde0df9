"""JSONL batch protocol over per-theory engine sessions.

One request per line, one JSON response per line, order preserved::

    {"op": "equiv", "theory": "incnat", "left": "inc(x); x > 1", "right": "x > 0; inc(x)"}
    {"op": "norm",  "theory": "bitvec", "term": "(flip a)*; a = T"}
    {"op": "sat",   "pred": "x > 3; ~(x > 5)"}
    {"op": "empty", "term": "x > 3; ~(x > 3)"}
    {"op": "leq",   "left": "inc(x)", "right": "inc(x) + inc(y)"}
    {"op": "inclusion", "left": "inc(x)", "right": "inc(x) + inc(y)"}
    {"op": "member", "term": "(inc(x))*; x > 1", "word": ["inc(x)", "inc(x)"]}
    {"op": "verify", "pre": "x > 0", "program": "inc(x);", "post": "x > 1"}
    {"op": "prog_equiv", "left": "skip;", "right": "if (x > 0) {} else {}"}
    {"op": "dead_code", "program": "abort; inc(x);"}

The last three take While-language program source (docs/GRAMMAR.md) instead
of bare KMT terms; see :mod:`repro.analysis.checks` for their result payloads.

Responses echo ``op``/``theory`` plus the request's ``id`` (defaulting to the
0-based line number) and carry either ``"ok": true`` with a ``result`` object
or ``"ok": false`` with an ``error`` string and a machine-readable
``error_code`` — malformed lines produce error records instead of aborting
the batch.  Replayed equivalence verdicts are flagged ``"cached": true`` so
their exploration counters are not mistaken for fresh work.

Batches are dispatched across a ``concurrent.futures`` thread pool with
*session affinity*: requests are grouped by theory and each group runs on its
theory's persistent :class:`~repro.engine.session.EngineSession` (a
:class:`~repro.engine.session.ShardedSessionPool` with one stripe), so
duplicate and overlapping queries inside a batch hit the session caches
instead of re-normalizing.  The extra ops ``{"op": "stats"}``,
``{"op": "ping"}`` and ``{"op": "metrics"}`` expose cache accounting,
liveness and the aggregated telemetry counters/histograms.  Any query may
carry ``"trace": true`` to get a per-phase timing breakdown back in its
response (see :mod:`repro.engine.telemetry`).

The request parsing/validation helpers (:func:`parse_request_line`,
:func:`execute_query`, :func:`error_response`, :func:`classify_query_error`)
are shared with the concurrent query server (:mod:`repro.engine.server`,
``kmt serve``), so the two front ends cannot drift apart on protocol
details.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.pretty import pretty_normal_form
from repro.core.pushback import DEFAULT_BUDGET
from repro.engine.session import ShardedSessionPool
from repro.engine.telemetry import MetricsRegistry, Trace, activate, deactivate, log_event
from repro.utils.errors import KmtError, ParseError, QueryCancelled, WireProtocolError

_log = logging.getLogger("kmt.batch")

#: Ops that dispatch to a theory session.
QUERY_OPS = ("equiv", "leq", "inclusion", "member", "norm", "sat", "empty",
             "verify", "prog_equiv", "dead_code")
#: Control ops understood by batches and the query server.
CONTROL_OPS = ("stats", "ping", "metrics")

DEFAULT_THEORY = "incnat"

# ---------------------------------------------------------------------------
# structured error codes (stable, machine-readable; the human-readable
# ``error`` string may change freely)
# ---------------------------------------------------------------------------
ERROR_MALFORMED = "malformed_request"
ERROR_UNKNOWN_OP = "unknown_op"
ERROR_UNKNOWN_THEORY = "unknown_theory"
ERROR_MISSING_FIELD = "missing_field"
ERROR_PARSE = "parse_error"
ERROR_INVALID = "invalid_request"
ERROR_DEADLINE = "deadline_exceeded"
ERROR_QUEUE_FULL = "queue_full"
ERROR_SHUTDOWN = "shutting_down"
ERROR_WORKER_CRASHED = "worker_crashed"
ERROR_SNAPSHOT_INVALID = "snapshot_invalid"
ERROR_INTERNAL = "internal_error"
# Cluster-router codes (see repro.engine.router): a request whose backend —
# and every retry replica — is unreachable answers ``backend_down``; a client
# over its token-bucket budget is refused with ``rate_limited``.
ERROR_BACKEND_DOWN = "backend_down"
ERROR_RATE_LIMITED = "rate_limited"


def parse_request_line(raw):
    """Classify one input line of the JSONL protocol.

    Returns a ``(kind, payload)`` pair:

    * ``("skip", None)`` — blank line or ``#`` comment (no response);
    * ``("quit", record)`` — a well-formed ``{"op": "quit"}`` record;
    * ``("control", record)`` — ``stats`` / ``ping``;
    * ``("query", record)`` — one of :data:`QUERY_OPS`;
    * ``("error", (message, code, record))`` — malformed JSON, a non-object
      record, or an unknown op.  ``record`` is the parsed request when one
      exists (``{}`` otherwise) so error responses can still echo the
      client's ``id`` — out-of-order completion depends on that.
    """
    line = raw.strip()
    if not line or line.startswith("#"):
        return "skip", None
    try:
        record = json.loads(line)
    except ValueError as error:
        return "error", (f"malformed request: {error}", ERROR_MALFORMED, {})
    if not isinstance(record, dict):
        return "error", ("malformed request: record must be a JSON object", ERROR_MALFORMED, {})
    op = record.get("op")
    if op == "quit":
        return "quit", record
    if op in CONTROL_OPS:
        return "control", record
    if op in QUERY_OPS:
        return "query", record
    return "error", (
        f"unknown op {op!r}; expected one of {', '.join(QUERY_OPS + CONTROL_OPS)}",
        ERROR_UNKNOWN_OP,
        record,
    )


# ---------------------------------------------------------------------------
# compact wire form (request/response serialization for the process backend)
# ---------------------------------------------------------------------------
#
# The process execution backend (:mod:`repro.engine.server`) ships every
# request to a worker process and every response back; rather than pickling
# parsed records, both directions round-trip through a *compact wire form*: a
# positional JSON array with a version tag, so the cross-process protocol is
# explicit, validated and language-agnostic.  ``decode ∘ encode`` is exact
# (``decode_wire_request(encode_wire_request(r)) == r`` for every record
# ``parse_request_line`` classifies as query/control/quit — including records
# with *missing* required fields, which must reach the worker unchanged so it
# reports the same ``missing_field`` error the thread backend would).
#
# Optional slots use a presence encoding: ``0`` for "absent", ``[value]`` for
# "present" — a plain ``null`` could not distinguish ``{"id": null}`` from no
# ``id`` at all.

WIRE_VERSION = 1

#: Per-op payload fields, in wire (positional) order.
_WIRE_FIELDS = {
    "equiv": ("left", "right"),
    "leq": ("left", "right"),
    "inclusion": ("left", "right"),
    "member": ("term", "word"),
    "norm": ("term",),
    "sat": ("pred",),
    "empty": ("term",),
    "verify": ("pre", "program", "post"),
    "prog_equiv": ("left", "right"),
    "dead_code": ("program",),
    "stats": (),
    "ping": (),
    "metrics": (),
    "quit": (),
}

#: Request fields every op may carry, in wire order.
_WIRE_REQUEST_OPTIONAL = ("id", "theory", "deadline_ms")

#: Response fields that may be absent (``id`` and ``ok`` are always present).
_WIRE_RESPONSE_OPTIONAL = ("op", "theory", "result", "error", "error_code")

_WIRE_ABSENT = object()


def _wire_opt(record, key):
    return [record[key]] if key in record else 0


def _wire_unwrap(cell, what):
    """Decode one presence-encoded slot; 0 = absent, [value] = present."""
    if isinstance(cell, list):
        if len(cell) != 1:
            raise WireProtocolError(
                f"malformed wire {what}: a present slot must be a 1-element array",
                ERROR_MALFORMED)
        return cell[0]
    if isinstance(cell, int) and not isinstance(cell, bool) and cell == 0:
        return _WIRE_ABSENT
    raise WireProtocolError(
        f"malformed wire {what}: slot must be 0 (absent) or [value], got {cell!r}",
        ERROR_MALFORMED)


def _wire_dumps(payload, what):
    try:
        return json.dumps(payload, separators=(",", ":"), sort_keys=False)
    except (TypeError, ValueError) as error:
        raise WireProtocolError(
            f"wire {what} is not JSON-serializable: {error}", ERROR_MALFORMED) from error


def _wire_frame(wire, what, arity):
    try:
        payload = json.loads(wire)
    except (TypeError, ValueError) as error:
        raise WireProtocolError(
            f"malformed wire {what}: {error}", ERROR_MALFORMED) from error
    if not isinstance(payload, list) or len(payload) != arity:
        raise WireProtocolError(
            f"malformed wire {what}: expected a {arity}-element array", ERROR_MALFORMED)
    if payload[0] != WIRE_VERSION:
        raise WireProtocolError(
            f"unsupported wire version {payload[0]!r} (this build speaks {WIRE_VERSION})",
            ERROR_MALFORMED)
    return payload


def _wire_extras(extras, what, reserved):
    if not isinstance(extras, dict):
        raise WireProtocolError(
            f"malformed wire {what}: extras must be an object", ERROR_MALFORMED)
    for key in extras:
        if not isinstance(key, str):
            raise WireProtocolError(
                f"malformed wire {what}: extra field names must be strings", ERROR_MALFORMED)
        if key in reserved:
            raise WireProtocolError(
                f"malformed wire {what}: extra field {key!r} collides with a "
                "positional slot", ERROR_MALFORMED)
    return extras


def encode_wire_request(record):
    """Encode one parsed request record into its compact wire line.

    Accepts any record :func:`parse_request_line` classifies as a query,
    control or quit (op must be known); raises
    :class:`~repro.utils.errors.WireProtocolError` otherwise.
    """
    if not isinstance(record, dict):
        raise WireProtocolError(
            "wire request must be encoded from a JSON-object record", ERROR_MALFORMED)
    op = record.get("op")
    fields = _WIRE_FIELDS.get(op)
    if fields is None:
        raise WireProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(_WIRE_FIELDS)}",
            ERROR_UNKNOWN_OP)
    reserved = ("op",) + fields + _WIRE_REQUEST_OPTIONAL
    extras = {key: value for key, value in record.items() if key not in reserved}
    return _wire_dumps(
        [
            WIRE_VERSION,
            op,
            [_wire_opt(record, field) for field in fields],
            [_wire_opt(record, key) for key in _WIRE_REQUEST_OPTIONAL],
            extras,
        ],
        "request",
    )


def decode_wire_request(wire):
    """Decode a compact wire line back into the exact original record.

    Malformed input is rejected with :class:`WireProtocolError` carrying a
    stable ``code`` (``malformed_request`` for framing/shape problems,
    ``unknown_op`` for a well-framed unknown op).
    """
    _, op, field_part, optional_part, extras = _wire_frame(wire, "request", 5)
    fields = _WIRE_FIELDS.get(op)
    if fields is None:
        raise WireProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(_WIRE_FIELDS)}",
            ERROR_UNKNOWN_OP)
    if not isinstance(field_part, list) or len(field_part) != len(fields):
        raise WireProtocolError(
            f"malformed wire request: op {op!r} carries {len(fields)} payload "
            "slots", ERROR_MALFORMED)
    if not isinstance(optional_part, list) or len(optional_part) != len(_WIRE_REQUEST_OPTIONAL):
        raise WireProtocolError(
            f"malformed wire request: expected {len(_WIRE_REQUEST_OPTIONAL)} "
            "optional slots", ERROR_MALFORMED)
    record = {"op": op}
    for name, cell in zip(fields, field_part):
        value = _wire_unwrap(cell, "request")
        if value is not _WIRE_ABSENT:
            record[name] = value
    for name, cell in zip(_WIRE_REQUEST_OPTIONAL, optional_part):
        value = _wire_unwrap(cell, "request")
        if value is not _WIRE_ABSENT:
            record[name] = value
    reserved = ("op",) + fields + _WIRE_REQUEST_OPTIONAL
    record.update(_wire_extras(extras, "request", reserved))
    return record


def encode_wire_response(response):
    """Encode one response record (``id`` and ``ok`` required) for the wire."""
    if not isinstance(response, dict) or "id" not in response or "ok" not in response:
        raise WireProtocolError(
            "wire response must be a record carrying 'id' and 'ok'", ERROR_MALFORMED)
    if not isinstance(response["ok"], bool):
        raise WireProtocolError("wire response 'ok' must be a boolean", ERROR_MALFORMED)
    reserved = ("id", "ok") + _WIRE_RESPONSE_OPTIONAL
    extras = {key: value for key, value in response.items() if key not in reserved}
    return _wire_dumps(
        [
            WIRE_VERSION,
            [response["id"]],
            response["ok"],
            [_wire_opt(response, key) for key in _WIRE_RESPONSE_OPTIONAL],
            extras,
        ],
        "response",
    )


def decode_wire_response(wire):
    """Decode a compact wire response line back into the exact response dict."""
    _, id_cell, ok, optional_part, extras = _wire_frame(wire, "response", 5)
    id_value = _wire_unwrap(id_cell, "response")
    if id_value is _WIRE_ABSENT:
        raise WireProtocolError(
            "malformed wire response: 'id' is required", ERROR_MALFORMED)
    if not isinstance(ok, bool):
        raise WireProtocolError(
            "malformed wire response: 'ok' must be a boolean", ERROR_MALFORMED)
    if not isinstance(optional_part, list) or len(optional_part) != len(_WIRE_RESPONSE_OPTIONAL):
        raise WireProtocolError(
            f"malformed wire response: expected {len(_WIRE_RESPONSE_OPTIONAL)} "
            "optional slots", ERROR_MALFORMED)
    response = {"id": id_value, "ok": ok}
    for name, cell in zip(_WIRE_RESPONSE_OPTIONAL, optional_part):
        value = _wire_unwrap(cell, "response")
        if value is not _WIRE_ABSENT:
            response[name] = value
    reserved = ("id", "ok") + _WIRE_RESPONSE_OPTIONAL
    response.update(_wire_extras(extras, "response", reserved))
    return response


def classify_query_error(error):
    """Map an exception from query execution to ``(message, error_code)``."""
    if isinstance(error, KeyError):
        return f"missing field {error.args[0]!r}", ERROR_MISSING_FIELD
    if isinstance(error, QueryCancelled):
        return str(error), ERROR_DEADLINE
    if isinstance(error, ParseError):
        return str(error), ERROR_PARSE
    return str(error), ERROR_INVALID


def error_response(record, fallback_id, theory_name, message, code):
    """Build one ``"ok": false`` response record."""
    out = {
        "id": record.get("id", fallback_id) if isinstance(record, dict) else fallback_id,
        "ok": False,
        "error": message,
        "error_code": code,
    }
    if isinstance(record, dict) and record.get("op") is not None:
        out["op"] = record.get("op")
    if theory_name is not None:
        out["theory"] = theory_name
    return out


def execute_query(session, record, cancel=None):
    """Run one query record on a session; returns the ``result`` payload.

    Raises ``KmtError`` (or ``KeyError`` for missing fields) — callers convert
    those into error records via :func:`classify_query_error`.  ``cancel`` is
    the optional cooperative-cancellation hook threaded through the session
    into normalization and the decision procedure.
    """
    op = record["op"]
    if op == "equiv":
        result = session.check_equivalent(record["left"], record["right"], cancel=cancel)
        payload = {
            "equivalent": result.equivalent,
            "cells_explored": result.cells_explored,
            "cells_pruned": result.cells_pruned,
            "signatures_explored": result.signatures_explored,
        }
        if result.cached:
            # Replayed verdict: the counters above describe the run that
            # first computed it, not work done for this request.
            payload["cached"] = True
        if result.counterexample is not None:
            payload["counterexample"] = result.counterexample.describe()
        return payload
    if op == "leq":
        return {"leq": session.less_or_equal(record["left"], record["right"], cancel=cancel)}
    if op == "inclusion":
        result = session.check_inclusion(record["left"], record["right"], cancel=cancel)
        payload = {
            "includes": result.includes,
            "cells_explored": result.cells_explored,
            "cells_pruned": result.cells_pruned,
            "signatures_explored": result.signatures_explored,
        }
        if result.cached:
            payload["cached"] = True
        if result.counterexample is not None:
            payload["counterexample"] = result.counterexample.describe()
            # The machine-readable form of the witness: a shortest word in
            # L(left) \ L(right), one primitive action per element.
            payload["witness_word"] = [str(pi) for pi in result.counterexample.word or ()]
        return payload
    if op == "member":
        return {"member": session.member(record["term"], record["word"], cancel=cancel)}
    if op == "norm":
        nf = session.normalize(record["term"], cancel=cancel)
        return {"normal_form": pretty_normal_form(nf), "summands": len(nf)}
    if op == "sat":
        return {"satisfiable": session.satisfiable(record["pred"])}
    if op == "empty":
        return {"empty": session.is_empty(record["term"], cancel=cancel)}
    # Program-analysis ops: While source text in, spans/witnesses out (see
    # repro.analysis.checks; docs/GRAMMAR.md specifies the program syntax).
    if op == "verify":
        return session.verify(record["pre"], record["program"], record["post"],
                              cancel=cancel)
    if op == "prog_equiv":
        return session.prog_equiv(record["left"], record["right"], cancel=cancel)
    if op == "dead_code":
        return session.dead_code(record["program"], cancel=cancel)
    raise KmtError(f"unknown op {op!r}; expected one of {', '.join(QUERY_OPS)}")


def _cache_table_snapshot(caches):
    """Per-table ``(hits, misses)`` for the session-private cache tables.

    The process-wide shared derivative memo is deliberately excluded: under
    concurrency its deltas would blend other requests' traffic into this
    request's trace.
    """
    private = getattr(caches, "private_caches", None)
    if private is None:
        return {}
    return {cache.stats.name: (cache.stats.hits, cache.stats.misses)
            for cache in private()}


def _cache_table_deltas(before, after):
    out = {}
    for name, (hits, misses) in after.items():
        hits_before, misses_before = before.get(name, (0, 0))
        delta_hits, delta_misses = hits - hits_before, misses - misses_before
        if delta_hits or delta_misses:
            out[name] = {"hits": delta_hits, "misses": delta_misses}
    return out


def run_query(session, record, cancel=None, force_trace=False):
    """Execute one query, honoring the request's ``"trace": true`` flag.

    Returns ``(result, trace_payload)``; the payload is ``None`` on the
    untraced fast path (one dict lookup of overhead).  When tracing, a
    :class:`~repro.engine.telemetry.Trace` is activated on this thread for
    the duration of the query so every instrumented layer (session
    normalization, signature/cell search, comparison memo, automaton
    compilation + minimization, product walks) records its spans into it.
    The payload carries the phase self-time breakdown, ``exec_ms`` (the whole
    execution window), ``unattributed_ms`` (window time no phase claims:
    parsing, routing, memo lookups), and per-table cache hit/miss deltas
    observed across the query — the caller must hold the session lock, which
    makes those deltas attributable to this request alone.  ``force_trace``
    traces a request that did not ask (the slow-query log), in which case the
    caller is responsible for stripping the payload from the client response.
    Failed queries raise exactly as :func:`execute_query` does; the partial
    trace is discarded with them.
    """
    if not (force_trace or record.get("trace")):
        return execute_query(session, record, cancel=cancel), None
    trace = Trace()
    tables_before = _cache_table_snapshot(session.caches)
    started = time.monotonic()
    activate(trace)
    try:
        result = execute_query(session, record, cancel=cancel)
    finally:
        deactivate()
    exec_ms = (time.monotonic() - started) * 1000.0
    payload = trace.payload()
    payload["exec_ms"] = round(exec_ms, 3)
    payload["unattributed_ms"] = round(max(0.0, exec_ms - trace.attributed_ms()), 3)
    payload["cache"] = _cache_table_deltas(
        tables_before, _cache_table_snapshot(session.caches))
    return result, payload


class BatchRunner:
    """Parse, group and execute a JSONL batch on a session pool."""

    def __init__(self, pool=None, default_theory=DEFAULT_THEORY, budget=DEFAULT_BUDGET, jobs=None,
                 slow_query_ms=None):
        self.pool = ShardedSessionPool(stripes=1, budget=budget) if pool is None else pool
        self.default_theory = default_theory
        self.jobs = jobs
        self.slow_query_ms = slow_query_ms
        self.metrics = MetricsRegistry()

    def run_lines(self, lines):
        """Execute an iterable of JSONL lines; returns response dicts in order.

        Blank lines and ``#`` comments are skipped (no response record).
        Default ``id``s are 0-based *input* line numbers, so error records can
        be correlated back to the file even when comments/blanks interleave.
        ``lines`` is consumed lazily (one line at a time), so a streamed file
        handle never has to fit in memory at once.
        """
        requests = []   # (index, record) for valid query records
        controls = []   # (index, record) for stats/ping — answered post-batch
        responses = {}  # index -> response dict
        order = []      # indices with responses, in input order
        for index, raw in enumerate(lines):
            kind, payload = parse_request_line(raw)
            if kind == "skip":
                continue
            order.append(index)
            if kind == "control":
                controls.append((index, payload))
            elif kind == "query":
                requests.append((index, payload))
            elif kind == "quit":
                # ``quit`` is a serve/server control, meaningless inside a
                # batch file — report it rather than silently dropping it.
                responses[index] = error_response(
                    payload, index, None,
                    "op 'quit' is only valid in serve mode; expected one of "
                    f"{', '.join(QUERY_OPS + CONTROL_OPS)}",
                    ERROR_UNKNOWN_OP,
                )
            else:  # "error"
                message, code, request = payload
                responses[index] = error_response(request, index, None, message, code)
        self._execute_grouped(requests, responses)
        # Control responses are built after the queries ran, so a trailing
        # {"op": "stats"} reflects the batch it is part of.
        for index, record in controls:
            responses[index] = self._control_response(record, index)
        return [responses[index] for index in order]

    def _control_response(self, record, index):
        response = {"id": record.get("id", index), "op": record["op"], "ok": True}
        if record["op"] == "stats":
            response["result"] = self.pool.stats()
        elif record["op"] == "metrics":
            response["result"] = self.metrics.snapshot()
        else:
            response["result"] = {"pong": True, "theories": self.pool.theories()}
        return response

    def _execute_grouped(self, requests, responses):
        groups = {}  # theory name -> [(index, record)]
        for index, record in requests:
            theory_name = str(record.get("theory", self.default_theory)).lower()
            groups.setdefault(theory_name, []).append((index, record))
        if not groups:
            return
        max_workers = self.jobs if self.jobs else len(groups)
        max_workers = max(1, min(max_workers, len(groups)))
        if max_workers == 1:
            for theory_name, group in groups.items():
                responses.update(self._run_group(theory_name, group))
            return
        with ThreadPoolExecutor(max_workers=max_workers) as executor:
            futures = [
                executor.submit(self._run_group, theory_name, group)
                for theory_name, group in groups.items()
            ]
            for future in futures:
                responses.update(future.result())

    def _run_group(self, theory_name, group):
        out = {}
        try:
            session = self.pool.session(theory_name)
        except KmtError as error:
            for index, record in group:
                out[index] = error_response(record, index, theory_name, str(error),
                                            ERROR_UNKNOWN_THEORY)
            return out
        with session.lock:
            for index, record in group:
                base = {
                    "id": record.get("id", index),
                    "op": record["op"],
                    "theory": theory_name,
                }
                started = time.monotonic()
                trace_payload = None
                try:
                    base["ok"] = True
                    base["result"], trace_payload = run_query(
                        session, record, force_trace=self.slow_query_ms is not None)
                except (KmtError, KeyError, TypeError, ValueError) as error:
                    message, code = classify_query_error(error)
                    base = error_response(record, index, theory_name, message, code)
                except Exception as error:  # noqa: BLE001 — e.g. RecursionError on deep input
                    # One bad request must not abort the rest of the batch.
                    log_event(_log, logging.ERROR, "internal_error",
                              request_id=record.get("id", index), op=record["op"],
                              theory=theory_name, error=repr(error))
                    base = error_response(record, index, theory_name, str(error),
                                          ERROR_INTERNAL)
                elapsed_ms = (time.monotonic() - started) * 1000.0
                if trace_payload is not None:
                    trace_payload["total_ms"] = round(elapsed_ms, 3)
                    if record.get("trace"):
                        base["trace"] = trace_payload
                outcome = base.get("error_code", "ok")
                labels = (("theory", theory_name), ("op", record["op"]))
                self.metrics.inc("requests_total", labels + (("outcome", outcome),))
                self.metrics.observe("request_latency_ms", elapsed_ms, labels)
                if self.slow_query_ms is not None and elapsed_ms >= self.slow_query_ms:
                    log_event(_log, logging.WARNING, "slow_query",
                              request_id=base.get("id"), op=record["op"],
                              theory=theory_name, total_ms=round(elapsed_ms, 3),
                              outcome=outcome,
                              phases=(trace_payload or {}).get("phases"),
                              cache=(trace_payload or {}).get("cache"))
                out[index] = base
        return out


def run_batch_lines(lines, default_theory=DEFAULT_THEORY, budget=DEFAULT_BUDGET,
                    jobs=None, pool=None):
    """Convenience wrapper: run a batch, return ``(responses, pool)``."""
    runner = BatchRunner(pool=pool, default_theory=default_theory, budget=budget, jobs=jobs)
    return runner.run_lines(lines), runner.pool
